import copy
import json
import os
import tracemalloc

import pytest

import ellmat
from ellmat import (
    EllipticArrangement,
    RingMatrix,
    load_arrangement,
    parse_document,
    parse_text,
    random_arrangement,
    save_arrangement,
    serialize_arrangement,
)
from ellmat.fileio import READ_LIMIT
from ellmat.quadratic_order import COORD_LIMIT, ENTRY_LIMIT, ParameterError
from support import FIXTURE_OMEGA_DOC, FIXTURE_SQRT3_DOC, curve_gauss, subset_report


def test_parse_fixture(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(FIXTURE_SQRT3_DOC))
    arr = load_arrangement(str(path))
    assert (arr.k, arr.n) == (2, 1)
    assert arr.curve.N == 1
    assert subset_report(arr, 0b11)[1] == 2


def test_parse_empty_matrix():
    doc = {
        "field": {"m": 3},
        "tau": {"a": -1, "b": 2, "c": 1},
        "matrix": {"rows": 0, "cols": 2, "entries": []},
    }
    arr = parse_document(doc)
    assert (arr.k, arr.n) == (0, 2)
    assert subset_report(arr, 0)[1] == 1
    # The largest width ENTRY_LIMIT allows still parses.
    doc["matrix"]["cols"] = 10**6
    assert parse_document(doc).n == 10**6


def test_round_trip_is_byte_identical(tmp_path):
    arr = random_arrangement(k=3, n=2, m=3, a=-1, b=2, c=1, bound=2, seed=7)
    text = serialize_arrangement(arr)
    assert serialize_arrangement(parse_text(text)) == text
    path = tmp_path / "round.json"
    save_arrangement(arr, str(path))
    assert serialize_arrangement(load_arrangement(str(path))) == text


def _broken(mutate):
    doc = copy.deepcopy(FIXTURE_SQRT3_DOC)
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["field"].__setitem__("m", 12),
        lambda d: d["tau"].update({"a": 2, "b": 2, "c": 2}),
        lambda d: d["tau"].__setitem__("b", 0),
        lambda d: d["matrix"].__setitem__("rows", 3),
        lambda d: d["matrix"]["entries"][0].__setitem__(0, [1]),
        lambda d: d["matrix"]["entries"][0].__setitem__(0, [1, True]),
        lambda d: d["matrix"]["entries"][0].__setitem__(0, [1, "2"]),
        lambda d: d.__setitem__("extra", 1),
        lambda d: d.pop("tau"),
        lambda d: d["tau"].__setitem__("a", 1.5),
        # Shapes above ENTRY_LIMIT, refused before any row is read.
        lambda d: d["matrix"].update(rows=0, cols=10**18, entries=[]),
        lambda d: d["matrix"].update(rows=10**6 + 1, cols=0, entries=[]),
        lambda d: d["matrix"].update(rows=1001, cols=1000, entries=[]),
        lambda d: d["matrix"].__setitem__("rows", -1),
        lambda d: d["matrix"].__setitem__("cols", -1),
    ],
)
def test_parse_rejects_invalid_documents(mutate):
    with pytest.raises(ParameterError):
        parse_document(_broken(mutate))


def test_parse_rejects_invalid_json():
    with pytest.raises(ParameterError):
        parse_text("{not json")


def test_refused_document_raises_the_curve_error_itself():
    # A curve the document describes is refused by make_curve's own
    # ParameterError, not by a second error chained to it, and the package
    # has no other error class for refused input.
    with pytest.raises(ParameterError) as info:
        parse_document(_broken(lambda d: d["tau"].__setitem__("b", 0)))
    assert str(info.value) == "b = 0 makes tau real"
    assert info.value.__cause__ is None
    errors = [v for v in vars(ellmat).values() if isinstance(v, type) and issubclass(v, Exception)]
    assert errors == [ParameterError]


def test_random_arrangement_is_deterministic():
    first = random_arrangement(k=3, n=2, m=3, a=-1, b=2, c=1, bound=2, seed=7)
    second = random_arrangement(k=3, n=2, m=3, a=-1, b=2, c=1, bound=2, seed=7)
    assert serialize_arrangement(first) == serialize_arrangement(second)
    other = random_arrangement(k=3, n=2, m=3, a=-1, b=2, c=1, bound=2, seed=8)
    assert serialize_arrangement(other) != serialize_arrangement(first)


def test_random_arrangement_bound_zero_is_trivial():
    arr = random_arrangement(k=3, n=2, m=3, a=0, b=1, c=1, bound=0, seed=1)
    assert all(m == 1 for m in arr.reports()[1])


def test_random_arrangement_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        random_arrangement(k=-1, n=1, m=3, a=0, b=1, c=1, bound=1, seed=0)
    with pytest.raises(ParameterError):
        random_arrangement(k=1, n=1, m=3, a=0, b=1, c=1, bound=-2, seed=0)
    with pytest.raises(ParameterError):
        random_arrangement(k=1, n=1, m=4, a=0, b=1, c=1, bound=1, seed=0)


def test_omega_fixture_parses_to_maximal_order():
    arr = parse_document(FIXTURE_OMEGA_DOC)
    assert arr.curve.conductor == 1
    assert subset_report(arr, 0b11)[1] == 4


def test_read_limit_holds_every_canonical_document():
    # Rows of one entry at the largest coordinates make the longest text a
    # legal arrangement serializes to.  The text grows by the same bytes a
    # row, so its length at the limit extrapolates from 100 and 200 rows.
    pair = (1 - COORD_LIMIT,) * 2

    def length(k: int, n: int) -> int:
        matrix = RingMatrix(curve_gauss(), n, ((pair,) * n,) * k)
        return len(serialize_arrangement(EllipticArrangement(matrix)).encode())

    for n in (0, 1, 2, 3):
        per_row = (length(200, n) - length(100, n)) / 100
        longest = length(100, n) + (ENTRY_LIMIT // max(n, 1) - 100) * per_row
        assert longest <= READ_LIMIT


def test_over_long_regular_file_is_refused_unread(tmp_path):
    # A regular file is refused from its size, so none of its READ_LIMIT + 1
    # bytes is held in memory.  The file is sparse and takes no disk.
    path = tmp_path / "long.json"
    with open(path, "wb") as handle:
        os.truncate(handle.fileno(), READ_LIMIT + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError) as info:
            load_arrangement(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: longer than the limit of {READ_LIMIT} bytes"
    assert peak < 1 << 20
