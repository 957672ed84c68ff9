import copy
import json

import pytest

from ellmat import (
    ArrangementFormatError,
    load_arrangement,
    parse_document,
    parse_text,
    random_arrangement,
    save_arrangement,
    serialize_arrangement,
)
from ellmat.quadratic_order import ParameterError
from support import FIXTURE_OMEGA_DOC, FIXTURE_SQRT3_DOC, subset_report


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
    ],
)
def test_parse_rejects_invalid_documents(mutate):
    with pytest.raises(ArrangementFormatError):
        parse_document(_broken(mutate))


def test_parse_rejects_invalid_json():
    with pytest.raises(ArrangementFormatError):
        parse_text("{not json")


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
