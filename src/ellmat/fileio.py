"""Arrangement files: a small JSON document with exact integer content.

The format, integers throughout:

    {
      "field": {"m": 3},
      "tau": {"a": -1, "b": 2, "c": 1},
      "matrix": {
        "rows": 2,
        "cols": 1,
        "entries": [[[2, 0]], [[1, 1]]]
      }
    }

An entry [x, y] means x + y*N*tau, coordinates over the basis {1, N*tau}
of the endomorphism ring.  Serialization is canonical (fixed key order,
two-space indent, trailing newline), so generated files round-trip
byte-for-byte through parse and serialize.  A malformed or oversized
document raises ParameterError; a file that cannot be opened, OSError.
"""

import json
import os
import random
import stat
from typing import Any

from .arrangement import EllipticArrangement
from .linalg import RingMatrix
from .quadratic_order import COORD_LIMIT, ENTRY_LIMIT, ParameterError, as_int
from .quadratic_order import make_curve, make_field


# The longest canonical document of a legal arrangement: ENTRY_LIMIT rows of
# one entry at coordinates -(COORD_LIMIT - 1), 102 bytes a row (a zero-width
# row takes 10), and a header far below 4096 bytes.
READ_LIMIT = ENTRY_LIMIT * (2 * len(str(1 - COORD_LIMIT)) + 60) + 4096


def _as_object(value: Any, where: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise ParameterError(f"{where}: expected an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ParameterError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ParameterError(f"{where}: missing keys {missing}")
    return value


def _check_size(k: int, n: int) -> None:
    """Raise ParameterError for a k x n matrix with more than ENTRY_LIMIT rows,
    columns or entries, so a huge shape ends before any work, not in a hang."""
    if max(k, n, k * n) > ENTRY_LIMIT:
        raise ParameterError(
            f"a {k} x {n} matrix exceeds the limit of {ENTRY_LIMIT} rows, columns or entries"
        )


def parse_document(doc: Any) -> EllipticArrangement:
    """Validate a decoded document and build the arrangement it describes."""
    top = _as_object(doc, "document", ("field", "tau", "matrix"))
    field_obj = _as_object(top["field"], "field", ("m",))
    tau_obj = _as_object(top["tau"], "tau", ("a", "b", "c"))
    matrix_obj = _as_object(top["matrix"], "matrix", ("rows", "cols", "entries"))

    curve = make_curve(make_field(field_obj["m"]), tau_obj["a"], tau_obj["b"], tau_obj["c"])
    rows = as_int(matrix_obj["rows"], "matrix.rows")
    cols = as_int(matrix_obj["cols"], "matrix.cols")
    if rows < 0 or cols < 0:
        raise ParameterError("matrix.rows and matrix.cols must be non-negative")
    _check_size(rows, cols)
    entries = matrix_obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParameterError(f"matrix.entries: expected a list of {rows} rows")
    # RingMatrix refuses any entry that is not an (x, y) pair of ints.
    matrix = RingMatrix(curve, cols, entries)
    for i, row in enumerate(matrix.entries):
        for j, (x, y) in enumerate(row):
            if max(abs(x), abs(y)) >= COORD_LIMIT:
                raise ParameterError(f"matrix.entries[{i}][{j}]: |x| and |y| must be below 2^64")
    return EllipticArrangement(matrix)


def parse_text(text: str) -> EllipticArrangement:
    # Besides JSONDecodeError, a ValueError is raised for integers past the
    # int-to-string digit limit and RecursionError for arrays nested too deep.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"invalid JSON: {exc}") from exc
    return parse_document(doc)


def load_arrangement(path: str) -> EllipticArrangement:
    """Parse the file at `path`, refused unread when a regular file is longer
    than READ_LIMIT, else once READ_LIMIT + 1 bytes are read."""
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        length = info.st_size if stat.S_ISREG(info.st_mode) else 0
        if length <= READ_LIMIT:
            data = handle.read(READ_LIMIT + 1)
            length = len(data)
    if length > READ_LIMIT:
        raise ParameterError(f"{path}: longer than the limit of {READ_LIMIT} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"invalid UTF-8: {exc}") from exc
    return parse_text(text)


def serialize_arrangement(arr: EllipticArrangement) -> str:
    """Canonical text form; stable byte-for-byte across runs."""
    curve, matrix = arr.curve, arr.matrix
    doc = {
        "field": {"m": curve.field.m},
        "tau": {"a": curve.a, "b": curve.b, "c": curve.c},
        "matrix": {"rows": matrix.k, "cols": matrix.n, "entries": matrix.entries},
    }
    return json.dumps(doc, indent=2) + "\n"


def save_arrangement(arr: EllipticArrangement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_arrangement(arr))


def random_arrangement(
    k: int, n: int, m: int, a: int, b: int, c: int, bound: int, seed: int
) -> EllipticArrangement:
    """Seeded arrangement with uniform entry coordinates in [-bound, bound].

    The same seed always produces the same arrangement, hence the same
    serialized bytes.  More than ENTRY_LIMIT rows, columns or entries are
    refused before any is drawn.
    """
    if as_int(k, "k") < 0 or as_int(n, "n") < 0:
        raise ParameterError("k and n must be non-negative")
    _check_size(k, n)
    if not 0 <= as_int(bound, "bound") < COORD_LIMIT:
        raise ParameterError(f"bound must be non-negative and below 2^64, got {bound}")
    curve = make_curve(make_field(m), a, b, c)
    rng = random.Random(as_int(seed, "seed"))
    rows = [
        [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n)]
        for _ in range(k)
    ]
    return EllipticArrangement(RingMatrix(curve, n, rows))
