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

from __future__ import annotations

import json
import os
import random
import stat
from typing import Any

from .arrangement import EllipticArrangement
from .linalg import RingMatrix
from .quadratic_order import (
    COORD_LIMIT,
    ENTRY_LIMIT,
    CurveParams,
    ParameterError,
    make_curve,
    make_field,
)


# The longest canonical document of a legal arrangement: ENTRY_LIMIT rows of
# one entry at coordinates -(COORD_LIMIT - 1), 102 bytes a row (a zero-width
# row takes 10), and a header far below 4096 bytes.
READ_LIMIT = ENTRY_LIMIT * (2 * len(str(1 - COORD_LIMIT)) + 60) + 4096


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{where}: expected an integer, got {value!r}")
    return value


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

    field = make_field(_as_int(field_obj["m"], "field.m"))
    curve = make_curve(
        field,
        _as_int(tau_obj["a"], "tau.a"),
        _as_int(tau_obj["b"], "tau.b"),
        _as_int(tau_obj["c"], "tau.c"),
    )

    rows = _as_int(matrix_obj["rows"], "matrix.rows")
    cols = _as_int(matrix_obj["cols"], "matrix.cols")
    if rows < 0 or cols < 0:
        raise ParameterError("matrix.rows and matrix.cols must be non-negative")
    _check_size(rows, cols)
    entries = matrix_obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParameterError(
            f"matrix.entries: expected {rows} rows, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    pairs: list[tuple[tuple[int, int], ...]] = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParameterError(f"matrix.entries[{i}]: expected {cols} entries")
        out_row: list[tuple[int, int]] = []
        for j, pair in enumerate(row):
            where = f"matrix.entries[{i}][{j}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParameterError(f"{where}: expected an [x, y] pair")
            x, y = _as_int(pair[0], where), _as_int(pair[1], where)
            if max(abs(x), abs(y)) >= COORD_LIMIT:
                raise ParameterError(f"{where}: |x| and |y| must be below 2^64")
            out_row.append((x, y))
        pairs.append(tuple(out_row))
    return EllipticArrangement(RingMatrix(curve, rows, cols, tuple(pairs)))


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


def _document_of(curve: CurveParams, matrix: RingMatrix) -> dict:
    return {
        "field": {"m": curve.field.m},
        "tau": {"a": curve.a, "b": curve.b, "c": curve.c},
        "matrix": {
            "rows": matrix.k,
            "cols": matrix.n,
            "entries": [[[x, y] for x, y in row] for row in matrix.entries],
        },
    }


def serialize_arrangement(arr: EllipticArrangement) -> str:
    """Canonical text form; stable byte-for-byte across runs."""
    return json.dumps(_document_of(arr.curve, arr.matrix), indent=2) + "\n"


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
    if k < 0 or n < 0:
        raise ParameterError("k and n must be non-negative")
    _check_size(k, n)
    if bound < 0:
        raise ParameterError("bound must be non-negative")
    if bound >= COORD_LIMIT:
        raise ParameterError("bound must be below 2^64")
    curve = make_curve(make_field(m), a, b, c)
    rng = random.Random(seed)
    pairs = tuple(
        tuple((rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n))
        for _ in range(k)
    )
    return EllipticArrangement(RingMatrix(curve, k, n, pairs))
