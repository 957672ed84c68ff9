"""Exact integer linear algebra: Smith normal form and order-matrix expansions.

A k x n matrix A over the order R = <1, w>, w = N*tau, acts Z-linearly both
on powers of the lattice L = <1, tau> and on powers of R itself.  Writing
A = X + Y*w with integer matrices X and Y, and abbreviating s = trace(w)
and d = delta_prime (so norm(w) = N*d), the two actions have block forms

    on L-coordinates:  [[X, -Y*d ], [Y*N, X + Y*s]]
    on R-coordinates:  [[X, -Y*d*N], [Y,  X + Y*s]]

Rows and columns are blocked: all first coordinates precede all second
coordinates, each block in ascending original index order.  An entry of A
is a plain (x, y) pair of ints meaning x + y*w, and integer matrices are
plain lists of rows, so the expansions, the echelon bases of `arrangement`
and the Smith form all share one shape.

Smith normal form is computed by elimination with the smallest-magnitude
pivot, entirely over Python integers.  Matrices here stay small: the
subset walk of `arrangement` hands it echelon bases of at most 2n rows.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .quadratic_order import CurveParams, ParameterError


def smith_form(matrix: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_r of the integer row list
    `matrix`, a map Z^cols -> Z^rows of rank r = len(result); the rows are
    copied, never changed.

    Repeatedly moves the smallest nonzero entry of the trailing block into
    pivot position, clears its column and then its row by exact or
    Euclidean steps, and folds any entry the pivot does not divide back
    into the pivot row, so the diagonal comes out as a divisibility chain
    directly.  Once the column is clear a column step changes the pivot
    row alone, and a unit pivot, dividing everything, skips the fold.
    """
    a = [list(r) for r in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    factors: list[int] = []
    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Smallest-magnitude nonzero entry of the trailing block.
        best = 0
        pi = pj = -1
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                v = ai[j]
                if v != 0:
                    if v < 0:
                        v = -v
                    if best == 0 or v < best:
                        best, pi, pj = v, i, j
                        if best == 1:
                            break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]

        p = a[t][t]
        rt = a[t]
        clean = True
        for i in range(t + 1, rows):
            ri = a[i]
            v = ri[t]
            if v:
                q = v // p
                if q:
                    for j in range(t, cols):
                        ri[j] -= q * rt[j]
                if ri[t]:
                    clean = False
        if not clean:
            continue
        # Column t is clear below the pivot, so column steps touch row t alone.
        for j in range(t + 1, cols):
            if rt[j]:
                rt[j] %= p
                if rt[j]:
                    clean = False
        if not clean:
            continue

        # Pivot row and column are clear; make the pivot divide the rest by
        # adding a row it does not divide to row t.  A unit pivot divides all.
        if p != 1 and p != -1:
            ri = next((r for r in a[t + 1 :] if any(v % p for v in r[t + 1 :])), None)
            if ri is not None:
                rt[t:] = [x + y for x, y in zip(rt[t:], ri[t:])]
                continue
        factors.append(p if p > 0 else -p)
        t += 1
    return tuple(factors)


class _Matrix(NamedTuple):
    curve: CurveParams
    k: int
    n: int
    entries: tuple[tuple[tuple[int, int], ...], ...]


# A NamedTuple body may not define __new__: a subclass checks there and in _make, for _replace.
class RingMatrix(_Matrix):
    """k x n matrix over the order R of `curve`; entry (x, y) is x + y*N*tau."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, curve: CurveParams, k: int, n: int, entries: tuple) -> "RingMatrix":
        if len(entries) != k:
            raise ParameterError("row count mismatch")
        if any(len(row) != n for row in entries):
            raise ParameterError("column count mismatch")
        return super().__new__(cls, curve, k, n, entries)

    @classmethod
    def from_pairs(
        cls, curve: CurveParams, pairs: Iterable[Iterable[tuple[int, int]]]
    ) -> "RingMatrix":
        """Build from rows of (x, y) coordinate pairs over the basis {1, N*tau}."""
        rows = tuple(tuple((int(x), int(y)) for x, y in row) for row in pairs)
        return cls(curve, len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, curve: CurveParams, k: int) -> "RingMatrix":
        rows = tuple(
            tuple((1 if i == j else 0, 0) for j in range(k)) for i in range(k)
        )
        return cls(curve, k, k, rows)


def _expand(a: RingMatrix, low: int, high: int) -> list[list[int]]:
    """The 2k rows [[X, -Y*d*high], [Y*low, X + Y*s]] with low*high = N."""
    cv = a.curve
    s = cv.gen_trace
    dh = cv.delta_prime * high
    top = [[x for x, _ in row] + [-dh * y for _, y in row] for row in a.entries]
    bottom = [[low * y for _, y in row] + [x + s * y for x, y in row] for row in a.entries]
    return top + bottom


def expand_lambda(a: RingMatrix) -> list[list[int]]:
    """The 2k integer rows, of length 2n, of A acting on <1, tau>-coordinates."""
    return _expand(a, a.curve.N, 1)


def expand_order(a: RingMatrix) -> list[list[int]]:
    """The 2k integer rows, of length 2n, of A acting on <1, N*tau>-coordinates."""
    return _expand(a, 1, a.curve.N)


def conj_transpose(a: RingMatrix) -> RingMatrix:
    """Entrywise conjugate of the transpose; involutive."""
    s = a.curve.gen_trace
    # The conjugate of w = N*tau is gen_trace - w, so x + y*w maps to (x + s*y) - y*w.
    conj = [[(x + s * y, -y) for x, y in row] for row in a.entries]
    rows = tuple(tuple(row[j] for row in conj) for j in range(a.n))
    return RingMatrix(a.curve, a.n, a.k, rows)


def row_select(a: RingMatrix, indices: Iterable[int]) -> RingMatrix:
    """Submatrix of the rows in `indices` (0-based), ascending."""
    picked = sorted(set(indices))
    for i in picked:
        if not 0 <= i < a.k:
            raise ParameterError(f"row index {i} out of range for {a.k} rows")
    rows = tuple(a.entries[i] for i in picked)
    return RingMatrix(a.curve, len(picked), a.n, rows)
