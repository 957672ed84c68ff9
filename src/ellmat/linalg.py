"""Exact integer linear algebra: Smith normal form and order-matrix expansions.

A k x n matrix A over the order R = <1, w>, w = N*tau, acts Z-linearly both
on powers of the lattice L = <1, tau> and on powers of R itself.  Writing
A = X + Y*w with integer matrices X and Y, and abbreviating s = trace(w)
and d = delta_prime (so norm(w) = N*d), the two actions have block forms

    on L-coordinates:  [[X, -Y*d ], [Y*N, X + Y*s]]
    on R-coordinates:  [[X, -Y*d*N], [Y,  X + Y*s]]

Rows and columns are blocked: all first coordinates precede all second
coordinates, each block in ascending original index order.

Smith normal form is computed by elimination with the smallest-magnitude
pivot, entirely over Python integers.  Matrices here stay small: the
subset walk of `arrangement` hands it echelon bases of at most 2n rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .quadratic_order import CurveParams, ParameterError, RingElement


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary precision entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ParameterError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ParameterError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in data]
        if rows:
            width = len(rows[0])
        else:
            width = 0 if cols is None else cols
        flat: list[int] = []
        for r in rows:
            if len(r) != width:
                raise ParameterError("ragged rows")
            flat.extend(r)
        return cls(len(rows), width, tuple(flat))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


@dataclass(frozen=True)
class SmithForm:
    """Invariant factor decomposition d_1 | d_2 | ... | d_rank."""

    rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.invariant_factors) != self.rank:
            raise ParameterError("rank must equal the number of invariant factors")
        prev = None
        for d in self.invariant_factors:
            if d < 1:
                raise ParameterError("invariant factors must be positive")
            if prev is not None and d % prev != 0:
                raise ParameterError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def torsion_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def torsion_invariants(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)


def smith_form(matrix: IntMatrix) -> SmithForm:
    """Smith normal form of `matrix` as a map Z^cols -> Z^rows.

    Repeatedly moves the smallest nonzero entry of the trailing block into
    pivot position, clears its column and then its row by exact or
    Euclidean steps, and folds any entry the pivot does not divide back
    into the pivot row, so the diagonal comes out as a divisibility chain
    directly.  Once the column is clear a column step changes the pivot
    row alone, and a unit pivot, dividing everything, skips the fold.
    """
    rows, cols = matrix.rows, matrix.cols
    a = matrix.to_rows()
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
    return SmithForm(rank=len(factors), invariant_factors=tuple(factors))


def torsion_order(matrix: IntMatrix) -> int:
    """Order of the torsion subgroup of coker(matrix): the product of the
    invariant factors, equivalently the gcd of all rank-sized minors."""
    return smith_form(matrix).torsion_order


@dataclass(frozen=True)
class RingMatrix:
    """k x n matrix of order elements, all over one curve."""

    curve: CurveParams
    k: int
    n: int
    entries: tuple[tuple[RingElement, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.k:
            raise ParameterError("row count mismatch")
        for row in self.entries:
            if len(row) != self.n:
                raise ParameterError("column count mismatch")
            for e in row:
                if e.curve != self.curve:
                    raise ParameterError("matrix entries live over different curves")

    @classmethod
    def from_pairs(
        cls, curve: CurveParams, pairs: Iterable[Iterable[tuple[int, int]]], cols: int | None = None
    ) -> "RingMatrix":
        """Build from rows of (x, y) coordinate pairs over the basis {1, N*tau}."""
        rows = [
            tuple(RingElement(curve, int(x), int(y)) for x, y in row) for row in pairs
        ]
        if rows:
            width = len(rows[0])
        else:
            width = 0 if cols is None else cols
        return cls(curve, len(rows), width, tuple(rows))

    @classmethod
    def identity(cls, curve: CurveParams, k: int) -> "RingMatrix":
        rows = tuple(
            tuple(RingElement(curve, 1 if i == j else 0, 0) for j in range(k))
            for i in range(k)
        )
        return cls(curve, k, k, rows)

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]


def expand_lambda(a: RingMatrix) -> IntMatrix:
    """2k x 2n integer matrix of A acting on <1, tau>-coordinates."""
    cv = a.curve
    s = cv.gen_trace
    d = cv.delta_prime
    big_n = cv.N
    top = [
        [e.x for e in row] + [-d * e.y for e in row] for row in a.entries
    ]
    bottom = [
        [big_n * e.y for e in row] + [e.x + s * e.y for e in row] for row in a.entries
    ]
    return IntMatrix.from_rows(top + bottom, cols=2 * a.n)


def expand_order(a: RingMatrix) -> IntMatrix:
    """2k x 2n integer matrix of A acting on <1, N*tau>-coordinates."""
    cv = a.curve
    s = cv.gen_trace
    dn = cv.delta_prime * cv.N
    top = [
        [e.x for e in row] + [-dn * e.y for e in row] for row in a.entries
    ]
    bottom = [
        [e.y for e in row] + [e.x + s * e.y for e in row] for row in a.entries
    ]
    return IntMatrix.from_rows(top + bottom, cols=2 * a.n)


def conj_transpose(a: RingMatrix) -> RingMatrix:
    """Entrywise conjugate of the transpose; involutive."""
    rows = tuple(
        tuple(a.entry(i, j).conj() for i in range(a.k)) for j in range(a.n)
    )
    return RingMatrix(a.curve, a.n, a.k, rows)


def row_select(a: RingMatrix, indices: Iterable[int]) -> RingMatrix:
    """Submatrix of the rows in `indices` (0-based), ascending."""
    picked = sorted(set(indices))
    for i in picked:
        if not 0 <= i < a.k:
            raise ParameterError(f"row index {i} out of range for {a.k} rows")
    rows = tuple(a.entries[i] for i in picked)
    return RingMatrix(a.curve, len(picked), a.n, rows)


def vstack(top: RingMatrix, bottom: RingMatrix) -> RingMatrix:
    """Stack two matrices with equal column count over the same curve."""
    if top.curve != bottom.curve:
        raise ParameterError("stacked matrices live over different curves")
    if top.n != bottom.n:
        raise ParameterError("stacked matrices must have equal column counts")
    return RingMatrix(top.curve, top.k + bottom.k, top.n, top.entries + bottom.entries)
