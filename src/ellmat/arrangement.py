"""Elliptic arrangements: a matrix over an order, tabulated by one echelon walk.

A k x n matrix A over R = End of the curve E defines k divisors in E^n,
the i-th being the kernel of the morphism given by row i.  For a subset S
of rows, the intersection of the corresponding divisors has

    rank(S)       = complex codimension = (integer rank of the selected
                    lattice expansion) / 2,
    multiplicity  = number of connected components (layers) = order of the
                    torsion of the cokernel of the selected expansion,

and its layers have dimension n - rank(S).

Subsets are bitmasks of width k, bit i standing for divisor i+1.

Tabulation is one depth-first echelon walk.  Each node of the walk is a
subset S; a child adds one divisor j beyond the last one added, so every
subset is visited once.  The walk carries an echelon basis of the row
lattice L(S) in Z^2n spanned by the selected expansion rows, and a step
inserts the two expansion rows of divisor j by unimodular extended-gcd
row operations.  The torsion of the cokernel depends on that lattice
alone, so:

- a full-rank basis (2n rows) has m(S) = |product of its pivots|, the
  index of L(S) in Z^2n, with no Smith form;
- a rank-deficient basis (fewer rows) gets a Smith form of at most 2n
  rows, as does every basis of index other than 1 for the torsion
  chains, which only `torsion_chains` computes.

Below a full-rank node of determinant D, inserted rows and the entries
right of each updated pivot are reduced mod D, pivots never (Domich,
Kannan & Trotter, Math. Oper. Res. 1987; Cohen, GTM 138, 2.4.2).  This is
sound because every later pivot divides the one it replaces, so their
product divides D and D Z^2n stays inside the new lattice.

`reports()` is the walk over all 2^k subsets, computed once.
`superset_reports(fixed)` walks the subsets containing `fixed`, whose
rows are inserted first as a shared prefix.  `order_basis_reports()`
walks the expansion over the R-basis {1, N*tau} instead, which gives the
same multiplicities from a different integer matrix.  `subset_report`
recomputes a single subset by its own Smith form; it is the slow path
the walk is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator

from .linalg import (
    IntMatrix,
    RingMatrix,
    conj_transpose,
    expand_lambda,
    expand_order,
    smith_form,
    vstack,
)
from .quadratic_order import ParameterError


@dataclass(frozen=True)
class SubsetReport:
    """Rank and multiplicity of one intersection."""

    subset: int
    rank: int
    multiplicity: int


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g, for a != 0."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (r0, s0, t0) if r0 > 0 else (-r0, -s0, -t0)


def _insert(basis: list, v: list[int], det: int) -> None:
    """Add the row v to the echelon basis, in place.

    basis[c] is the row whose first nonzero entry, its pivot, is in column
    c, or None.  Rows are replaced, never mutated, so a copied basis list
    shares them safely.  det > 0 is the determinant of a full-rank
    ancestor: entries are then reduced mod det, pivots excepted.
    """
    if det:
        v = [e % det for e in v]
    for c in range(len(v)):
        x = v[c]
        if not x:
            continue
        b = basis[c]
        if b is None:
            basis[c] = v
            return
        a = b[c]
        if x % a == 0:
            q = x // a
            v = [vi - q * bi for bi, vi in zip(b, v)]
        else:
            g, s, t = _xgcd(a, x)
            p, q = a // g, x // g
            row = [s * bi + t * vi for bi, vi in zip(b, v)]
            v = [p * vi - q * bi for bi, vi in zip(b, v)]
            if det:
                row[c + 1 :] = [e % det for e in row[c + 1 :]]
            basis[c] = row
        if det:
            v = [e % det for e in v]


class EllipticArrangement:
    """k divisors in E^n, with cached lattice expansion and subset table."""

    def __init__(self, matrix: RingMatrix):
        self.matrix = matrix
        self.curve = matrix.curve
        self._expansion_rows = expand_lambda(matrix).to_rows()
        self._table: tuple[SubsetReport, ...] | None = None

    @property
    def k(self) -> int:
        return self.matrix.k

    @property
    def n(self) -> int:
        return self.matrix.n

    def _check_subset(self, subset: int) -> None:
        if not 0 <= subset < 1 << self.k:
            raise ParameterError(
                f"subset {subset:#x} out of range for {self.k} divisors"
            )

    def _selected_expansion(self, subset: int) -> IntMatrix:
        idx = [i for i in range(self.k) if subset >> i & 1]
        rows = [self._expansion_rows[i] for i in idx]
        rows += [self._expansion_rows[self.k + i] for i in idx]
        return IntMatrix.from_rows(rows, cols=2 * self.n)

    def subset_report(self, subset: int) -> SubsetReport:
        """Rank and multiplicity of one subset, by its own Smith form."""
        self._check_subset(subset)
        snf = smith_form(self._selected_expansion(subset))
        if snf.rank % 2:
            raise AssertionError("lattice expansions of order maps have even rank")
        return SubsetReport(subset, snf.rank // 2, snf.torsion_order)

    def _walk(self, expansion: list, fixed: int = 0) -> Iterator[tuple[int, int, list, int]]:
        """The echelon walk of the 2k `expansion` rows over the subsets
        containing `fixed`.

        Yields (subset, narrow, rows, det) once per subset: `narrow` is the
        bitmask of the subset's divisors outside `fixed`, renumbered in
        ascending order; `rows` is an echelon basis of the selected row
        lattice; `det` is its index in Z^2n when it has full rank, else 0.
        """
        cols = 2 * self.n
        free = [j for j in range(self.k) if not fixed >> j & 1]

        def grow(basis: list, j: int, det: int) -> list:
            basis = basis.copy()
            _insert(basis, expansion[j], det)
            _insert(basis, expansion[self.k + j], det)
            return basis

        def rec(subset: int, narrow: int, start: int, basis: list) -> Iterator:
            rows = [b for b in basis if b is not None]
            if len(rows) % 2:
                raise AssertionError("lattice expansions of order maps have even rank")
            det = abs(prod(b[c] for c, b in enumerate(basis))) if len(rows) == cols else 0
            yield subset, narrow, rows, det
            for i in range(start, len(free)):
                j = free[i]
                yield from rec(subset | 1 << j, narrow | 1 << i, i + 1, grow(basis, j, det))

        root: list = [None] * cols
        for j in range(self.k):
            if fixed >> j & 1:
                root = grow(root, j, 0)
        return rec(fixed, 0, 0, root)

    def _tabulate(self, expansion: list[list[int]], fixed: int) -> tuple[SubsetReport, ...]:
        """`superset_reports(fixed)` computed from the 2k `expansion` rows."""
        cols = 2 * self.n
        out: list = [None] * (1 << (self.k - fixed.bit_count()))
        for subset, narrow, rows, det in self._walk(expansion, fixed):
            if rows and not det:
                det = smith_form(IntMatrix.from_rows(rows, cols=cols)).torsion_order
            # An empty basis, rank 0, has trivial torsion.
            out[narrow] = SubsetReport(subset, len(rows) // 2, det or 1)
        return tuple(out)

    def superset_reports(self, fixed: int) -> tuple[SubsetReport, ...]:
        """Reports of the subsets containing `fixed`, computed afresh.

        They come in the bitmask order of the divisors outside `fixed`, the
        order of the contraction by `fixed`.
        """
        self._check_subset(fixed)
        return self._tabulate(self._expansion_rows, fixed)

    def reports(self) -> tuple[SubsetReport, ...]:
        """All subset reports in ascending bitmask order, tabulated on first call."""
        if self._table is None:
            self._table = self.superset_reports(0)
        return self._table

    def order_basis_reports(self) -> tuple[SubsetReport, ...]:
        """All subset reports recomputed afresh by the walk of the R-basis
        expansion instead of the lattice expansion, in ascending bitmask order."""
        return self._tabulate(expand_order(self.matrix).to_rows(), 0)

    def torsion_chains(self) -> tuple[tuple[int, ...], ...]:
        """The invariant factors above 1 of each subset's cokernel torsion,
        in ascending bitmask order, computed afresh by the same walk."""
        chains: list = [()] * (1 << self.k)
        for subset, _, rows, det in self._walk(self._expansion_rows):
            # Index 1 means L(S) = Z^2n, whose cokernel has no torsion.
            if det != 1:
                chains[subset] = smith_form(
                    IntMatrix.from_rows(rows, cols=2 * self.n)
                ).torsion_invariants
        return tuple(chains)

    def __repr__(self) -> str:
        return f"EllipticArrangement(k={self.k}, n={self.n}, m={self.curve.field.m})"


def dual_arrangement(arr: EllipticArrangement) -> tuple[EllipticArrangement, int]:
    """The stacked arrangement realizing the dual matroid as a minor.

    Returns the arrangement of the (k+n) x k matrix (I_k over A^H), an
    arrangement of k+n divisors in E^k, together with the bitmask T of the
    n rows coming from A^H (the set to contract).  Torsion counts of the
    conjugate transpose match those of A, so the same curve parameters
    serve for the dual side.  Contracting the rows e_i, i in S, deletes the
    columns of divisor i, so S + T has the torsion order of the conjugate
    transpose of the rows E - S of A: one walk serves both cross-checks.
    """
    stacked = vstack(RingMatrix.identity(arr.curve, arr.k), conj_transpose(arr.matrix))
    t_mask = ((1 << arr.n) - 1) << arr.k
    return EllipticArrangement(stacked), t_mask
