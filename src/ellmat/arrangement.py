"""Elliptic arrangements: a matrix over an order, queried subset by subset.

A k x n matrix A over R = End of the curve E defines k divisors in E^n,
the i-th being the kernel of the morphism given by row i.  For a subset S
of rows, the intersection of the corresponding divisors has

    rank(S)       = complex codimension = (integer rank of the selected
                    lattice expansion) / 2,
    multiplicity  = number of connected components (layers) = order of the
                    torsion of the cokernel of the selected expansion,
    layer dim     = n - rank(S).

Subsets are bitmasks of width k, bit i standing for divisor i+1.
`reports()` tabulates all 2^k subsets once and is the table every caller
reads; `subset_report` recomputes a single subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    IntMatrix,
    RingMatrix,
    conj_transpose,
    expand_lambda,
    expand_order,
    row_select,
    smith_form,
    torsion_order,
    vstack,
)
from .quadratic_order import ParameterError


@dataclass(frozen=True)
class SubsetReport:
    """Rank, multiplicity and torsion data of one intersection."""

    subset: int
    rank: int
    multiplicity: int
    layer_dim: int
    torsion_invariants: tuple[int, ...]


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
        """Rank, multiplicity and torsion of one subset, computed afresh."""
        self._check_subset(subset)
        snf = smith_form(self._selected_expansion(subset))
        if snf.rank % 2:
            raise AssertionError("lattice expansions of order maps have even rank")
        rank = snf.rank // 2
        return SubsetReport(
            subset=subset,
            rank=rank,
            multiplicity=snf.torsion_order,
            layer_dim=self.n - rank,
            torsion_invariants=snf.torsion_invariants,
        )

    def reports(self) -> tuple[SubsetReport, ...]:
        """All subset reports in ascending bitmask order, tabulated on first call."""
        if self._table is None:
            self._table = tuple(self.subset_report(s) for s in range(1 << self.k))
        return self._table

    def __repr__(self) -> str:
        return f"EllipticArrangement(k={self.k}, n={self.n}, m={self.curve.field.m})"


def _selected_matrix(arr: EllipticArrangement, subset: int) -> RingMatrix:
    arr._check_subset(subset)
    return row_select(arr.matrix, [i for i in range(arr.k) if subset >> i & 1])


def multiplicity_via_order_basis(arr: EllipticArrangement, subset: int) -> int:
    """Multiplicity recomputed from the R-basis expansion of the selected rows."""
    return torsion_order(expand_order(_selected_matrix(arr, subset)))


def multiplicity_via_conj_transpose(arr: EllipticArrangement, subset: int) -> int:
    """Multiplicity recomputed from the conjugate transpose of the selected rows."""
    return torsion_order(expand_lambda(conj_transpose(_selected_matrix(arr, subset))))


def dual_arrangement(arr: EllipticArrangement) -> tuple[EllipticArrangement, int]:
    """The stacked arrangement realizing the dual matroid as a minor.

    Returns the arrangement of the (k+n) x k matrix (I_k over A^H), an
    arrangement of k+n divisors in E^k, together with the bitmask of the
    n rows coming from A^H (the set to contract).  Torsion counts of the
    conjugate transpose match those of A, so the same curve parameters
    serve for the dual side.
    """
    stacked = vstack(RingMatrix.identity(arr.curve, arr.k), conj_transpose(arr.matrix))
    t_mask = ((1 << arr.n) - 1) << arr.k
    return EllipticArrangement(stacked), t_mask
