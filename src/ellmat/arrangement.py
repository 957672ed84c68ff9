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
row operations (`linalg.echelon_insert`).  The torsion of the cokernel
depends on that lattice alone, and so does the rest of the subtree below
S, which sees L(S) only through the quotient Z^2n/L(S).

The walk shrinks that quotient to the columns that can still carry
something.  Let U be the columns of the unit pivots (+-1) of the basis
and N the other w columns.  Eliminating the columns of U in ascending
order, with the unit rows, takes each v in Z^2n to a vector on N
congruent to v mod L(S): the unit row of column u is zero left of u, so
a later elimination never refills an earlier column.  This map phi is
linear and onto Z^w, and its kernel is the span of the unit rows, so for
L(S) and for every lattice L above it

    Z^2n/L  =~  Z^w/phi(L),    rank L = |U| + rank phi(L),

where phi(L) is spanned by the images of the rows of L.  So at a node
with unit pivots and at least two divisors left, the walk carries the
other basis rows and the expansion rows still to insert to Z^w once, and
walks the subtree there; a node's rank counts the unit pivots projected
away.  Isomorphic quotients have the same torsion, so the multiplicities
and the invariant factors above 1 that `torsion_chains` reads are
unchanged.  Then, in the current coordinates:

- a full-rank basis (as many rows as columns) has m(S) = |product of its
  pivots|, the index of L(S), with no Smith form;
- a rank-deficient basis of r rows has m(S) = the index in Z^r of the
  lattice its columns span, with no Smith form; an empty one has m(S) = 1;
- only `torsion_chains` takes Smith forms, of every basis it measures.

Insertion never reduces; the projection is the walk's only reduction
(Hermite size reduction, Cohen, GTM 138, 2.4).  Each row it carries is
reduced modulo the basis at every pivot right of its own, a basis row by
the rows below it, so the basis stays echelon on the same pivots and
every row moves by a vector of L(S), which every lattice of the subtree
contains.  At full rank every column has a pivot, and each entry stays
within its column's pivot, at most the index D.

An arrangement is a NamedTuple of its matrix alone: by its type it never
changes, and equal matrices make equal, hashable arrangements.  Each walk
expands the rows it walks when it is called: an arrangement caches no
expansion and no table.  Every walk fills two tables of the subsets it
covers, the ranks and one measure of the torsion, both prefilled with the
values of index 1 (rank n, no torsion).  At index 1 the quotient is
trivial, so the walk stops at such a node without measuring it, and the
node and its subtree keep the prefill.  `reports(fixed)` walks the
subsets containing `fixed`, whose rows are inserted first as a shared
prefix, measuring the multiplicity; `reports()` covers all 2^k subsets in
ascending bitmask order, and its pair (rk, m) of int tuples is the shape
`ArithmeticMatroid` takes.  The cokernel cross-check of `matroid` calls it on sigma(A)*W
over the curve C/R of `quadratic_order.order_curve`, whose lattice is R itself.
`torsion_chains()` is the walk of `reports()` measuring the invariant
factors above 1 of every subset, m(S) being their product.
A walk over more than MAX_GROUND free divisors is refused when it is
called, before its rows are expanded.
"""

from math import prod
from typing import Callable, NamedTuple

from .linalg import RingMatrix, conjugate, echelon_basis, echelon_insert, expand_lambda, smith_form
from .quadratic_order import CurveParams, ParameterError, as_int

# The rank and the multiplicity tables of a run of subsets.
Tables = tuple[tuple[int, ...], tuple[int, ...]]

# The tables have 2^k entries and every verifier is exhaustive, so walks
# over larger ground sets are refused.
MAX_GROUND = 20


def _project(basis: list, pairs: list) -> tuple[list, list]:
    """The echelon `basis` and the row `pairs` still to insert, reduced
    modulo the basis and carried to Z^w, w the number of columns without a
    unit pivot; both unchanged when no pivot is a unit.

    Rows are reduced at each pivot right of their own, in ascending column
    order, by q = v[c] // pivot; basis rows bottom up, each by the rows
    below it.  A unit pivot zeroes its column, dropped with its row, so
    the unit rows need no reduction themselves.
    """
    keep = [c for c, b in enumerate(basis) if b is None or b[c] not in (1, -1)]
    if len(keep) == len(basis):
        return basis, pairs
    # The (column, row) of the basis rows below the one being reduced.
    below: list = []

    def reduce(v: list[int]) -> list[int]:
        for c, b in below:
            q = v[c] // b[c]
            if q:
                v = [vi - q * bi for vi, bi in zip(v, b)]
        return v

    for c in reversed(range(len(basis))):
        b = basis[c]
        if b is not None:
            below.insert(0, (c, b if b[c] in (1, -1) else reduce(b)))
    rows = dict(below)

    def cut(v: list[int]) -> list[int]:
        return [v[c] for c in keep]

    projected = [None if basis[c] is None else cut(rows[c]) for c in keep]
    return projected, [(cut(reduce(top)), cut(reduce(bottom))) for top, bottom in pairs]


def _column_index(rows: list) -> int:
    """The index in Z^r of the lattice spanned by the columns of r echelon
    `rows`: the order of the torsion of Z^w modulo their row lattice."""
    # Bottom row first, the column of each row's pivot fills an empty slot.
    columns = echelon_basis(zip(*reversed(rows)), len(rows))
    return abs(prod(b[i] for i, b in enumerate(columns)))


def _multiplicity(rows: list, det: int) -> int:
    """m of a walked node: its index at full rank, else the index of the
    column lattice of its basis."""
    return det or _column_index(rows)


def _chain(rows: list, det: int) -> tuple[int, ...]:
    """The invariant factors above 1 of a walked node's cokernel torsion."""
    return tuple(d for d in smith_form(rows) if d > 1)


class EllipticArrangement(NamedTuple):
    """k divisors in E^n, held as their matrix only; each walk expands the
    rows it walks and fills its tables afresh, index-1 subtrees prefilled."""

    matrix: RingMatrix

    @property
    def curve(self) -> CurveParams:
        return self.matrix.curve

    @property
    def k(self) -> int:
        return self.matrix.k

    @property
    def n(self) -> int:
        return self.matrix.n

    def _walk(self, fixed: int, measure: Callable) -> tuple[tuple, tuple]:
        """The rank table and the `measure` table of the subsets containing
        `fixed`, from one echelon walk of the 2k rows of `expand_lambda`.

        Entry `narrow` is the subset whose divisors outside `fixed` are the
        bits of `narrow`, renumbered in ascending order, so the subset itself
        when `fixed` is 0.  Each visited node gets measure(rows, det): `rows`
        is an echelon basis of its row lattice in Z^2n or, below a projected
        node, of the image of that lattice in the node's quotient coordinates
        Z^w; `det` is the lattice's index when it has full rank n, else 0.
        A node of index 1 is not measured: it and its subtree keep the
        prefill, rank n and measure([], 1), the one call to see det == 1.
        """
        n, k = self.n, self.k
        free = k - fixed.bit_count()
        if free > MAX_GROUND:
            raise ParameterError(f"ground set of {free} elements exceeds the cap of {MAX_GROUND}")
        expansion = expand_lambda(self.matrix)
        # The bits of `fixed`, read once: a shift per bit would cost O(k^2).
        inside = f"{fixed:0{k}b}"[::-1]
        pairs = [(expansion[j], expansion[k + j]) for j in range(k) if inside[j] == "0"]
        rk, values = [n] * (1 << free), [measure([], 1)] * (1 << free)

        def rec(narrow: int, bit: int, basis: list, pairs: list) -> None:
            rows = [b for b in basis if b is not None]
            # Every column projected away held a unit pivot.
            rank2 = 2 * n - len(basis) + len(rows)
            if rank2 % 2:
                raise AssertionError("lattice expansions of order maps have even rank")
            det = abs(prod(b[c] for c, b in enumerate(basis))) if rank2 == 2 * n else 0
            if det == 1:
                # The quotient is trivial here and at every superset, which
                # keep the prefill.
                return
            rk[narrow], values[narrow] = rank2 // 2, measure(rows, det)
            if len(pairs) >= 2:
                basis, pairs = _project(basis, pairs)
            for i, (top, bottom) in enumerate(pairs):
                child = basis.copy()
                echelon_insert(child, top)
                echelon_insert(child, bottom)
                rec(narrow | 1 << bit + i, bit + i + 1, child, pairs[i + 1 :])

        fixed_rows = (expansion[j + h] for j in range(k) if inside[j] == "1" for h in (0, k))
        rec(0, 0, echelon_basis(fixed_rows, 2 * n), pairs)
        return tuple(rk), tuple(values)

    def reports(self, fixed: int = 0) -> Tables:
        """The (rk, m) tables of the subsets containing `fixed`, all subsets
        by default, computed afresh.

        They come in the bitmask order of the divisors outside `fixed`, the
        order of the contraction by `fixed`.
        """
        if not 0 <= as_int(fixed, "fixed") < 1 << self.k:
            raise ParameterError(f"subset {fixed:#x} out of range for {self.k} divisors")
        return self._walk(fixed, _multiplicity)

    def torsion_chains(self) -> tuple[Tables, tuple[tuple[int, ...], ...]]:
        """The (rk, m) tables of `reports()` and the invariant factors above 1
        of each subset's cokernel torsion, in ascending bitmask order, from
        one walk; m(S) is the product of the factors of S."""
        rk, chains = self._walk(0, _chain)
        return (rk, tuple(map(prod, chains))), chains

    def __repr__(self) -> str:
        return f"EllipticArrangement(k={self.k}, n={self.n}, m={self.curve.field.m})"


def dual_arrangement(arr: EllipticArrangement) -> tuple[EllipticArrangement, int]:
    """The stacked arrangement realizing the dual matroid as a minor.

    Returns the arrangement of the (k+n) x k matrix (I_k over A^H), an
    arrangement of k+n divisors in E^k, together with the bitmask T of the
    n rows coming from A^H (the set to contract).  Row j of A^H is column
    j of A conjugated (`linalg.conjugate`).  Torsion counts of the conjugate
    transpose match those of A, so the same curve parameters serve for the
    dual side.  Contracting the rows e_i, i in S, deletes the columns of
    divisor i, so S + T has the torsion order of the conjugate transpose
    of the rows E - S of A: the dual check reads one walk of it.
    """
    k, n = arr.k, arr.n
    units = [[(1 if i == j else 0, 0) for j in range(k)] for i in range(k)]
    # The rows of A^H are the columns of sigma(A); with k = 0 there is nothing to zip.
    rows = units + (list(zip(*conjugate(arr.matrix))) or [()] * n)
    return EllipticArrangement(RingMatrix(arr.curve, k, rows)), ((1 << n) - 1) << k
