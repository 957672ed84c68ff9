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
alone, and so does the rest of the subtree below S, which sees L(S)
only through the quotient Z^2n/L(S).

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
- a rank-deficient basis gets a Smith form of its at most 2n rows, as
  does every basis of index other than 1 for the torsion chains, which
  only `torsion_chains` computes; an empty one has m(S) = 1.

Below a full-rank node of index D, inserted rows and the entries right
of each updated pivot are reduced mod D, pivots never (Domich, Kannan &
Trotter, Math. Oper. Res. 1987; Cohen, GTM 138, 2.4.2).  This is sound
because every later pivot divides the one it replaces, so their product
divides D and D Z^w stays inside the new lattice.  A projection at such
a node keeps its t non-unit pivot columns and may reduce mod D too:
phi(L(S)) has index D in Z^t, so it contains D Z^t, and the images of
the non-unit rows, still triangular on the same pivots, span it also
after their other entries are reduced mod D.  The pivots are kept, since
one can be D itself.  At D = 1 the quotient is trivial, and every subset
of the subtree has rank n and multiplicity 1 with no arithmetic at all.

Every walk returns the pair (rk, m) of int tuples, the rank and the
multiplicity of each subset it visits, the shape `ArithmeticMatroid`
takes, and computes it afresh on every call: an arrangement caches no
table and never changes.  `reports()` is the walk over all 2^k subsets in
ascending bitmask order.  `superset_reports(fixed)` walks the subsets
containing `fixed`, whose rows are inserted first as a shared prefix.
`order_basis_reports()` walks the expansion over the R-basis {1, N*tau}
instead, which gives the same multiplicities from a different integer
matrix.  `torsion_chains()` is the walk of `reports()` that also keeps
the invariant factors above 1 of every subset, m(S) being their product.
A walk over more than MAX_GROUND free divisors is refused when it is
called, before any insertion.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Iterator

from .linalg import (
    RingMatrix,
    conj_transpose,
    expand_lambda,
    expand_order,
    smith_form,
    vstack,
)
from .quadratic_order import ParameterError

# The rank and the multiplicity tables of a run of subsets.
Tables = tuple[tuple[int, ...], tuple[int, ...]]

# The tables have 2^k entries and every verifier is exhaustive, so walks
# over larger ground sets are refused.
MAX_GROUND = 20


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g, for a not dividing b."""
    g = gcd(a, b)
    # a does not divide b, so |a/g| >= 2 and b/g is invertible modulo it.
    t = pow(b // g, -1, abs(a // g))
    return g, (g - t * b) // a, t


def _insert(basis: list, v: list[int], det: int) -> None:
    """Add the row v to the echelon basis, in place.

    basis[c] is the row whose first nonzero entry, its pivot, is in column
    c, or None.  Rows are replaced, never mutated, so a copied basis list
    shares them safely.  det > 0 is the index of the full-rank lattice the
    basis spans: entries are then reduced mod det, pivots excepted.
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


def _project(basis: list, pairs: list, det: int) -> tuple[list, list]:
    """The echelon `basis` and the row `pairs` still to insert, carried to
    Z^w, w the number of columns without a unit pivot.

    The unit-pivot columns are eliminated in ascending order, from the other
    basis rows and from the pairs, and the other w columns are kept, mod det
    when det > 0 is the index of a full-rank basis.  The pivots themselves
    are restored, since one can equal det.
    """
    units = [(c, b) for c, b in enumerate(basis) if b is not None and b[c] in (1, -1)]
    keep = [c for c, b in enumerate(basis) if b is None or b[c] not in (1, -1)]

    def project(v: list[int]) -> list[int]:
        for c, b in units:
            if v[c]:
                q = v[c] * b[c]
                v = [vi - q * bi for vi, bi in zip(v, b)]
        return [v[c] % det for c in keep] if det else [v[c] for c in keep]

    projected: list = []
    for i, c in enumerate(keep):
        b = basis[c]
        if b is not None:
            row = project(b)
            row[i] = b[c]
            b = row
        projected.append(b)
    return projected, [(project(top), project(bottom)) for top, bottom in pairs]


class EllipticArrangement:
    """k divisors in E^n with their lattice expansion; every table is walked afresh."""

    def __init__(self, matrix: RingMatrix):
        self.matrix = matrix
        self.curve = matrix.curve
        self._expansion_rows = expand_lambda(matrix)

    @property
    def k(self) -> int:
        return self.matrix.k

    @property
    def n(self) -> int:
        return self.matrix.n

    def _walk(self, expansion: list, fixed: int = 0) -> Iterator[tuple[int, int, list, int]]:
        """The echelon walk of the 2k `expansion` rows over the subsets
        containing `fixed`.

        Yields (narrow, rk, rows, det) once per subset: `narrow` is the
        bitmask of the subset's divisors outside `fixed`, renumbered in
        ascending order, so the subset itself when `fixed` is 0; `rk` is its
        rank; `rows` is an echelon basis of its row lattice in Z^2n or, below
        a projected node, of the image of that lattice in the node's quotient
        coordinates Z^w, so it can have fewer than 2*rk rows; `det` is the
        lattice's index when it has full rank n, else 0.
        """
        n, k = self.n, self.k
        free = k - fixed.bit_count()
        if free > MAX_GROUND:
            raise ParameterError(f"ground set of {free} elements exceeds the cap of {MAX_GROUND}")
        pairs = [(expansion[j], expansion[k + j]) for j in range(k) if not fixed >> j & 1]

        def rec(narrow: int, bit: int, basis: list, pairs: list) -> Iterator:
            rows = [b for b in basis if b is not None]
            # Every column projected away held a unit pivot.
            rank2 = 2 * n - len(basis) + len(rows)
            if rank2 % 2:
                raise AssertionError("lattice expansions of order maps have even rank")
            det = abs(prod(b[c] for c, b in enumerate(basis))) if rank2 == 2 * n else 0
            yield narrow, rank2 // 2, rows, det
            if det == 1:
                # The quotient is trivial here, so it is at every superset.
                for sub in range(1, 1 << len(pairs)):
                    yield narrow | sub << bit, n, [], 1
                return
            if len(pairs) >= 2 and any(
                b is not None and b[c] in (1, -1) for c, b in enumerate(basis)
            ):
                basis, pairs = _project(basis, pairs, det)
            for i, (top, bottom) in enumerate(pairs):
                child = basis.copy()
                _insert(child, top, det)
                _insert(child, bottom, det)
                yield from rec(narrow | 1 << bit + i, bit + i + 1, child, pairs[i + 1 :])

        root: list = [None] * (2 * n)
        for j in range(k):
            if fixed >> j & 1:
                _insert(root, expansion[j], 0)
                _insert(root, expansion[k + j], 0)
        return rec(0, 0, root, pairs)

    def _tabulate(self, expansion: list[list[int]], fixed: int) -> Tables:
        """`superset_reports(fixed)` computed from the 2k `expansion` rows."""
        # The call checks the cap before the tables are allocated.
        walk = self._walk(expansion, fixed)
        size = 1 << (self.k - fixed.bit_count())
        rk, m = [0] * size, [1] * size
        for narrow, r, rows, det in walk:
            if rows and not det:
                det = prod(smith_form(rows).invariant_factors)
            # An empty basis leaves a free quotient, without torsion.
            rk[narrow], m[narrow] = r, det or 1
        return tuple(rk), tuple(m)

    def superset_reports(self, fixed: int) -> Tables:
        """The (rk, m) tables of the subsets containing `fixed`, computed afresh.

        They come in the bitmask order of the divisors outside `fixed`, the
        order of the contraction by `fixed`.
        """
        if not 0 <= fixed < 1 << self.k:
            raise ParameterError(f"subset {fixed:#x} out of range for {self.k} divisors")
        return self._tabulate(self._expansion_rows, fixed)

    def reports(self) -> Tables:
        """The (rk, m) tables of all subsets in ascending bitmask order."""
        return self.superset_reports(0)

    def order_basis_reports(self) -> Tables:
        """The (rk, m) tables of all subsets recomputed afresh by the walk of
        the R-basis expansion instead of the lattice expansion, in ascending
        bitmask order."""
        return self._tabulate(expand_order(self.matrix), 0)

    def torsion_chains(self) -> tuple[Tables, tuple[tuple[int, ...], ...]]:
        """The (rk, m) tables of `reports()` and the invariant factors above 1
        of each subset's cokernel torsion, in ascending bitmask order, from
        one walk; m(S) is the product of the factors of S."""
        walk = self._walk(self._expansion_rows)
        rk, chains = [0] * (1 << self.k), [()] * (1 << self.k)
        for subset, r, rows, det in walk:
            rk[subset] = r
            # Index 1 means L(S) = Z^2n, whose cokernel has no torsion.
            if det != 1:
                chains[subset] = smith_form(rows).torsion_invariants
        return (tuple(rk), tuple(map(prod, chains))), tuple(chains)

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
