"""Shared fixtures for the test suite: reference curves, seeded corpora,
and oracles that stay independent of the code paths they check."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, gcd, isqrt, prod
from typing import NamedTuple

from ellmat import (
    EllipticArrangement,
    FieldParams,
    ParameterError,
    RingMatrix,
    Violation,
    expand_lambda,
    format_subset,
    make_curve,
    make_field,
    row_select,
    smith_form,
)
from ellmat.matroid import bit_indices, submasks
from ellmat.quadratic_order import order_curve


def curve_sqrt3():
    """tau = sqrt(-3): N = 1, conductor 2."""
    return make_curve(make_field(3), -1, 2, 1)


def curve_omega3():
    """tau = (1 + sqrt(-3))/2: the maximal order Z[omega]."""
    return make_curve(make_field(3), 0, 1, 1)


def curve_half_i():
    """tau = i/2: N = 4, ring <1, 2i>."""
    return make_curve(make_field(1), 0, 1, 2)


def curve_third_sqrt2():
    """tau = sqrt(-2)/3: N = 9, ring <1, 3*sqrt(-2)>."""
    return make_curve(make_field(2), 0, 1, 3)


def curve_gauss():
    """tau = i: the maximal order Z[i]."""
    return make_curve(make_field(1), 0, 1, 1)


def new_realization_sqrt3() -> EllipticArrangement:
    """Column (2; 1 + sqrt(-3)) over Z[sqrt(-3)]: multiplicities 1, 4, 4, 2."""
    return EllipticArrangement(RingMatrix(curve_sqrt3(), 1, [[(2, 0)], [(1, 1)]]))


def new_realization_omega() -> EllipticArrangement:
    """Same column over Z[omega] (1 + sqrt(-3) = 2*omega): multiplicities 1, 4, 4, 4."""
    return EllipticArrangement(RingMatrix(curve_omega3(), 1, [[(2, 0)], [(0, 2)]]))


FIXTURE_SQRT3_DOC = {
    "field": {"m": 3},
    "tau": {"a": -1, "b": 2, "c": 1},
    "matrix": {"rows": 2, "cols": 1, "entries": [[[2, 0]], [[1, 1]]]},
}

FIXTURE_OMEGA_DOC = {
    "field": {"m": 3},
    "tau": {"a": 0, "b": 1, "c": 1},
    "matrix": {"rows": 2, "cols": 1, "entries": [[[2, 0]], [[0, 2]]]},
}


def random_ring_matrix(rng: random.Random, curve, k: int, n: int, bound: int) -> RingMatrix:
    pairs = [
        [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n)]
        for _ in range(k)
    ]
    return RingMatrix(curve, n, pairs)


@lru_cache(maxsize=None)
def matrix_corpus(count: int = 500, seed: int = 71) -> tuple[RingMatrix, ...]:
    """Seeded matrices, k and n up to 4, entries in [-5, 5], N in {1, 4, 9}."""
    rng = random.Random(seed)
    curves = (curve_sqrt3(), curve_half_i(), curve_third_sqrt2())
    out = []
    for idx in range(count):
        out.append(
            random_ring_matrix(rng, curves[idx % 3], rng.randint(1, 4), rng.randint(1, 4), 5)
        )
    return tuple(out)


@lru_cache(maxsize=None)
def arrangement_corpus(count: int = 200, seed: int = 72) -> tuple[EllipticArrangement, ...]:
    """Seeded arrangements, k up to 5, n up to 4, over five reference curves."""
    rng = random.Random(seed)
    curves = (
        curve_sqrt3(),
        curve_half_i(),
        curve_third_sqrt2(),
        curve_omega3(),
        curve_gauss(),
    )
    out = []
    for idx in range(count):
        out.append(
            random_ring_matrix(rng, curves[idx % 5], rng.randint(1, 5), rng.randint(1, 4), 3)
        )
    return tuple(EllipticArrangement(mat) for mat in out)


@lru_cache(maxsize=None)
def points_corpus(count: int = 50, seed: int = 73) -> tuple[EllipticArrangement, ...]:
    """Seeded essential arrangements with n = 1 and no zero rows."""
    rng = random.Random(seed)
    curves = (curve_sqrt3(), curve_half_i(), curve_third_sqrt2(), curve_omega3())
    out = []
    for idx in range(count):
        curve = curves[idx % 4]
        k = rng.randint(1, 5)
        pairs = []
        for _ in range(k):
            x = y = 0
            while x == 0 and y == 0:
                x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            pairs.append([(x, y)])
        out.append(EllipticArrangement(RingMatrix(curve, 1, pairs)))
    return tuple(out)


def xgcd_by_euclid(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g, for a != 0, by the
    extended Euclidean loop."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (r0, s0, t0) if r0 > 0 else (-r0, -s0, -t0)


def det_int(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination, every division
    exact; no gcd step, so it shares nothing with the library's elimination."""
    a = [list(r) for r in rows]
    size, sign, previous = len(a), 1, 1
    for t in range(size - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, size) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        p = a[t][t]
        for i in range(t + 1, size):
            ai, x = a[i], a[i][t]
            for j in range(t + 1, size):
                ai[j] = (ai[j] * p - x * a[t][j]) // previous
        previous = p
    return sign * a[-1][-1] if size else 1


def rank_int(rows: list[list[int]]) -> int:
    """Rank by fraction-free elimination: each entry after step t is a
    (t+1) x (t+1) minor, so the division by the previous pivot is exact."""
    a = [list(r) for r in rows]
    rank, previous = 0, 1
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, len(a)):
            x = a[i][c]
            a[i] = [(v * p - x * w) // previous for v, w in zip(a[i], top)]
        previous, rank = p, rank + 1
    return rank


def _minor_gcd(rows: list[list[int]], size: int) -> int:
    """D_size, the gcd of all size x size minors, 0 when all vanish."""
    g = 0
    for ri in combinations(rows, size):
        for ci in combinations(range(len(rows[0]) if rows else 0), size):
            g = gcd(g, det_int([[r[j] for j in ci] for r in ri]))
            if g == 1:
                # No gcd of nonzero integers is smaller.
                return 1
    return g


def minor_invariant_factors(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_i = D_i / D_(i-1), by exhaustive minor enumeration.

    The determinantal divisor D_i is the gcd of all i x i minors, D_0 = 1,
    and the nonzero ones stop at the rank.  This never touches the
    elimination code it is checking.
    """
    divisors = [1]
    for s in range(1, min(len(rows), len(rows[0]) if rows else 0) + 1):
        g = _minor_gcd(rows, s)
        if g == 0:
            break
        divisors.append(g)
    return tuple(d // prev for prev, d in zip(divisors, divisors[1:]))


def minor_rank_and_torsion(matrix: list[list[int]]) -> tuple[int, int]:
    """Rank r and D_r, the gcd of all r x r minors, which is the order of the
    torsion of the cokernel; the rank comes from `rank_int`, so only the
    minors of size r are enumerated."""
    rank = rank_int(matrix)
    return rank, _minor_gcd(matrix, rank)


def subset_report(arr: EllipticArrangement, subset: int) -> tuple[int, int]:
    """(rank, multiplicity) of one subset, by its own Smith form.

    The slow path the echelon walks of `EllipticArrangement` are tested
    against.
    """
    rows = [i for i in range(arr.k) if subset >> i & 1]
    factors = smith_form(expand_lambda(row_select(arr.matrix, rows)))
    if len(factors) % 2:
        raise AssertionError("lattice expansions of order maps have even rank")
    return len(factors) // 2, prod(factors)


def expand_order(a: RingMatrix) -> list[list[int]]:
    """The 2k integer rows [[X, -Y*d*N], [Y, X + Y*s]] of A acting on
    <1, N*tau>-coordinates, from the curve of A as it is.

    The formula the library's expansion of A over the curve C/R must
    equal; on an N = 1 curve it is the lattice expansion again.
    """
    cv = a.curve
    s, dn = cv.gen_trace, cv.delta_prime * cv.N
    top = [[x for x, _ in row] + [-dn * y for _, y in row] for row in a.entries]
    bottom = [[y for _, y in row] + [x + s * y for x, y in row] for row in a.entries]
    return top + bottom


def conj_transpose(a: RingMatrix) -> RingMatrix:
    """The entrywise conjugate of the transpose of A, an n x k matrix.

    The formula the A^H rows of `dual_arrangement` must equal: the
    conjugate of w = N*tau is gen_trace - w, so x + y*w maps to
    (x + gen_trace*y) - y*w.
    """
    s = a.curve.gen_trace
    rows = [[(x + s * y, -y) for x, y in (row[j] for row in a.entries)] for j in range(a.n)]
    return RingMatrix(a.curve, a.k, rows)


def over_order(arr: EllipticArrangement) -> EllipticArrangement:
    """The arrangement of A over the curve C/R, the one coker-xcheck walks."""
    return EllipticArrangement(arr.matrix._replace(curve=order_curve(arr.curve)))


def multiplicity_via_order_basis(arr: EllipticArrangement, subset: int) -> int:
    """Multiplicity recomputed from the R-basis expansion of the selected rows.

    One Smith form per subset, of the oracle `expand_order`: the oracle
    for the walk of A over C/R, the one computation coker-xcheck compares
    the tables with.  On an N = 1 curve this is the lattice expansion again.
    """
    rows = [i for i in range(arr.k) if subset >> i & 1]
    return prod(smith_form(expand_order(row_select(arr.matrix, rows))))


def multiplicity_via_conj_transpose(arr: EllipticArrangement, subset: int) -> int:
    """Multiplicity recomputed from the conjugate transpose of the selected rows.

    One Smith form per subset: the oracle for the stacked walk of
    `dual_arrangement` that the dual check reads, whose multiplicity at
    (E - S) + T is this one.
    """
    rows = [i for i in range(arr.k) if subset >> i & 1]
    flipped = conj_transpose(row_select(arr.matrix, rows))
    return prod(smith_form(expand_lambda(flipped)))


def generator_index_oracle(field: FieldParams, a: int, b: int, c: int) -> int:
    """Least k >= 1 with k*tau and k*tau^2 in <1, tau>, over exact rationals.

    Works directly from omega's quadratic relation, read off m itself and
    not off the field's trace and norm: tau^2 = p + q*omega with p, q
    rational, then substitutes omega = (c*tau - a)/b to express tau^2 over
    the basis {1, tau}.  k*tau is always in the lattice, so only the tau^2
    condition matters.
    """
    if field.m % 4 == 3:
        # omega = (1 + sqrt(-m))/2, omega^2 = omega - (m + 1)/4.
        p = Fraction(a * a - b * b * ((field.m + 1) // 4), c * c)
        q = Fraction(2 * a * b + b * b, c * c)
    else:
        p = Fraction(a * a - b * b * field.m, c * c)
        q = Fraction(2 * a * b, c * c)
    const_part = p - q * Fraction(a, b)
    tau_part = q * Fraction(c, b)
    for k in range(1, c * c + 1):
        if (k * const_part).denominator == 1 and (k * tau_part).denominator == 1:
            return k
    raise AssertionError("no multiplier up to c^2, which is impossible")


def union_point_count(matroid) -> int:
    """Inclusion-exclusion size of the union of divisors for n = 1, no loops."""
    total = 0
    for s in range(1, 1 << matroid.size):
        total += matroid.m[s] if s.bit_count() & 1 else -matroid.m[s]
    return total


def ring_mul(curve, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Product of x + y*w pairs in R = <1, w>, from w^2 = gen_trace*w - N*delta_prime."""
    (a, b), (c, d) = u, v
    bd = b * d
    return (a * c - curve.N * curve.delta_prime * bd, a * d + b * c + curve.gen_trace * bd)


def ring_norm(curve, u: tuple[int, int]) -> int:
    """The rational integer u * conj(u) of the pair u = x + y*w."""
    x, y = u
    return x * x + curve.gen_trace * x * y + curve.N * curve.delta_prime * y * y


def _ring_det(curve, rows: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """Determinant over R of a square matrix of pairs, by Leibniz expansion."""
    x_sum = y_sum = 0
    for perm in permutations(range(len(rows))):
        term = (1, 0)
        for i, j in enumerate(perm):
            term = ring_mul(curve, term, rows[i][j])
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        sign = -1 if inversions & 1 else 1
        x_sum += sign * term[0]
        y_sum += sign * term[1]
    return x_sum, y_sum


def ideal_index(curve, generators) -> int:
    """[R : I] for the ideal I of R generated by the given pairs; 0 if I = 0.

    I is the Z-span of g and g*w over the generators g, so its index in
    R = Z^2 is the gcd of the 2x2 minors of those spanning vectors.
    """
    span = []
    for g in generators:
        span += [g, ring_mul(curve, g, (0, 1))]
    index = 0
    for (a, b), (c, d) in combinations(span, 2):
        index = gcd(index, a * d - b * c)
    return index


def ideal_gcd_oracle(curve, rows) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """Rank, ideal index and bases of every row subset, computed inside R.

    `rows` are k rows of (x, y) pairs over the basis {1, w}, w = N*tau.  A
    row subset T generates the ideal I(T) of its |T| x |T| minors.  The
    rank of a subset S is the largest |T| with T inside S and I(T) != 0,
    its bases are those T, and its index is [R : sum of I(B) over bases B]:
    the gcd of the basis minors taken in R rather than in Z.  The empty
    set is its own basis, with I = R.  Lists are indexed by bitmask.
    """
    k = len(rows)
    n = len(rows[0]) if rows else 0
    minors: list[list[tuple[int, int]]] = [[] for _ in range(1 << k)]
    for t in range(1 << k):
        idx = [i for i in range(k) if t >> i & 1]
        if len(idx) > n:
            continue
        for cols in combinations(range(n), len(idx)):
            det = _ring_det(curve, [[rows[i][j] for j in cols] for i in idx])
            if det != (0, 0):
                minors[t].append(det)
    ranks, indices, bases = [], [], []
    for s in range(1 << k):
        independent = [t for t in range(1 << k) if t & s == t and minors[t]]
        rank = max(t.bit_count() for t in independent)
        found = tuple(t for t in independent if t.bit_count() == rank)
        ranks.append(rank)
        bases.append(found)
        indices.append(ideal_index(curve, [g for t in found for g in minors[t]]))
    return ranks, indices, bases


def splits(field: FieldParams, p: int) -> bool:
    """Whether the rational prime p splits in Q(sqrt(-m)).

    Decided by the discriminant D of the maximal order: D = -m when
    m = 3 (mod 4) and -4m otherwise.  An odd p splits when D is a nonzero
    square mod p, and 2 splits when D = 1 (mod 8).
    """
    disc = -field.m if field.m % 4 == 3 else -4 * field.m
    if p == 2:
        return disc % 8 == 1
    return pow(disc % p, (p - 1) // 2, p) == 1


def prime_factors(value: int) -> list[int]:
    """Distinct prime factors of a positive integer, by trial division."""
    out, d = [], 2
    while d * d <= value:
        if value % d == 0:
            out.append(d)
            while value % d == 0:
                value //= d
        d += 1
    if value > 1:
        out.append(value)
    return out


# Slow reference for the interval pass: the exhaustive molecule scans the
# library used before it read every molecule axiom off one interval walk.
# Each candidate interval is checked subset by subset, and (P2) builds the
# dual tables and rescans them.  perfbench/run.py loads this file without
# registering it in sys.modules, which a dataclass here would need.


class Molecule(NamedTuple):
    """Interval [x, y] with y = x + coloops + loops elementwise disjoint,
    on which rk(S) = rk(x) + |S & coloops|."""

    x: int
    y: int
    coloops: int
    loops: int


def find_molecule(matroid, x: int, y: int) -> Molecule | None:
    """The molecule on [x, y] if one exists, else None.

    The partition, when it exists, is forced: an element i of y - x is a
    loop of the interval exactly when rk(x + i) = rk(x).  The candidate
    split is then verified on every subset of the interval.
    """
    if x & ~y:
        raise ParameterError("x must be a subset of y")
    diff = y & ~x
    rk = matroid.rk
    base = rk[x]
    loops = 0
    for i in range(diff.bit_length()):
        if diff >> i & 1 and rk[x | 1 << i] == base:
            loops |= 1 << i
    coloops = diff & ~loops
    for sub in submasks(diff):
        if rk[x | sub] != base + (sub & coloops).bit_count():
            return None
    return Molecule(x=x, y=y, coloops=coloops, loops=loops)


def rho(matroid, molecule: Molecule) -> int:
    """Signed inclusion-exclusion of multiplicities over the molecule's interval."""
    m = matroid.m
    diff = molecule.y & ~molecule.x
    total = 0
    for sub in submasks(diff):
        sign = -1 if (diff.bit_count() - sub.bit_count()) & 1 else 1
        total += sign * m[molecule.x | sub]
    return -total if molecule.loops.bit_count() & 1 else total


def _molecule_scan(matroid):
    for y in range(1 << matroid.size):
        for x in submasks(y):
            mol = find_molecule(matroid, x, y)
            if mol is not None:
                yield mol


def _scan_a2(matroid):
    out, m = [], matroid.m
    for mol in _molecule_scan(matroid):
        lhs = m[mol.x] * m[mol.y]
        rhs = m[mol.x | mol.coloops] * m[mol.x | mol.loops]
        if lhs != rhs:
            out.append(
                Violation(
                    "a2",
                    (mol.x, mol.y),
                    f"m(X)m(Y) = {lhs} but m(X+F)m(X+T) = {rhs} on "
                    f"[{format_subset(mol.x)}, {format_subset(mol.y)}]",
                )
            )
    return tuple(out)


def _scan_p(matroid):
    out = []
    for mol in _molecule_scan(matroid):
        value = rho(matroid, mol)
        if value < 0:
            out.append(
                Violation(
                    "p",
                    (mol.x, mol.y),
                    f"rho = {value} < 0 on [{format_subset(mol.x)}, {format_subset(mol.y)}]",
                )
            )
    return tuple(out)


def _scan_p1(matroid, axiom: str = "p1", note: str = ""):
    out, rk = [], matroid.rk
    for y in range(1 << matroid.size):
        for x in submasks(y):
            if rk[x] != rk[y]:
                continue
            value = rho(matroid, Molecule(x=x, y=y, coloops=0, loops=y & ~x))
            if value < 0:
                out.append(
                    Violation(
                        axiom,
                        (x, y),
                        f"rho = {value} < 0 on rank-constant "
                        f"[{format_subset(x)}, {format_subset(y)}]{note}",
                    )
                )
    return tuple(out)


def molecule_scan_verdicts(matroid) -> dict:
    """(A2), (P), (P1), (P2) and the (P) equivalence by exhaustive scans,
    keyed as `check_axioms` keys them."""
    verdicts = {
        "a2": _scan_a2(matroid),
        "p": _scan_p(matroid),
        "p1": _scan_p1(matroid),
        "p2": _scan_p1(matroid.dual(), "p2", " (dual)"),
    }
    rest_ok = not (verdicts["a2"] or verdicts["p1"] or verdicts["p2"])
    verdicts["p-equivalence"] = (
        ()
        if (not verdicts["p"]) == rest_ok
        else (Violation("p-equivalence", (), "(P) verdict differs from (A2) and (P1) and (P2)"),)
    )
    return verdicts


# Slow reference for the ternary transform of the interval pass: the pass
# as it was before, forming g(X) = sum over S in [X, Y] of (-1)^|Y - S| m(S)
# by a superset sum over the subcube of each top set Y, O(k 3^k) in all.
# It runs the same per-pair checks in the order the library reports them.


def _span(x: int, y: int) -> str:
    return f"[{format_subset(x)}, {format_subset(y)}]"


def interval_pass_by_superset_sums(matroid) -> dict:
    """(A2), (P), (P1), (P2) and the (P) equivalence from one superset sum
    per top set Y, keyed and ordered as `check_axioms` reports them."""
    rk, m = matroid.rk, matroid.m
    e = matroid.ground_mask
    raising = [
        sum(1 << i for i in range(matroid.size) if not x >> i & 1 and rk[x | 1 << i] > rk[x])
        for x in range(e + 1)
    ]
    a2: list[Violation] = []
    p: list[Violation] = []
    p1: list[Violation] = []
    dual_hits: list[tuple[int, int, int]] = []
    for y in range(e + 1):
        ry = rk[y]
        # subs[c] is the submask of y holding the bits of y that c selects,
        # so subs ascends with c and the walk below is submasks(y).
        subs = [0]
        for i in bit_indices(y):
            subs += [s | 1 << i for s in subs]
        g = [-m[s] if (y ^ s).bit_count() & 1 else m[s] for s in subs]
        step = 1
        while step < len(g):
            for c in range(len(g)):
                if c & step:
                    g[c ^ step] += g[c]
            step <<= 1
        for c in range(len(subs) - 1, -1, -1):
            x, value = subs[c], g[c]
            rx, diff = rk[x], y ^ x
            coloops = diff & raising[x]
            if ry == rx + coloops.bit_count():
                loops = diff ^ coloops
                lhs, rhs = m[x] * m[y], m[x | coloops] * m[x | loops]
                if lhs != rhs:
                    detail = f"m(X)m(Y) = {lhs} but m(X+F)m(X+T) = {rhs} on {_span(x, y)}"
                    a2.append(Violation("a2", (x, y), detail))
                signed = -value if loops.bit_count() & 1 else value
                if signed < 0:
                    p.append(Violation("p", (x, y), f"rho = {signed} < 0 on {_span(x, y)}"))
            if rx == ry:
                signed = -value if diff.bit_count() & 1 else value
                if signed < 0:
                    detail = f"rho = {signed} < 0 on rank-constant {_span(x, y)}"
                    p1.append(Violation("p1", (x, y), detail))
            if ry - rx == diff.bit_count() and value < 0:
                dual_hits.append((e ^ y, e ^ x, value))
    dual_hits.sort(key=lambda hit: (hit[1], -hit[0]))
    p2 = tuple(
        Violation("p2", (x, y), f"rho = {value} < 0 on rank-constant {_span(x, y)} (dual)")
        for x, y, value in dual_hits
    )
    differs = (not p) != (not (a2 or p1 or p2))
    mismatch = Violation("p-equivalence", (), "(P) verdict differs from (A2) and (P1) and (P2)")
    return {
        "a2": tuple(a2),
        "p": tuple(p),
        "p1": tuple(p1),
        "p2": p2,
        "p-equivalence": (mismatch,) if differs else (),
    }


# Slow reference for the local pass: the exhaustive (r1)-(r3) scan, with
# submodularity on all 4^k pairs, and the (A1) loop the library used before
# it read rank and (A1) off one walk over (S, i).


def rank_and_a1_scan(matroid) -> dict:
    """(r1)-(r3) and (A1) by exhaustive scans, keyed as `check_axioms` keys them."""
    rank, a1 = [], []
    rk, m = matroid.rk, matroid.m
    if rk[0] != 0:
        rank.append(Violation("r1", (0,), f"rk({format_subset(0)}) = {rk[0]} != 0"))
    total = 1 << matroid.size
    for s in range(total):
        for i in range(matroid.size):
            if s >> i & 1:
                continue
            si = s | 1 << i
            if not rk[s] <= rk[si] <= rk[s] + 1:
                rank.append(
                    Violation(
                        "r2",
                        (s, si),
                        f"rk jumps from {rk[s]} to {rk[si]} adding {i + 1} to {format_subset(s)}",
                    )
                )
            if rk[si] == rk[s]:
                if m[s] % m[si]:
                    a1.append(
                        Violation(
                            "a1",
                            (s, si),
                            f"m({format_subset(si)}) = {m[si]} does not divide "
                            f"m({format_subset(s)}) = {m[s]}",
                        )
                    )
            elif m[si] % m[s]:
                a1.append(
                    Violation(
                        "a1",
                        (s, si),
                        f"m({format_subset(s)}) = {m[s]} does not divide "
                        f"m({format_subset(si)}) = {m[si]}",
                    )
                )
    for x in range(total):
        for y in range(x, total):
            if rk[x | y] + rk[x & y] > rk[x] + rk[y]:
                rank.append(
                    Violation(
                        "r3",
                        (x, y),
                        f"rk not submodular on {format_subset(x)}, {format_subset(y)}",
                    )
                )
    return {"rank": tuple(rank), "a1": tuple(a1)}


def tutte_per_subset(matroid) -> tuple[tuple[int, int, int], ...]:
    """The arithmetic Tutte polynomial with the binomials expanded once per subset."""
    r = matroid.full_rank
    acc: dict[tuple[int, int], int] = {}
    for s in range(1 << matroid.size):
        p = r - matroid.rk[s]
        q = s.bit_count() - matroid.rk[s]
        for i in range(p + 1):
            ci = comb(p, i) * (-1 if (p - i) & 1 else 1)
            for j in range(q + 1):
                cj = comb(q, j) * (-1 if (q - j) & 1 else 1)
                acc[(i, j)] = acc.get((i, j), 0) + matroid.m[s] * ci * cj
    return tuple(sorted((i, j, c) for (i, j), c in acc.items() if c))


def tutte_eval(terms: tuple[tuple[int, int, int], ...], x: int, y: int) -> int:
    """The polynomial of (deg x, deg y, coeff) terms at (x, y), term by term."""
    return sum(c * x**i * y**j for i, j, c in terms)


def poly_eval(coeffs: tuple[int, ...], value: int) -> int:
    """The polynomial of ascending coefficients at `value`, by Horner's rule."""
    out = 0
    for c in reversed(coeffs):
        out = out * value + c
    return out


def is_square_free_by_trial(m: int) -> bool:
    """The square-free test by trial division with d^2 up to sqrt(m)."""
    return m >= 1 and all(m % (d * d) for d in range(2, isqrt(m) + 1))


def square_free_sieve(limit: int) -> list[bool]:
    """Square-freeness of every m < limit by the old test seen from the side
    of d: m fails exactly when d^2 divides m for some 2 <= d <= sqrt(m)."""
    flags = [False] + [True] * (limit - 1)
    d = 2
    while d * d < limit:
        for multiple in range(d * d, limit, d * d):
            flags[multiple] = False
        d += 1
    return flags
