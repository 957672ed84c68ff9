"""Arithmetic matroids as dense rank/multiplicity tables with axiom checkers.

An arithmetic matroid on ground set [k] is a pair of tables indexed by the
2^k subsets: a rank function satisfying the matroid axioms

    (r1) rk(empty) = 0
    (r2) rk(X) <= rk(X + i) <= rk(X) + 1
    (r3) rk(X | Y) + rk(X & Y) <= rk(X) + rk(Y)

and a positive multiplicity function satisfying

    (A1) m(X + i) | m(X) when the rank stays, m(X) | m(X + i) when it grows,
    (A2) m(X) m(Y) = m(X + F) m(X + T) on every molecule [X, Y],
    (P)  rho(X, Y) >= 0 on every molecule,

where a molecule is an interval [X, Y], Y = X + F + T disjointly, on which
rk(S) = rk(X) + |S & F| throughout, and

    rho(X, Y) = (-1)^|T| * sum over S in [X, Y] of (-1)^(|Y| - |S|) m(S).

(P) restricted to rank-constant intervals is (P1); (P1) on the dual matroid
is (P2).  Verifiers treat violations as data, never as exceptions, so
tampered tables can be inspected.

API: `check_axioms(matroid, names, arrangement=None)` is the one verdict
call.  Its nine names are rank ((r1)-(r3)), a1, a2, p, p1, p2,
p-equivalence ((P) holds exactly when (A2), (P1) and (P2) do), and the
cross-checks dual and coker-xcheck, which also read the arrangement A the
tables came from.  Each compares the tables with one other computation:
dual, the dual tables with one walk of the stacked arrangement
(I_k over A^H) over the supersets of T, contracted by T; coker-xcheck,
each m(S) with one walk of A over the curve C/R whose lattice is the
ring R itself (`quadratic_order.order_curve`).  On an N = 1 curve C/R
is the curve itself, so there only dual checks the tables against a
second matrix.

Scale: rank and a1 come out of one local pass over the pairs (S, i) that
checks (r3) in its local form, O(2^k k^2).  (A2), (P), (P1) and (P2) come
out of a single pass over the 3^k nested pairs [X, Y], whose signed
interval sums are one ternary transform of m: O(3^k) time and O(2^k)
memory.  That is why every walk of `arrangement` refuses more than its
MAX_GROUND (20) free divisors before it tabulates anything.

L7: `char_poly` is sum (-1)^|S| m(S) t^(r - rk S), one pass over the
tables, and `euler_characteristic` its value at t = 0 when r = n, else 0;
the tests, not this module, check both against the Tutte polynomial.

Subsets are bitmasks, bit i standing for element i+1.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterable, Iterator, NamedTuple

from .arrangement import EllipticArrangement, dual_arrangement
from .quadratic_order import ParameterError, format_terms, order_curve


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending from mask to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of mask >= 0, ascending, read off its
    binary digits once: a shift per bit would cost O(bits^2)."""
    return [i for i, digit in enumerate(reversed(bin(mask))) if digit == "1"]


def format_subset(mask: int) -> str:
    """Human form of a bitmask, 1-based: 0b101 -> '{1,3}'."""
    return "{" + ",".join(str(i + 1) for i in bit_indices(mask)) + "}"


class _Matroid(NamedTuple):
    size: int
    rk: tuple[int, ...]
    m: tuple[int, ...]


# A NamedTuple body may not define __new__: a subclass checks there and in _make, for _replace.
class ArithmeticMatroid(_Matroid):
    """Dense tables rk, m over all subsets of a ground set of `size` elements.

    Construction validates only shapes and positivity of m; the axioms are
    the verifiers' business, so deliberately broken tables are expressible.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, size: int, rk: tuple[int, ...], m: tuple[int, ...]) -> "ArithmeticMatroid":
        if size < 0:
            raise ParameterError("ground set size must be non-negative")
        expected = 1 << size
        if len(rk) != expected or len(m) != expected:
            raise ParameterError(f"tables must have {expected} entries")
        if any(v < 1 for v in m):
            raise ParameterError("multiplicities must be positive")
        return super().__new__(cls, size, rk, m)

    @property
    def ground_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def full_rank(self) -> int:
        return self.rk[self.ground_mask]

    def dual(self) -> "ArithmeticMatroid":
        """Dual tables: rk*(S) = |S| - rk(E) + rk(E - S), m*(S) = m(E - S)."""
        r = self.full_rank
        # Entry E - S of a table is entry S of its reverse.
        rk = tuple(s.bit_count() - r + rank for s, rank in enumerate(reversed(self.rk)))
        return ArithmeticMatroid(self.size, rk, self.m[::-1])

    def _kept_masks(self, t_mask: int) -> list[int]:
        """Every subset of the elements outside t_mask, at the index of its
        renumbered form, the order of the contraction and the deletion."""
        if not 0 <= t_mask <= self.ground_mask:
            raise ParameterError("subset out of range")
        wide = [0]
        for i in bit_indices(self.ground_mask ^ t_mask):
            wide += [w | 1 << i for w in wide]
        return wide

    def contraction(self, t_mask: int) -> "ArithmeticMatroid":
        """Contract the elements of t_mask: rk(A) -> rk(A|T) - rk(T), m(A) -> m(A|T)."""
        wide = [w | t_mask for w in self._kept_masks(t_mask)]
        base = self.rk[t_mask]
        rk, m = tuple(self.rk[w] - base for w in wide), tuple(self.m[w] for w in wide)
        return ArithmeticMatroid(self.size - t_mask.bit_count(), rk, m)

    def deletion(self, t_mask: int) -> "ArithmeticMatroid":
        """Delete the elements of t_mask, restricting both tables."""
        wide = self._kept_masks(t_mask)
        rk, m = tuple(self.rk[w] for w in wide), tuple(self.m[w] for w in wide)
        return ArithmeticMatroid(self.size - t_mask.bit_count(), rk, m)


def from_arrangement(arr: EllipticArrangement) -> ArithmeticMatroid:
    """The arrangement's rank and multiplicity tables, from one walk."""
    return ArithmeticMatroid(arr.k, *arr.reports())


class Violation(NamedTuple):
    """One failed axiom instance; subsets are the bitmasks involved."""

    axiom: str
    subsets: tuple[int, ...]
    detail: str


# The arithmetic-matroid axioms, in the order `analyze` reports them.
AXIOMS = ("rank", "a1", "a2", "p", "p1", "p2")
# Every check name: the axioms, the (P) equivalence, and two cross-checks
# against the arrangement the tables came from.
AXIOM_NAMES = (*AXIOMS, "p-equivalence", "dual", "coker-xcheck")
_LOCAL_AXIOMS = frozenset(("rank", "a1"))
_INTERVAL_AXIOMS = frozenset(("a2", "p", "p1", "p2", "p-equivalence"))
_ARRANGEMENT_CHECKS = frozenset(("dual", "coker-xcheck"))


def _local_pass(matroid: ArithmeticMatroid) -> dict[str, tuple[Violation, ...]]:
    """Verdicts of (r1)-(r3) and (A1) in one walk over (S, i), i not in S.

    (r3) is checked in its local form rk(S+i) + rk(S+j) >= rk(S+i+j) + rk(S)
    for j > i outside S, which is equivalent to submodularity on all pairs
    (Oxley, Matroid Theory, ch. 1) and costs O(2^k k^2) instead of 4^k.  A
    violation names the local pair (S+i, S+j).
    """
    rk, m = matroid.rk, matroid.m
    r1 = [Violation("r1", (0,), f"rk({format_subset(0)}) = {rk[0]} != 0")] if rk[0] else []
    r2: list[Violation] = []
    r3: list[Violation] = []
    a1: list[Violation] = []
    for s in range(1 << matroid.size):
        base = rk[s]
        outside = [1 << i for i in range(matroid.size) if not s >> i & 1]
        for pos, bit in enumerate(outside):
            si = s | bit
            step = rk[si]
            if not base <= step <= base + 1:
                detail = (
                    f"rk jumps from {base} to {step} adding {bit.bit_length()} "
                    f"to {format_subset(s)}"
                )
                r2.append(Violation("r2", (s, si), detail))
            divisor, multiple = (si, s) if step == base else (s, si)
            if m[multiple] % m[divisor]:
                detail = (
                    f"m({format_subset(divisor)}) = {m[divisor]} does not divide "
                    f"m({format_subset(multiple)}) = {m[multiple]}"
                )
                a1.append(Violation("a1", (s, si), detail))
            for other in outside[pos + 1 :]:
                sj = s | other
                if rk[si | other] + base > step + rk[sj]:
                    detail = f"rk not submodular on {format_subset(si)}, {format_subset(sj)}"
                    r3.append(Violation("r3", (si, sj), detail))
    return {"rank": (*r1, *r2, *r3), "a1": tuple(a1)}


def _span(x: int, y: int) -> str:
    return f"[{format_subset(x)}, {format_subset(y)}]"


# `_interval_pass` expands the last _LEAF positions of its ternary
# transform flat, over a layout of 3^_LEAF pairs built once per pass, and
# the others depth-first.  A wider leaf saves Python calls, but each leaf
# table holds 3^_LEAF entries: at 10 that is 57 times a k = 10 input.
_LEAF = 6


def _interval_pass(matroid: ArithmeticMatroid) -> dict[str, tuple[Violation, ...]]:
    """Verdicts of (A2), (P), (P1), (P2) and the (P) equivalence in one walk.

    g(X, Y) = sum over S in [X, Y] of (-1)^|Y - S| m(S) is tabulated for
    all 3^k nested pairs by one ternary transform (Yates's algorithm; the
    ranked Moebius transform of Bjorklund, Husfeldt, Kaski and Koivisto,
    "Fourier meets Moebius", STOC 2007).  A pair is a word over {0, 1, *},
    0 for outside Y, 1 for in X and * for in Y - X, and g(w*v) =
    g(w1v) - g(w0v), from g(X, X) = m(X).  The top positions are taken
    depth-first, each child table (lo, hi or hi - lo) half its parent's
    size; the last _LEAF are expanded flat.  That is O(3^k) time and
    O(2^k) memory.  Each pair [X, Y] is then checked:

    - [X, Y] is a molecule when rk(Y) = rk(X) + |(Y - X) & F_X|, with
      F_X = {i not in X : rk(X + i) > rk(X)}; the loops T are the rest of
      Y - X and rho(X, Y) = (-1)^|T| g(X, Y).  This closed form presumes
      (r1)-(r3): on tables breaking them it can name other molecules than
      an exhaustive check of rk over the interval would.
    - (P1) reads the rank-constant intervals, where rho = (-1)^|Y - X| g(X, Y).
    - (P2) is (P1) of the dual on [E - Y, E - X].  That interval is
      rank-constant for the dual exactly when rk(Y) - rk(X) = |Y - X|, and
      its rho is g(X, Y), so no dual tables are built.

    Violations are reported by Y ascending, then X descending, [X, Y] being
    the interval each names: for (P2), the interval [E - Y, E - X] of the dual.
    """
    rk, m = matroid.rk, matroid.m
    e = matroid.ground_mask
    raising = [
        sum(1 << i for i in range(matroid.size) if not x >> i & 1 and rk[x | 1 << i] > rk[x])
        for x in range(e + 1)
    ]
    leaf = min(matroid.size, _LEAF)
    # low_x[t], low_y[t]: the pair of the leaf positions that entry t of an
    # expanded leaf table stands for, position i being digit i of t in base 3.
    low_x, low_y = [0], [0]
    for i in range(leaf):
        bit = 1 << i
        low_x = low_x + [x | bit for x in low_x] + low_x
        low_y = low_y + [y | bit for y in low_y] * 2
    a2: list[Violation] = []
    p: list[Violation] = []
    p1: list[Violation] = []
    p2: list[Violation] = []

    def expand(table: list[int], top: int, high_x: int, high_y: int) -> None:
        if top > leaf:
            top -= 1
            bit = 1 << top
            lo, hi = table[:bit], table[bit:]
            expand(lo, top, high_x, high_y)
            expand(hi, top, high_x | bit, high_y | bit)
            expand([b - a for a, b in zip(lo, hi)], top, high_x, high_y | bit)
            return
        for _ in range(leaf):
            even, odd = table[0::2], table[1::2]
            table = even + odd + [b - a for a, b in zip(even, odd)]
        for x, y, value in zip(low_x, low_y, table):
            x |= high_x
            y |= high_y
            rx, ry, diff = rk[x], rk[y], y ^ x
            coloops = diff & raising[x]
            if ry == rx + coloops.bit_count():
                loops = diff ^ coloops
                # (A2) is an identity when F or T is empty.
                if coloops and loops:
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
                detail = f"rho = {value} < 0 on rank-constant {_span(e ^ y, e ^ x)} (dual)"
                p2.append(Violation("p2", (e ^ y, e ^ x), detail))

    expand(list(m), matroid.size, 0, 0)
    for found in (a2, p, p1, p2):
        found.sort(key=lambda v: (v.subsets[1], -v.subsets[0]))
    differs = (not p) != (not (a2 or p1 or p2))
    mismatch = Violation("p-equivalence", (), "(P) verdict differs from (A2) and (P1) and (P2)")
    return {
        "a2": tuple(a2),
        "p": tuple(p),
        "p1": tuple(p1),
        "p2": tuple(p2),
        "p-equivalence": (mismatch,) if differs else (),
    }


def _dual_check(arr: EllipticArrangement, matroid: ArithmeticMatroid) -> tuple[Violation, ...]:
    """Whether the stacked arrangement's walk over the supersets of T,
    contracted by T, gives the dual tables; it comes in the contraction's
    order, so its first entry is T itself."""
    stacked, t_mask = dual_arrangement(arr)
    rk, m = stacked.reports(t_mask)
    contraction = ArithmeticMatroid(matroid.size, tuple(r - rk[0] for r in rk), m)
    if contraction == matroid.dual():
        return ()
    detail = "contraction of the stacked arrangement by T does not match the dual tables"
    return (Violation("dual", (t_mask,), detail),)


def _coker_check(arr: EllipticArrangement, matroid: ArithmeticMatroid) -> tuple[Violation, ...]:
    """Whether each m(S) of the tables equals the multiplicity at S of one
    walk of A over the curve C/R, whose lattice expansion is A's expansion
    over the R-basis {1, N*tau}."""
    over_order = EllipticArrangement(arr.matrix._replace(curve=order_curve(arr.curve)))
    out = []
    for subset, (direct, via_order) in enumerate(zip(matroid.m, over_order.reports()[1])):
        if direct != via_order:
            detail = (
                f"multiplicity of {format_subset(subset)} disagrees across bases: "
                f"{direct} / {via_order}"
            )
            out.append(Violation("coker-xcheck", (subset,), detail))
    return tuple(out)


def check_axioms(
    matroid: ArithmeticMatroid,
    names: Iterable[str],
    arrangement: EllipticArrangement | None = None,
) -> dict[str, tuple[Violation, ...]]:
    """Violations of each named check, keyed in the order first named.

    This is the one way to get a verdict.  Names come from AXIOM_NAMES:

    - rank is (r1)-(r3) and a1 is (A1), both read off one local pass;
    - a2, p, p1, p2 and p-equivalence (whether (P) holds exactly when
      (A2), (P1) and (P2) all do) are read off one interval pass;
    - dual checks that the stacked arrangement contracted by T realizes
      the dual tables, and coker-xcheck that every m(S) agrees with the
      walk of A over the curve C/R at S, C/R being the curve itself when
      N = 1.  Both read `arrangement`, the arrangement A the tables came
      from, and raise ParameterError without it or when its ground set
      differs from the tables'.

    Each pass or walk runs at most once, and only when one of its names is
    asked: dual walks the stacked arrangement, coker-xcheck A over C/R.
    """
    names = tuple(dict.fromkeys(names))
    unknown = [name for name in names if name not in AXIOM_NAMES]
    if unknown:
        raise ParameterError(f"unknown axioms {unknown}; choose from {', '.join(AXIOM_NAMES)}")
    if arrangement is None and _ARRANGEMENT_CHECKS.intersection(names):
        raise ParameterError("the dual and coker-xcheck checks need the arrangement")
    if arrangement is not None and arrangement.k != matroid.size:
        raise ParameterError("the arrangement and the tables differ in ground set size")
    found: dict[str, tuple[Violation, ...]] = {}
    if _LOCAL_AXIOMS.intersection(names):
        found.update(_local_pass(matroid))
    if _INTERVAL_AXIOMS.intersection(names):
        found.update(_interval_pass(matroid))
    if "dual" in names:
        found["dual"] = _dual_check(arrangement, matroid)
    if "coker-xcheck" in names:
        found["coker-xcheck"] = _coker_check(arrangement, matroid)
    return {name: found[name] for name in names}


def gcd_property(matroid: ArithmeticMatroid) -> tuple[bool, int | None]:
    """Whether m(S) is the integer gcd of the multiplicities of the bases of S.

    This is the integer gcd property.  It holds for lists of integer
    vectors, the toric case, but can fail for arrangements over an order:
    at a rational prime that splits in the field, the integer gcd cannot
    tell the two conjugate primes apart.  Returns (holds, witness), where
    the witness is the smallest violating subset mask, or None.  The empty
    set is independent of rank 0, so the gcd is never over an empty
    collection.
    """
    rk, m = matroid.rk, matroid.m
    for s, (target, mult) in enumerate(zip(rk, m)):
        if mult != gcd(*(m[sub] for sub in submasks(s) if sub.bit_count() == target == rk[sub])):
            return False, s
    return True, None


def tutte(matroid: ArithmeticMatroid) -> tuple[tuple[int, int, int], ...]:
    """Arithmetic Tutte polynomial
    sum over S of m(S) (x-1)^(rk(E)-rk(S)) (y-1)^(|S|-rk(S)),
    as its sorted nonzero terms (deg x, deg y, coeff).

    m(S) is summed per exponent pair first, so the binomials are expanded
    once per pair rather than once per subset.
    """
    r = matroid.full_rank
    buckets: dict[tuple[int, int], int] = {}
    for s, (rank, mult) in enumerate(zip(matroid.rk, matroid.m)):
        key = (r - rank, s.bit_count() - rank)
        buckets[key] = buckets.get(key, 0) + mult
    acc: dict[tuple[int, int], int] = {}
    for (p, q), w in buckets.items():
        for i in range(p + 1):
            ci = comb(p, i) * (-1 if (p - i) & 1 else 1)
            for j in range(q + 1):
                cj = comb(q, j) * (-1 if (q - j) & 1 else 1)
                acc[(i, j)] = acc.get((i, j), 0) + w * ci * cj
    return tuple(sorted((i, j, c) for (i, j), c in acc.items() if c))


def tutte_str(terms: Iterable[tuple[int, int, int]]) -> str:
    """Render (deg x, deg y, coeff) terms as a polynomial in x and y,
    highest total degree first."""
    ordered = sorted(terms, key=lambda t: (-(t[0] + t[1]), -t[0]))
    return format_terms(
        (c, "*".join(v if d == 1 else f"{v}^{d}" for v, d in (("x", i), ("y", j)) if d))
        for i, j, c in ordered
    )


def char_poly(matroid: ArithmeticMatroid) -> tuple[int, ...]:
    """Arithmetic characteristic polynomial sum (-1)^|S| m(S) t^(r - rk S),
    ascending in t (Moci, Trans. AMS 2012), over the S whose terms `tutte`
    keeps: rk(S) <= |S| and rk(S) <= r, no exponent of T being negative."""
    r = matroid.full_rank
    # Kept exponents r - rk(S) are at most r, or r - min(rk) when a tampered
    # table has a negative rank; a list of length <= 0 is empty.
    coeffs = [0] * (r + 1 - min(0, min(matroid.rk)))
    for s, (rank, mult) in enumerate(zip(matroid.rk, matroid.m)):
        size = s.bit_count()
        if rank <= size and rank <= r:
            coeffs[r - rank] += -mult if size & 1 else mult
    return tuple(coeffs)


def poly_str(coeffs: tuple[int, ...]) -> str:
    """Render ascending coefficients as a polynomial in t, highest degree first."""
    return format_terms(
        (coeffs[d], "" if d == 0 else ("t" if d == 1 else f"t^{d}"))
        for d in range(len(coeffs) - 1, -1, -1)
    )


def euler_characteristic(matroid: ArithmeticMatroid, ambient_n: int) -> int:
    """Euler characteristic of the arrangement complement in E^ambient_n.

    Inclusion-exclusion over the layers: one of positive dimension is a union
    of abelian varieties, of Euler characteristic 0, so only the m(S) points
    of each S of rank ambient_n = rk(E) count, with sign (-1)^|S|; otherwise
    0: the constant term of `char_poly` (Moci, Trans. AMS 2012).  The
    paper's identity with (-1)^r T(1, 0) is tested, not used.
    """
    return char_poly(matroid)[0] if matroid.full_rank == ambient_n else 0
