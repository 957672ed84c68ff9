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
tables came from.  Both read one walk of the stacked arrangement
(I_k over A^H) over the supersets of T: dual compares its contraction by
T with the dual tables; coker-xcheck compares m(S) with one walk of the
R-basis expansion of A at S and with the stacked walk at E - S.

Scale: rank and a1 come out of one local pass over the pairs (S, i) that
checks (r3) in its local form, O(2^k k^2).  (A2), (P), (P1) and (P2) come
out of a single pass over the 3^k nested pairs [X, Y], with O(2^k)
memory.  That is why every walk of `arrangement` refuses more than its
MAX_GROUND (20) free divisors before it tabulates anything.

Subsets are bitmasks, bit i standing for element i+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterable, Iterator

from .arrangement import EllipticArrangement, Tables, dual_arrangement
from .quadratic_order import ParameterError, format_terms


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending from mask to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bit_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def format_subset(mask: int) -> str:
    """Human form of a bitmask, 1-based: 0b101 -> '{1,3}'."""
    return "{" + ",".join(str(i + 1) for i in bit_indices(mask)) + "}"


@dataclass(frozen=True)
class ArithmeticMatroid:
    """Dense tables rk, m over all subsets of a ground set of `size` elements.

    Construction validates only shapes and positivity of m; the axioms are
    the verifiers' business, so deliberately broken tables are expressible.
    """

    size: int
    rk: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = 1 << self.size
        if len(self.rk) != expected or len(self.m) != expected:
            raise ParameterError(f"tables must have {expected} entries")
        if any(v < 1 for v in self.m):
            raise ParameterError("multiplicities must be positive")

    @property
    def ground_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def full_rank(self) -> int:
        return self.rk[self.ground_mask]

    def dual(self) -> "ArithmeticMatroid":
        """Dual tables: rk*(S) = |S| - rk(E) + rk(E - S), m*(S) = m(E - S)."""
        e = self.ground_mask
        r = self.full_rank
        rk = tuple(s.bit_count() - r + self.rk[e ^ s] for s in range(e + 1))
        m = tuple(self.m[e ^ s] for s in range(e + 1))
        return ArithmeticMatroid(self.size, rk, m)

    def _kept(self, t_mask: int) -> list[int]:
        if not 0 <= t_mask <= self.ground_mask:
            raise ParameterError("subset out of range")
        return [i for i in range(self.size) if not t_mask >> i & 1]

    def _widen(self, narrow: int, kept: list[int]) -> int:
        wide = 0
        for j, i in enumerate(kept):
            if narrow >> j & 1:
                wide |= 1 << i
        return wide

    def contraction(self, t_mask: int) -> "ArithmeticMatroid":
        """Contract the elements of t_mask: rk(A) -> rk(A|T) - rk(T), m(A) -> m(A|T)."""
        kept = self._kept(t_mask)
        base = self.rk[t_mask]
        rk = []
        m = []
        for narrow in range(1 << len(kept)):
            wide = self._widen(narrow, kept) | t_mask
            rk.append(self.rk[wide] - base)
            m.append(self.m[wide])
        return ArithmeticMatroid(len(kept), tuple(rk), tuple(m))

    def deletion(self, t_mask: int) -> "ArithmeticMatroid":
        """Delete the elements of t_mask, restricting both tables."""
        kept = self._kept(t_mask)
        rk = []
        m = []
        for narrow in range(1 << len(kept)):
            wide = self._widen(narrow, kept)
            rk.append(self.rk[wide])
            m.append(self.m[wide])
        return ArithmeticMatroid(len(kept), tuple(rk), tuple(m))


def from_arrangement(arr: EllipticArrangement) -> ArithmeticMatroid:
    """The arrangement's rank and multiplicity tables, from one walk."""
    return ArithmeticMatroid(arr.k, *arr.reports())


@dataclass(frozen=True)
class Violation:
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
        base, ms = rk[s], m[s]
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
            if step == base:
                if ms % m[si]:
                    detail = (
                        f"m({format_subset(si)}) = {m[si]} does not divide "
                        f"m({format_subset(s)}) = {ms}"
                    )
                    a1.append(Violation("a1", (s, si), detail))
            elif m[si] % ms:
                detail = (
                    f"m({format_subset(s)}) = {ms} does not divide "
                    f"m({format_subset(si)}) = {m[si]}"
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


def _interval_pass(matroid: ArithmeticMatroid) -> dict[str, tuple[Violation, ...]]:
    """Verdicts of (A2), (P), (P1), (P2) and the (P) equivalence in one walk.

    For each top set Y, ascending, g(X) = sum over S in [X, Y] of
    (-1)^|Y - S| m(S) is formed for every X inside Y by a superset sum over
    the subcube of Y, so memory stays O(2^k).  X then runs down submasks(Y):

    - [X, Y] is a molecule when rk(Y) = rk(X) + |(Y - X) & F_X|, with
      F_X = {i not in X : rk(X + i) > rk(X)}; the loops T are the rest of
      Y - X and rho(X, Y) = (-1)^|T| g(X).  This closed form presumes
      (r1)-(r3): on tables breaking them it can name other molecules than
      an exhaustive check of rk over the interval would.
    - (P1) reads the rank-constant intervals, where rho = (-1)^|Y - X| g(X).
    - (P2) is (P1) of the dual on [E - Y, E - X].  That interval is
      rank-constant for the dual exactly when rk(Y) - rk(X) = |Y - X|, and
      its rho is g(X), so no dual tables are built.  Its violations are
      reported in the order a scan of the dual would find them.
    """
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


def _dual_check(stacked: Tables, t_mask: int, matroid: ArithmeticMatroid) -> tuple[Violation, ...]:
    """Whether the stacked walk over the supersets of T, contracted by T,
    gives the dual tables; it comes in the contraction's order, so its
    first entry is T itself."""
    rk, m = stacked
    contraction = ArithmeticMatroid(matroid.size, tuple(r - rk[0] for r in rk), m)
    if contraction == matroid.dual():
        return ()
    detail = "contraction of the stacked arrangement by T does not match the dual tables"
    return (Violation("dual", (t_mask,), detail),)


def _coker_check(
    arr: EllipticArrangement, matroid: ArithmeticMatroid, stacked: Tables
) -> tuple[Violation, ...]:
    """Whether each m(S) of the tables equals the multiplicity at S of one
    walk of the R-basis expansion of A, and the stacked walk's multiplicity
    at E - S, that of the conjugate transpose of the rows S."""
    e = matroid.ground_mask
    order_m, stacked_m = arr.order_basis_reports()[1], stacked[1]
    out = []
    for subset in range(e + 1):
        direct = matroid.m[subset]
        via_order = order_m[subset]
        via_conj = stacked_m[e ^ subset]
        if not direct == via_order == via_conj:
            detail = (
                f"multiplicity of {format_subset(subset)} disagrees across bases: "
                f"{direct} / {via_order} / {via_conj}"
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
      walk of the R-basis expansion at S and the stacked superset at E - S.
      Both read `arrangement`, the arrangement A the tables came from, and
      raise ParameterError without it or when its ground set differs from
      the tables'.

    Each pass runs at most once, and only when one of its names is asked;
    the two cross-checks share one walk of the stacked arrangement.
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
    if _ARRANGEMENT_CHECKS.intersection(names):
        stacked, t_mask = dual_arrangement(arrangement)
        supersets = stacked.superset_reports(t_mask)
    if "dual" in names:
        found["dual"] = _dual_check(supersets, t_mask, matroid)
    if "coker-xcheck" in names:
        found["coker-xcheck"] = _coker_check(arrangement, matroid, supersets)
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
    for s in range(1 << matroid.size):
        target = rk[s]
        g = 0
        for sub in submasks(s):
            if sub.bit_count() == target and rk[sub] == target:
                g = gcd(g, m[sub])
        if m[s] != g:
            return False, s
    return True, None


@dataclass(frozen=True)
class BiPoly:
    """Bivariate integer polynomial as sorted (deg1, deg2, coeff) terms."""

    terms: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_dict(cls, coeffs: dict[tuple[int, int], int]) -> "BiPoly":
        cleaned = sorted((i, j, c) for (i, j), c in coeffs.items() if c != 0)
        return cls(tuple(cleaned))

    def evaluate(self, v1: int, v2: int) -> int:
        return sum(c * v1**i * v2**j for i, j, c in self.terms)

    def format(self, var1: str = "x", var2: str = "y") -> str:
        ordered = sorted(self.terms, key=lambda t: (-(t[0] + t[1]), -t[0]))
        return format_terms(
            (c, "*".join(v if d == 1 else f"{v}^{d}" for v, d in ((var1, i), (var2, j)) if d))
            for i, j, c in ordered
        )


def tutte(matroid: ArithmeticMatroid) -> BiPoly:
    """Arithmetic Tutte polynomial
    sum over S of m(S) (x-1)^(rk(E)-rk(S)) (y-1)^(|S|-rk(S)).

    m(S) is summed per exponent pair first, so the binomials are expanded
    once per pair rather than once per subset.
    """
    r = matroid.full_rank
    buckets: dict[tuple[int, int], int] = {}
    for s in range(1 << matroid.size):
        key = (r - matroid.rk[s], s.bit_count() - matroid.rk[s])
        buckets[key] = buckets.get(key, 0) + matroid.m[s]
    acc: dict[tuple[int, int], int] = {}
    for (p, q), w in buckets.items():
        for i in range(p + 1):
            ci = comb(p, i) * (-1 if (p - i) & 1 else 1)
            for j in range(q + 1):
                cj = comb(q, j) * (-1 if (q - j) & 1 else 1)
                acc[(i, j)] = acc.get((i, j), 0) + w * ci * cj
    return BiPoly.from_dict(acc)


def char_poly(matroid: ArithmeticMatroid) -> tuple[int, ...]:
    """Characteristic polynomial (-1)^r T(1-t, 0), coefficients ascending in t."""
    r = matroid.full_rank
    t_poly = tutte(matroid)
    coeffs = [0] * (r + 1)
    for i, j, c in t_poly.terms:
        if j:
            continue
        # (1-t)^i contributes comb(i, d) (-1)^d to t^d.
        for d in range(i + 1):
            coeffs[d] += c * comb(i, d) * (-1 if d & 1 else 1)
    if r & 1:
        coeffs = [-v for v in coeffs]
    return tuple(coeffs)


def poly_str(coeffs: tuple[int, ...], var: str = "t") -> str:
    """Render ascending coefficients as a descending-degree polynomial string."""
    return format_terms(
        (coeffs[d], "" if d == 0 else (var if d == 1 else f"{var}^{d}"))
        for d in range(len(coeffs) - 1, -1, -1)
    )


def poly_eval(coeffs: tuple[int, ...], value: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * value + c
    return out


def euler_characteristic(matroid: ArithmeticMatroid, ambient_n: int) -> int:
    """Euler characteristic of the arrangement complement in E^ambient_n.

    For an essential arrangement (full rank equal to ambient_n) this is
    (-1)^r T(1, 0); a non-essential complement fibers over a positive-
    dimensional abelian factor and has Euler characteristic 0.
    """
    r = matroid.full_rank
    if r != ambient_n:
        return 0
    value = tutte(matroid).evaluate(1, 0)
    return -value if r & 1 else value


def e2_poincare(matroid: ArithmeticMatroid, ambient_n: int | None = None) -> BiPoly:
    """Bigraded Poincare polynomial of the second spectral-sequence page.

    With chi(q) = sum chi_i q^(r-i), returns
    sum over i of (-1)^i chi_i (1+t)^(2(r-i)) s^i.  Evaluating at
    t = -1, s = -1 recovers the Euler characteristic.  Only meaningful for
    essential arrangements; pass ambient_n to enforce that.
    """
    r = matroid.full_rank
    if ambient_n is not None and ambient_n != r:
        raise ParameterError(
            f"non-essential input: rank {r} differs from ambient dimension {ambient_n}"
        )
    chi = char_poly(matroid)
    acc: dict[tuple[int, int], int] = {}
    for i in range(r + 1):
        chi_i = chi[r - i]
        if chi_i == 0:
            continue
        w = -chi_i if i & 1 else chi_i
        e = 2 * (r - i)
        for d in range(e + 1):
            key = (d, i)
            acc[key] = acc.get(key, 0) + w * comb(e, d)
    return BiPoly.from_dict(acc)
