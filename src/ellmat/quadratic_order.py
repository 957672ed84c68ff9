"""Imaginary quadratic orders attached to a lattice, as exact integer constants.

A lattice L = <1, tau> with tau = (a + b*omega)/c non-real determines the
multiplier ring R = {z : z*L inside L}, an order in the imaginary quadratic
field Q(sqrt(-m)), whose integers Z[omega] make_field keeps as omega's trace
and norm.  R always has a Z-basis {1, N*tau} for a unique positive integer
N.  The package reads R through four integers, which make_curve derives
once and CurveParams keeps: N, the trace gen_trace of N*tau, delta_prime
(N*tau has norm N*delta_prime) and the conductor.  order_curve gives the
curve C/R whose lattice is R itself.

All values are plain Python integers; nothing in this module, or anywhere
else in the package, uses floating point.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterable, NamedTuple


class ParameterError(ValueError):
    """Invalid field, curve, matrix or table parameters, or a malformed or
    oversized arrangement document: every input the package refuses."""


# make_field refuses m at or above this, so is_square_free needs at most
# about 1.3 million trial divisions.
M_LIMIT = 1 << 64
# make_curve, arrangement files and random arrangements refuse coordinates
# at or above this in absolute value.  For k <= 20 every printed integer
# then stays under about 3200 digits, below Python's int-to-str limit.
COORD_LIMIT = 1 << 64
# Arrangement files and random arrangements refuse more rows, columns or
# entries than this before any work, so a huge shape or --k or --n exits
# with an error, not a hang.
ENTRY_LIMIT = 10**6


def is_square_free(m: int) -> bool:
    """True if m >= 1 and no square > 1 divides m.

    Trial division by 2 and the odd d with d^3 <= m divides out every such
    prime, failing when d^2 divides m.  What is left has no prime factor d
    with d^3 <= m, so it has at most two prime factors and is square-free
    unless it is the square of a prime.  This costs O(m^(1/3)).
    """
    if m < 1:
        return False
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return False
        d += 1 if d == 2 else 2
    return m == 1 or isqrt(m) ** 2 != m


class FieldParams(NamedTuple):
    """The field Q(sqrt(-m)) and its ring of integers Z[omega], omega held
    by its trace and norm, so omega^2 = trace*omega - norm.

    omega = (1 + sqrt(-m))/2, of trace 1 and norm (m + 1)/4, when
    m = 3 (mod 4), and omega = sqrt(-m), of trace 0 and norm m, otherwise.
    """

    m: int
    trace: int
    norm: int

    def omega_str(self) -> str:
        return f"(1 + sqrt(-{self.m}))/2" if self.trace else f"sqrt(-{self.m})"


def make_field(m: int) -> FieldParams:
    """Q(sqrt(-m)) and omega's trace and norm; m must be positive, square-free and below 2^64."""
    if m < 1:
        raise ParameterError(f"m must be a positive integer, got {m}")
    if m >= M_LIMIT:
        raise ParameterError(f"m must be below 2^64, got {m}")
    if not is_square_free(m):
        raise ParameterError(f"m must be square-free, got {m}")
    return FieldParams(m, 1, (m + 1) // 4) if m % 4 == 3 else FieldParams(m, 0, m)


class CurveParams(NamedTuple):
    """A lattice <1, tau>, tau = (a + b*omega)/c, and its multiplier ring.

    The ring is kept as the four integers the package reads of it: N,
    gen_trace, delta_prime and conductor.  make_curve derives them from the
    integers trace_num = c*tr(tau), det_num = c^2*det(tau) and
    g = gcd(c, det_num).  With c_prime = c/g the ring is R = <1, N*tau>,
    N = g*c_prime^2 = c^2/g; its generator N*tau has trace
    gen_trace = trace_num*c_prime and norm N*delta_prime, where
    delta_prime = det_num/g.  The conductor, the index of R in the maximal
    order Z[omega], is |b|*c_prime.
    """

    field: FieldParams
    a: int
    b: int
    c: int
    N: int
    gen_trace: int
    delta_prime: int
    conductor: int

    def tau_str(self) -> str:
        return f"({self.a} + {self.b}*omega)/{self.c}"


def make_curve(field: FieldParams, a: int, b: int, c: int) -> CurveParams:
    """Build curve parameters for tau = (a + b*omega)/c.

    Requires gcd(a, b, c) = 1 and b != 0 (tau non-real).  A negative c is
    normalized by negating the whole triple; non-primitive triples are
    rejected rather than reduced, so stored parameters are canonical.
    """
    if b == 0:
        raise ParameterError("b = 0 makes tau real")
    if c == 0:
        raise ParameterError("c must be nonzero")
    if max(abs(a), abs(b), abs(c)) >= COORD_LIMIT:
        raise ParameterError("|a|, |b| and |c| of tau must be below 2^64")
    if gcd(gcd(a, b), c) != 1:
        raise ParameterError(f"gcd(a, b, c) must be 1, got ({a}, {b}, {c})")
    if c < 0:
        a, b, c = -a, -b, -c
    # tr and norm of a + b*omega, from omega^2 = trace*omega - norm.
    trace_num = 2 * a + b * field.trace
    det_num = a * a + a * b * field.trace + b * b * field.norm
    g = gcd(c, det_num)
    c_prime = c // g
    curve = CurveParams(
        field=field,
        a=a,
        b=b,
        c=c,
        N=g * c_prime * c_prime,
        gen_trace=trace_num * c_prime,
        delta_prime=det_num // g,
        conductor=abs(b) * c_prime,
    )
    # Content of the primitive minimal polynomial of tau is 1; everything
    # downstream (cokernel comparisons, projectivity of the lattice) leans
    # on this, so fail loudly if it ever breaks, also under python -O.
    if gcd(gcd(curve.N, curve.gen_trace), curve.delta_prime) != 1:
        raise AssertionError("minimal polynomial of tau is not primitive")
    return curve


def order_curve(curve: CurveParams) -> CurveParams:
    """The curve C/R whose lattice is the ring R of `curve`; `curve` itself when N = 1.

    Its tau is N*tau = c_prime*(a + b*omega), so it has N = 1, delta_prime
    N*delta_prime and the same gen_trace and conductor.  It is built here,
    not by make_curve: c_prime*a may pass that function's 2^64 input limit.
    """
    c_prime = curve.conductor // abs(curve.b)
    a, b, d = c_prime * curve.a, c_prime * curve.b, curve.N * curve.delta_prime
    return curve._replace(a=a, b=b, c=1, N=1, delta_prime=d)


def format_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Join (coeff, monomial) pairs as in "-x^2 + 3*x - 1", leading term first.

    Zero coefficients are skipped, a coefficient of magnitude 1 on a
    monomial is left out, an empty monomial is a constant, and "0" stands
    for a sum without nonzero terms.
    """
    pieces: list[str] = []
    for coeff, mono in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        if pieces:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        else:
            pieces.append(body if coeff > 0 else f"-{body}")
    return " ".join(pieces) if pieces else "0"


class MinPoly(NamedTuple):
    """Integer quadratic lead*X^2 + lin*X + const."""

    lead: int
    lin: int
    const: int

    @property
    def discriminant(self) -> int:
        return self.lin * self.lin - 4 * self.lead * self.const

    def __str__(self) -> str:
        return format_terms(((self.lead, "x^2"), (self.lin, "x"), (self.const, "")))


def min_poly(curve: CurveParams) -> MinPoly:
    """Primitive minimal polynomial of tau over Z.

    Equals N times the rational minimal polynomial X^2 - tr(tau)*X + det(tau).
    Its content is 1 by the coprimality make_curve asserts, and its
    discriminant N^2*(tr(tau)^2 - 4*det(tau)) is negative because tau is
    non-real.
    """
    return MinPoly(curve.N, -curve.gen_trace, curve.delta_prime)
