import random
from math import gcd, isqrt

import pytest

from ellmat import (
    EllipticArrangement,
    ParameterError,
    RingMatrix,
    dual_arrangement,
    make_curve,
    make_field,
    min_poly,
)
from ellmat.quadratic_order import MinPoly, _is_square_free, order_curve
from support import (
    curve_half_i,
    curve_omega3,
    curve_sqrt3,
    curve_third_sqrt2,
    generator_index_oracle,
    is_square_free_by_trial,
    matrix_corpus,
    ring_mul,
    ring_norm,
    square_free_sieve,
)


def test_make_field_half_integral():
    # omega = (1 + sqrt(-m))/2 has trace 1 and norm (m + 1)/4.
    assert make_field(3) == (3, 1, 1)
    assert (make_field(7).trace, make_field(7).norm) == (1, 2)
    assert (make_field(15).trace, make_field(15).norm) == (1, 4)


def test_make_field_pure_imaginary():
    # omega = sqrt(-m) has trace 0 and norm m.
    for m in (1, 2, 5, 6):
        field = make_field(m)
        assert (field.trace, field.norm) == (0, m)


def test_make_field_rejects_bad_m():
    for m in (4, 9, 12, 18, 0, -3):
        with pytest.raises(ParameterError):
            make_field(m)
    # make_field's own square-free step, on the m its range check lets through.
    assert not _is_square_free(8)
    assert _is_square_free(30)
    # 2^64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417 is the largest m taken.
    assert make_field((1 << 64) - 1).m == (1 << 64) - 1
    with pytest.raises(ParameterError):
        make_field(1 << 64)


def test_is_square_free_matches_trial_division():
    # From m = 1: make_field refuses m <= 0 before its square-free step.
    flags = square_free_sieve(200000)
    assert [m for m in range(1, 200000) if _is_square_free(m) != flags[m]] == []


def test_is_square_free_near_the_cube_root():
    # Trial division stops at the cube root, so primes just around it are
    # the cases the cofactor test has to get right: p^2 q and p q r with
    # p, q, r near the cube root, and p^2, p q with p, q above it.
    def primes_from(start, count):
        out, n = [], start
        while len(out) < count:
            if all(n % d for d in range(2, isqrt(n) + 1)):
                out.append(n)
            n += 1
        return out

    for start in (20, 100, 1000, 30000, 10**6):
        p, q, r = primes_from(start, 3)
        cases = {
            p * p: False,
            p * q: True,
            p * p * q: False,
            p * q * q: False,
            p * q * r: True,
            p**3: False,
            2 * p * p: False,
            2 * p * q: True,
        }
        for m, expected in cases.items():
            assert _is_square_free(m) is expected, m
            if m < 10**10:
                assert is_square_free_by_trial(m) is expected, m


def test_make_curve_sqrt_minus_three():
    curve = curve_sqrt3()
    assert (curve.gen_trace, curve.delta_prime) == (0, 3)
    assert curve.N == 1
    assert curve.conductor == 2


def test_make_curve_omega():
    curve = curve_omega3()
    assert curve.N == 1
    assert curve.conductor == 1
    assert (curve.gen_trace, curve.delta_prime) == (1, 1)


def test_make_curve_half_i():
    curve = curve_half_i()
    assert curve.N == 4
    assert curve.conductor == 2
    # R = <1, N*tau> = <1, 2i>, and 2i has norm N*delta_prime = 4.
    assert curve.delta_prime == 1
    assert curve.gen_trace == 0


def test_make_curve_normalizes_negative_c():
    field = make_field(3)
    curve = make_curve(field, 1, -2, -1)
    assert (curve.a, curve.b, curve.c) == (-1, 2, 1)
    assert curve == curve_sqrt3()


def test_make_curve_rejections():
    field = make_field(3)
    with pytest.raises(ParameterError):
        make_curve(field, 2, 2, 2)
    with pytest.raises(ParameterError):
        make_curve(field, 1, 0, 1)
    with pytest.raises(ParameterError):
        make_curve(field, 1, 1, 0)


def test_min_poly_values():
    assert (min_poly(curve_sqrt3()).lead, min_poly(curve_sqrt3()).lin, min_poly(curve_sqrt3()).const) == (1, 0, 3)
    assert (min_poly(curve_omega3()).lead, min_poly(curve_omega3()).lin, min_poly(curve_omega3()).const) == (1, -1, 1)
    assert (min_poly(curve_half_i()).lead, min_poly(curve_half_i()).lin, min_poly(curve_half_i()).const) == (4, 0, 1)
    assert str(min_poly(curve_sqrt3())) == "x^2 + 3"
    assert str(min_poly(curve_omega3())) == "x^2 - x + 1"
    assert min_poly(curve_sqrt3()).discriminant == -12
    assert str(MinPoly(-1, 0, -1)) == "-x^2 - 1"
    assert str(MinPoly(2, 1, 3)) == "2*x^2 + x + 3"
    assert str(MinPoly(-3, -1, -5)) == "-3*x^2 - x - 5"


def _valid_triples():
    for m in (1, 2, 3, 7, 15):
        field = make_field(m)
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(1, 5):
                    if b != 0 and gcd(gcd(a, b), c) == 1:
                        yield field, a, b, c


def test_generator_index_matches_brute_force_oracle():
    for field, a, b, c in _valid_triples():
        curve = make_curve(field, a, b, c)
        assert curve.N == generator_index_oracle(field, a, b, c), (field.m, a, b, c)


def test_derived_constants_invariants():
    for field, a, b, c in _valid_triples():
        curve = make_curve(field, a, b, c)
        assert gcd(gcd(curve.N, curve.gen_trace), curve.delta_prime) == 1
        assert curve.conductor >= 1


def test_order_curve_is_the_curve_of_the_ring():
    # C/R has tau = N*tau = c_prime*(a + b*omega) over c = 1: make_curve
    # builds the same curve wherever its inputs stay below 2^64.
    corpus = [mat.curve for mat in matrix_corpus(500)]
    triples = [make_curve(*triple) for triple in _valid_triples()]
    for curve in corpus + triples:
        c_prime = curve.conductor // abs(curve.b)
        over = order_curve(curve)
        assert over == make_curve(curve.field, c_prime * curve.a, c_prime * curve.b, 1)
        assert (over == curve) == (curve.N == 1)
    assert len(corpus) == 500 and {c.N for c in corpus} == {1, 4, 9}
    # Here c_prime = c, so c_prime*a is about 2^126.
    big = make_curve(make_field(1), 2**63, 1, 2**63 + 1)
    over = order_curve(big)
    assert (over.a, over.b, over.c, over.N) == ((2**63 + 1) * 2**63, 2**63 + 1, 1, 1)
    assert over.delta_prime == big.N * big.delta_prime
    with pytest.raises(ParameterError, match="below 2\\^64"):
        make_curve(big.field, over.a, over.b, 1)


def test_min_poly_has_tau_as_root_exactly():
    # With c^2 cleared, tau = (a + b*omega)/c is a root when
    # N*(a + b*omega)^2 - gen_trace*c*(a + b*omega) + delta_prime*c^2 = 0,
    # computed on pairs x + y*omega of Z[omega] from omega's own relation,
    # read off m and not off the field's trace and norm.
    for field, a, b, c in _valid_triples():
        curve = make_curve(field, a, b, c)
        if field.m % 4 == 3:
            square = (a * a - b * b * ((field.m + 1) // 4), 2 * a * b + b * b)
        else:
            square = (a * a - b * b * field.m, 2 * a * b)
        poly = min_poly(curve)
        assert (poly.lead, poly.lin, poly.const) == (curve.N, -curve.gen_trace, curve.delta_prime)
        value = (
            poly.lead * square[0] + poly.lin * c * a + poly.const * c * c,
            poly.lead * square[1] + poly.lin * c * b,
        )
        assert value == (0, 0), (field.m, a, b, c)
        assert gcd(gcd(poly.lead, poly.lin), poly.const) == 1
        assert poly.discriminant < 0


def _conj(curve, u: tuple[int, int]) -> tuple[int, int]:
    """Conjugation as the library computes it: the A^H row of the stacked
    arrangement of a 1 x 1 arrangement."""
    single = EllipticArrangement(RingMatrix(curve, 1, [[u]]))
    return dual_arrangement(single)[0].matrix.entries[1][0]


def _add(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return u[0] + v[0], u[1] + v[1]


def test_ring_multiplication_examples():
    sqrt3 = curve_sqrt3()
    assert ring_mul(sqrt3, (1, 1), (1, -1)) == (4, 0)

    half_i = curve_half_i()
    assert ring_mul(half_i, (0, 1), (0, 1)) == (-4, 0)

    alpha = (3, -2)
    assert ring_mul(sqrt3, alpha, (1, 0)) == alpha


def test_conj_examples():
    sqrt3 = curve_sqrt3()
    assert _conj(sqrt3, (1, 1)) == (1, -1)
    assert _conj(sqrt3, (5, 0)) == (5, 0)
    assert _conj(curve_omega3(), (0, 1)) == (1, -1)


def test_ring_operation_properties():
    rng = random.Random(11)
    # The last two curves have gen_trace 1 and 2, where conj(a*b) = conj(a)*conj(b)
    # tells conjugation from the wrong-sign map (x - s*y, -y); at trace 0 the two agree.
    curves = (
        curve_sqrt3(),
        curve_half_i(),
        curve_third_sqrt2(),
        curve_omega3(),
        make_curve(make_field(1), 1, 2, 1),
    )
    for curve in curves:
        for _ in range(100):
            a, b, c = ((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3))
            ab = ring_mul(curve, a, b)
            assert ring_mul(curve, ab, c) == ring_mul(curve, a, ring_mul(curve, b, c))
            assert ab == ring_mul(curve, b, a)
            assert ring_mul(curve, a, _add(b, c)) == _add(ab, ring_mul(curve, a, c))
            assert _conj(curve, _conj(curve, a)) == a
            assert _conj(curve, ab) == ring_mul(curve, _conj(curve, a), _conj(curve, b))
            assert _conj(curve, _add(a, b)) == _add(_conj(curve, a), _conj(curve, b))


def test_norm_is_positive_definite():
    rng = random.Random(12)
    for curve in (curve_sqrt3(), curve_half_i(), curve_third_sqrt2()):
        assert ring_norm(curve, (0, 0)) == 0
        for _ in range(50):
            a = (rng.randint(-9, 9), rng.randint(-9, 9))
            product = ring_mul(curve, a, _conj(curve, a))
            assert product[1] == 0
            assert product[0] == ring_norm(curve, a)
            assert product[0] >= 0
            assert (product[0] == 0) == (a == (0, 0))


def test_integer_scaling():
    a = (2, -1)
    assert ring_mul(curve_sqrt3(), (3, 0), a) == (6, -3)
    assert ring_mul(curve_sqrt3(), a, (0, 0)) == (0, 0)
