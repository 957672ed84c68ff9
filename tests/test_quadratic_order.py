import random
from math import gcd, isqrt

import pytest

from ellmat import (
    ParameterError,
    RingElement,
    generator,
    is_square_free,
    make_curve,
    make_field,
    min_poly,
)
from ellmat.quadratic_order import IntQuadratic, scalar
from support import (
    curve_half_i,
    curve_omega3,
    curve_sqrt3,
    curve_third_sqrt2,
    generator_index_oracle,
    is_square_free_by_trial,
    square_free_sieve,
)


def test_make_field_half_integral():
    field = make_field(3)
    assert field.half_integral
    assert field.m_prime == 1
    assert make_field(7).m_prime == 2
    assert make_field(15).m_prime == 4


def test_make_field_pure_imaginary():
    for m in (1, 2, 5, 6):
        field = make_field(m)
        assert not field.half_integral
        assert field.m_prime is None


def test_make_field_rejects_bad_m():
    for m in (4, 9, 12, 18, 0, -3):
        with pytest.raises(ParameterError):
            make_field(m)
    assert not is_square_free(8)
    assert is_square_free(30)
    # 2^64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417 is the largest m taken.
    assert make_field((1 << 64) - 1).m == (1 << 64) - 1
    with pytest.raises(ParameterError):
        make_field(1 << 64)


def test_is_square_free_matches_trial_division():
    flags = square_free_sieve(200000)
    assert [m for m in range(200000) if is_square_free(m) != flags[m]] == []


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
            assert is_square_free(m) is expected, m
            if m < 10**10:
                assert is_square_free_by_trial(m) is expected, m


def test_make_curve_sqrt_minus_three():
    curve = curve_sqrt3()
    assert (curve.trace_num, curve.det_num) == (0, 3)
    assert (curve.g, curve.c_prime, curve.delta_prime) == (1, 1, 3)
    assert curve.N == 1
    assert curve.conductor == 2


def test_make_curve_omega():
    curve = curve_omega3()
    assert curve.N == 1
    assert curve.conductor == 1
    assert (curve.trace_num, curve.det_num) == (1, 1)


def test_make_curve_half_i():
    curve = curve_half_i()
    assert curve.det_num == 1
    assert curve.g == 1
    assert curve.N == 4
    # R = <1, N*tau> = <1, 2i>
    assert curve.gen_norm == 4
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
    assert str(IntQuadratic(-1, 0, -1)) == "-x^2 - 1"
    assert str(IntQuadratic(2, 1, 3)) == "2*x^2 + x + 3"
    assert str(IntQuadratic(-3, -1, -5)) == "-3*x^2 - x - 5"


def test_min_poly_has_tau_as_root_numerically():
    # Oracle on the complex side: tau computed from (a + b*omega)/c must be
    # a root of the integer polynomial to floating precision.
    for curve in (curve_sqrt3(), curve_omega3(), curve_half_i(), curve_third_sqrt2()):
        m = curve.field.m
        omega = (1 + 1j * m**0.5) / 2 if curve.field.half_integral else 1j * m**0.5
        tau = (curve.a + curve.b * omega) / curve.c
        poly = min_poly(curve)
        assert abs(poly.lead * tau * tau + poly.lin * tau + poly.const) < 1e-12


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
        assert curve.N == curve.g * curve.c_prime**2
        assert curve.conductor >= 1
        poly = min_poly(curve)
        assert poly.discriminant < 0


def test_ring_multiplication_examples():
    sqrt3 = curve_sqrt3()
    product = RingElement(sqrt3, 1, 1) * RingElement(sqrt3, 1, -1)
    assert (product.x, product.y) == (4, 0)

    half_i = curve_half_i()
    square = generator(half_i) * generator(half_i)
    assert (square.x, square.y) == (-4, 0)

    alpha = RingElement(sqrt3, 3, -2)
    assert alpha * scalar(sqrt3, 1) == alpha


def test_conj_examples():
    sqrt3 = curve_sqrt3()
    assert RingElement(sqrt3, 1, 1).conj() == RingElement(sqrt3, 1, -1)
    assert scalar(sqrt3, 5).conj() == scalar(sqrt3, 5)
    conj_omega = generator(curve_omega3()).conj()
    assert (conj_omega.x, conj_omega.y) == (1, -1)


def test_ring_operation_properties():
    rng = random.Random(11)
    for curve in (curve_sqrt3(), curve_half_i(), curve_third_sqrt2()):
        for _ in range(100):
            a, b, c = (
                RingElement(curve, rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()


def test_norm_is_positive_definite():
    rng = random.Random(12)
    for curve in (curve_sqrt3(), curve_half_i(), curve_third_sqrt2()):
        assert scalar(curve, 0).norm() == 0
        for _ in range(50):
            a = RingElement(curve, rng.randint(-9, 9), rng.randint(-9, 9))
            product = a * a.conj()
            assert product.y == 0
            assert product.x == a.norm()
            assert product.x >= 0
            assert (product.x == 0) == a.is_zero()


def test_mixed_curves_rejected():
    with pytest.raises(ParameterError):
        scalar(curve_sqrt3(), 1) + scalar(curve_omega3(), 1)
    with pytest.raises(ParameterError):
        scalar(curve_sqrt3(), 1) * scalar(curve_half_i(), 1)


def test_integer_scaling():
    a = RingElement(curve_sqrt3(), 2, -1)
    assert 3 * a == RingElement(curve_sqrt3(), 6, -3)
    assert a * 0 == scalar(curve_sqrt3(), 0)
