import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from helpers import cyclo_from_coeffs
from hypothesis import given, settings
from hypothesis import strategies as st

from repcorr import cyclo
from repcorr.cyclo import Cyclo, cyclotomic_polynomial, parse_cyclo, zeta
from repcorr.errors import SpecError


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_primitive_root_sums():
    # zeta_3 + zeta_3^2 = -1, zeta_4^2 = -1
    assert (zeta(3) + zeta(3, 2)).as_integer() == -1
    assert (zeta(4) * zeta(4)).as_integer() == -1


def test_golden_ratio_style_product():
    # (1 + zeta_5)(1 + zeta_5^4) = 2 + zeta_5 + zeta_5^4
    lhs = (1 + zeta(5)) * (1 + zeta(5, 4))
    rhs = 2 + zeta(5) + zeta(5, 4)
    assert lhs == rhs


def test_conjugation_example():
    v = 2 + zeta(8) * 3
    w = v.conj()
    assert w == 2 + zeta(8, 7) * 3
    assert abs(w.embed() - v.embed().conjugate()) < 1e-12


def test_as_integer_and_rational():
    assert (zeta(3) + zeta(3, 2) + 2).as_integer() == 1
    assert zeta(5).as_integer() is None
    half = Cyclo.from_rational(Fraction(1, 2)).to_conductor(6)
    assert half.as_rational() == Fraction(1, 2)
    assert half.as_integer() is None


def test_mixed_conductor_arithmetic():
    # zeta_6 = 1 + zeta_3 inside Q(zeta_6)
    assert zeta(6) == 1 + zeta(3)
    v = zeta(2) + zeta(3)
    assert v.conductor == 6
    assert abs(v.embed() - (-1 + zeta(3).embed())) < 1e-12


def test_rational_minus_cyclo():
    # int - Cyclo and Fraction - Cyclo go through Cyclo.__rsub__
    assert 1 - zeta(4) == parse_cyclo("1 - z", 4)
    assert Fraction(1, 2) - zeta(3) == parse_cyclo("1/2 - z", 3)
    with pytest.raises(TypeError):
        _ = "x" - zeta(3)


def test_conductor_cap():
    with pytest.raises(SpecError):
        zeta(10**6 + 1)
    with pytest.raises(SpecError):
        _ = zeta(999983) + zeta(3)  # lcm pushes past the cap


def test_coeffs_in_lowest_terms():
    v = cyclo_from_coeffs(5, [Fraction(2, 4), Fraction(-3, 6), 0, 0])
    assert tuple(Fraction(x, v.den) for x in v.nums) == (Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(0))


def _random_cyclo(rng: random.Random, n: int) -> Cyclo:
    coeffs = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))
    ]
    ks = [rng.randrange(n) for _ in coeffs]
    total = Cyclo.from_rational(0).to_conductor(n)
    for c, k in zip(coeffs, ks):
        total = total + zeta(n, k) * c
    return total


def test_ring_axioms_randomized():
    rng = random.Random(11)
    conductors = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 18, 20, 24]
    for _ in range(1000):
        n = rng.choice(conductors)
        a, b, c = (_random_cyclo(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        assert a - a == 0


def test_embedding_oracle_randomized():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.choice([3, 4, 5, 7, 8, 12, 24])
        a = _random_cyclo(rng, n)
        b = _random_cyclo(rng, n)
        assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9
        assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-9
        assert abs(a.conj().embed() - a.embed().conjugate()) < 1e-9


def test_hash_is_exact_and_conductor_invariant():
    assert hash(zeta(4, 2)) == hash(-1) == hash(Cyclo.from_rational(-1))
    assert hash(zeta(6)) == hash(zeta(6).to_conductor(60))
    assert len({zeta(6), zeta(6).to_conductor(60), -zeta(3, 2)}) == 1
    rng = random.Random(14)
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])
        a = _random_cyclo(rng, n)
        assert hash(a) == hash(a.to_conductor(n * rng.choice([2, 3, 5, 7])))


def test_text_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 5, 8, 12])
        a = _random_cyclo(rng, n)
        assert parse_cyclo(a.text(), n) == a


def test_parse_cyclo_forms():
    assert parse_cyclo("2 + z", 5) == 2 + zeta(5)
    assert parse_cyclo("-z^2", 5) == -zeta(5, 2)
    assert parse_cyclo("1/2 - 3/2*z^3", 8) == cyclo_from_coeffs(
        8, [Fraction(1, 2), 0, 0, Fraction(-3, 2)]
    )
    assert parse_cyclo("0", 7) == 0
    with pytest.raises(SpecError):
        parse_cyclo("2z", 5)
    with pytest.raises(SpecError):
        parse_cyclo("", 5)


def test_zeta_power_wraps_mod_conductor():
    assert zeta(6, 7) == zeta(6, 1)
    assert zeta(4, 2).as_integer() == -1
    assert zeta(1).as_integer() == 1


# ---------------------------------------------------------------------------
# Phi_n and the reduction mod Phi_n as they were before the Moebius product:
# x^n - 1 divided by Phi_d for every proper divisor d, and a long division by
# the whole of Phi_n. Kept verbatim as oracles.


def _reference_poly_divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    # den is monic with integer coefficients, so quotient and remainder stay integral
    num = list(num)
    d = len(den) - 1
    q = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                num[i - d + j] -= c * den[j]
    return q, num[:d]


@lru_cache(maxsize=None)
def _reference_cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise SpecError(f"conductor must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _reference_poly_divmod_monic(num, _reference_cyclotomic_polynomial(d))
            assert not any(r), f"Phi_{d} does not divide x^{n}-1"
            num = q
    return tuple(num)


def _reference_reduce_mod_phi(coeffs: list[int], n: int) -> tuple[int, ...]:
    phi = cyclo._phi(n)
    if len(coeffs) > phi:
        _, coeffs = _reference_poly_divmod_monic(coeffs, _reference_cyclotomic_polynomial(n))
    coeffs = list(coeffs) + [0] * (phi - len(coeffs))
    return tuple(coeffs[:phi])


def test_moebius_product_matches_the_division_oracle():
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == _reference_cyclotomic_polynomial(n), n


def test_reduction_matches_the_division_oracle():
    rng = random.Random(15)
    for n in range(1, 211):
        phi = cyclo._phi(n)
        for size in (0, 1, phi, phi + 1, n, 2 * n + 1):
            coeffs = [rng.randint(-9, 9) for _ in range(size)]
            assert cyclo._reduce_mod_phi(list(coeffs), n) == _reference_reduce_mod_phi(coeffs, n), n


def test_phi_of_a_large_squarefree_conductor_is_quick():
    # The division oracle takes minutes here: x^30030 - 1 divided by the 63
    # smaller Phi_d.
    start = time.perf_counter()
    phi = cyclotomic_polynomial(30030)
    assert time.perf_counter() - start < 5
    assert len(phi) == cyclo._phi(30030) + 1 and phi[-1] == 1
    # Phi_2m(x) = Phi_m(-x) for odd m; 15015 = 3*5*7*11*13
    assert phi == tuple(-c if k % 2 else c for k, c in enumerate(cyclotomic_polynomial(15015)))


def test_exponents_are_read_mod_the_conductor():
    assert cyclo_from_coeffs(3, [0, 0, 0, 1]).as_integer() == 1
    assert parse_cyclo("z^7 - z^13", 6) == 0
    assert parse_cyclo("1/2 + 2*z^5 - z^9", 12).conj() == parse_cyclo("1/2 + 2*z^7 - z^3", 12)
    assert zeta(5, -1) == zeta(5, 4)


def test_nonpositive_conductors_are_refused():
    for call in (lambda: cyclotomic_polynomial(0), lambda: zeta(0)):
        with pytest.raises(SpecError, match=r"^conductor must be positive, got 0$"):
            call()


def test_embedding_needs_a_multiple_of_the_conductor():
    with pytest.raises(SpecError, match=r"^cannot embed conductor 3 element into Q\(zeta_4\)$"):
        zeta(3).to_conductor(4)


# ---------------------------------------------------------------------------
# The arithmetic as it was before every value was formed in `_from_terms`: a
# second normaliser `_make`, a dense product `_poly_mul`, operands embedded
# in pairs by `_pair`, and `scale` for a rational multiple. Kept verbatim as
# oracles, as functions of their operands (renamed `_reference_*`), with the
# old `_from_terms`, which normalised through `_make`.


def _reference_make(conductor: int, nums, den: int) -> Cyclo:
    if den == 0:
        raise ZeroDivisionError("cyclotomic element with zero denominator")
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    g = math.gcd(den, *nums) if any(nums) else den
    if g > 1:
        den //= g
        nums = [x // g for x in nums]
    return Cyclo(conductor, tuple(nums), den)


def _reference_from_terms(conductor: int, terms, den: int) -> Cyclo:
    nums: list[int] = []
    for k, c in terms:
        k %= conductor
        if k >= len(nums):
            nums += [0] * (k + 1 - len(nums))
        nums[k] += c
    return _reference_make(conductor, cyclo._reduce_mod_phi(nums, conductor), den)


def _reference_poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _reference_to_conductor(x: Cyclo, n: int) -> Cyclo:
    if n == x.conductor:
        return x
    step = n // x.conductor
    return _reference_from_terms(n, ((k * step, c) for k, c in enumerate(x.nums) if c), x.den)


def _reference_pair(x: Cyclo, y: Cyclo) -> tuple[Cyclo, Cyclo]:
    n = math.lcm(x.conductor, y.conductor)
    return _reference_to_conductor(x, n), _reference_to_conductor(y, n)


def _reference_add(x: Cyclo, y: Cyclo) -> Cyclo:
    a, b = _reference_pair(x, y)
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    nums = [fa * x + fb * y for x, y in zip(a.nums, b.nums)]
    return _reference_make(a.conductor, nums, den)


def _reference_mul(x: Cyclo, y: Cyclo) -> Cyclo:
    a, b = _reference_pair(x, y)
    nums = _reference_poly_mul(a.nums, b.nums) if a.nums and b.nums else [0]
    return _reference_make(a.conductor, cyclo._reduce_mod_phi(nums, a.conductor), a.den * b.den)


def _reference_scale(x: Cyclo, value) -> Cyclo:
    value = Fraction(value)
    nums = [value.numerator * c for c in x.nums]
    return _reference_make(x.conductor, nums, x.den * value.denominator)


def _reference_eq(x: Cyclo, y: Cyclo) -> bool:
    a, b = _reference_pair(x, y)
    return a.nums == b.nums and a.den == b.den


def _fields(x: Cyclo) -> tuple:
    return x.conductor, x.nums, x.den


@st.composite
def _values(draw):
    """A value of Q(zeta_n), n in 1..60, from a few fractional terms, zero
    when there are none or they cancel."""
    n = draw(st.integers(1, 60))
    terms = draw(st.lists(st.tuples(st.integers(0, 2 * n), st.fractions(-5, 5, max_denominator=6)),
                          max_size=4))
    coeffs = [Fraction(0)] * (2 * n + 1)
    for k, c in terms:
        coeffs[k] += c
    return cyclo_from_coeffs(n, coeffs)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_values(), _values(), st.fractions(-7, 7, max_denominator=9))
def test_arithmetic_matches_the_two_normaliser_oracle(a, b, q):
    assert _fields(a + b) == _fields(_reference_add(a, b))
    assert _fields(a - b) == _fields(_reference_add(a, -b))
    assert _fields(a * b) == _fields(_reference_mul(a, b))
    assert _fields(a * q) == _fields(q * a) == _fields(_reference_scale(a, q))
    assert _fields(a * int(q)) == _fields(_reference_scale(a, int(q)))
    assert (a == b) == _reference_eq(a, b)
    assert a == _reference_to_conductor(a, a.conductor * 6) == a.to_conductor(a.conductor * 6)
    assert _fields(a.to_conductor(a.conductor * 6)) == _fields(_reference_to_conductor(a, a.conductor * 6))


def test_the_oracle_cases_include_zero_and_mixed_conductors():
    zero = Cyclo.from_rational(0)
    for a, b in ((zero, zeta(7)), (zeta(12, 5) * Fraction(3, 4), zeta(20)), (zero, zero)):
        assert _fields(a + b) == _fields(_reference_add(a, b))
        assert _fields(a * b) == _fields(_reference_mul(a, b))
    assert _fields(zeta(12) * 0) == _fields(_reference_scale(zeta(12), 0)) == (12, (0, 0, 0, 0), 1)
