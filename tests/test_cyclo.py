import random
from fractions import Fraction

import pytest

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
    v = 2 + zeta(8).scale(3)
    w = v.conj()
    assert w == 2 + zeta(8, 7).scale(3)
    assert abs(w.embed() - v.embed().conjugate()) < 1e-12


def test_as_integer_and_rational():
    assert (zeta(3) + zeta(3, 2) + 2).as_integer() == 1
    assert zeta(5).as_integer() is None
    half = Cyclo.from_rational(Fraction(1, 2), 6)
    assert half.as_rational() == Fraction(1, 2)
    assert half.as_integer() is None


def test_mixed_conductor_arithmetic():
    # zeta_6 = 1 + zeta_3 inside Q(zeta_6)
    assert zeta(6) == 1 + zeta(3)
    v = zeta(2) + zeta(3)
    assert v.conductor == 6
    assert abs(v.embed() - (-1 + zeta(3).embed())) < 1e-12


def test_conductor_cap():
    with pytest.raises(SpecError):
        zeta(10**6 + 1)
    with pytest.raises(SpecError):
        _ = zeta(999983) + zeta(3)  # lcm pushes past the cap


def test_coeffs_in_lowest_terms():
    v = Cyclo.from_coeffs(5, [Fraction(2, 4), Fraction(-3, 6), 0, 0])
    assert v.coeffs() == (Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(0))


def _random_cyclo(rng: random.Random, n: int) -> Cyclo:
    coeffs = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))
    ]
    ks = [rng.randrange(n) for _ in coeffs]
    total = Cyclo.from_rational(0, n)
    for c, k in zip(coeffs, ks):
        total = total + zeta(n, k).scale(c)
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
        assert (a - a).is_zero()


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
    assert parse_cyclo("1/2 - 3/2*z^3", 8) == Cyclo.from_coeffs(
        8, [Fraction(1, 2), 0, 0, Fraction(-3, 2)]
    )
    assert parse_cyclo("0", 7).is_zero()
    with pytest.raises(SpecError):
        parse_cyclo("2z", 5)
    with pytest.raises(SpecError):
        parse_cyclo("", 5)


def test_zeta_power_wraps_mod_conductor():
    assert zeta(6, 7) == zeta(6, 1)
    assert zeta(4, 2).as_integer() == -1
    assert zeta(1).as_integer() == 1
