from fractions import Fraction

import pytest

from steinberg.fields import PrimeField, Rationals, field_from_designator, is_prime


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_rationals_arithmetic_exact():
    k = Rationals()
    a = k.coerce(Fraction(1, 3))
    b = k.coerce(Fraction(1, 6))
    assert k.add(a, b) == Fraction(1, 2)
    assert k.mul(a, b) == Fraction(1, 18)
    assert k.sub(a, b) == Fraction(1, 6)
    assert k.invert(a) == 3
    assert k.characteristic == 0


def test_rationals_rejects_floats():
    k = Rationals()
    with pytest.raises(TypeError):
        k.coerce(0.5)


def test_rationals_scalar_round_trip():
    k = Rationals()
    for num in range(-6, 7):
        for den in range(1, 5):
            a = Fraction(num, den)
            assert Fraction(k.format_scalar(a)) == a
    # coefficients always carry the denominator, matching the element syntax
    assert k.format_scalar(Fraction(3, 1)) == "3/1"
    assert k.format_scalar(Fraction(-1, 2)) == "-1/2"


def test_prime_field_arithmetic():
    k = PrimeField(7)
    assert k.characteristic == 7
    for a in range(7):
        for b in range(7):
            assert k.add(a, b) == (a + b) % 7
            assert k.mul(a, b) == (a * b) % 7
            assert k.sub(a, b) == (a - b) % 7
    for a in range(1, 7):
        assert k.mul(a, k.invert(a)) == 1
    with pytest.raises(ZeroDivisionError):
        k.invert(0)


def test_prime_field_rejects_composite_modulus():
    for n in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_prime_field_coerce():
    k = PrimeField(5)
    assert k.coerce(-1) == 4
    assert k.coerce(12) == 2
    assert k.coerce(Fraction(3, 1)) == 3
    with pytest.raises(TypeError):
        k.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        k.coerce(0.5)


def test_prime_field_scalar_format():
    k = PrimeField(5)
    assert k.format_scalar(3) == "3 mod 5"
    assert k.format_scalar(-2) == "3 mod 5"


def test_field_designators():
    assert field_from_designator("q") == Rationals()
    assert field_from_designator("f5") == PrimeField(5)
    assert Rationals().designator == "q"
    assert PrimeField(11).designator == "f11"
    with pytest.raises(ValueError):
        field_from_designator("f4")
    with pytest.raises(ValueError):
        field_from_designator("gf5")


def test_field_equality_and_hash():
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)
    assert Rationals() != PrimeField(3)
    assert hash(PrimeField(3)) == hash(PrimeField(3))
    assert len({Rationals(), Rationals(), PrimeField(2)}) == 2
