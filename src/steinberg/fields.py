"""Exact ground fields: arbitrary-precision rationals and prime fields GF(p).

Scalars are plain values (fractions.Fraction for the rationals, small ints in
[0, p) for GF(p)); all arithmetic goes through a field object so callers never
branch on the representation.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

MAX_PRIME = 2**31


def is_prime(n: int) -> bool:
    """Deterministic trial division; n is bounded by MAX_PRIME so this is cheap."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field of rational numbers, scalars represented as Fraction."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, float):
            raise TypeError("floating point scalars are not accepted")
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def from_integer(self, n: int) -> Fraction:
        return Fraction(n)

    def format_scalar(self, a) -> str:
        return f"{a.numerator}/{a.denominator}"

    @property
    def designator(self) -> str:
        return "q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """GF(p) for a prime p < 2**31, scalars as least nonnegative residues."""

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus must be an int")
        if p >= MAX_PRIME:
            raise ValueError(f"modulus must be below 2**31, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value) -> int:
        if isinstance(value, float):
            raise TypeError("floating point scalars are not accepted")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise TypeError(f"cannot coerce {value} into GF({self.p})")
            value = value.numerator
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        # Fermat: a**(p-2) inverts a mod a prime p.
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def from_integer(self, n: int) -> int:
        return n % self.p

    def format_scalar(self, a) -> str:
        return f"{a % self.p} mod {self.p}"

    @property
    def designator(self) -> str:
        return f"f{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime_field", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_designator(text: str):
    """'q' means the rationals, 'f<p>' means GF(p)."""
    if text == "q":
        return Rationals()
    if text.startswith("f") and text[1:].isdigit():
        return PrimeField(int(text[1:]))
    raise ValueError(f"unknown field designator {text!r} (expected 'q' or 'f<p>')")
