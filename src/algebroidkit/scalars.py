"""Exact Gaussian-rational scalars.

The ground field of the whole kit is Q(i): every coefficient is a + b*i with
a, b rational.  Plain rationals embed with b = 0.  Arithmetic never rounds,
equality is decidable, and i*i = -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class Scalar:
    """A Gaussian rational a + b*i, immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def i() -> "Scalar":
        return _I

    @staticmethod
    def of(value: Union["Scalar", RationalLike]) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- arithmetic --------------------------------------------------------

    # Fraction arithmetic on Fractions returns Fractions, so these results go
    # through _from_fractions instead of being converted again.

    def __add__(self, other: "Scalar") -> "Scalar":
        return _from_fractions(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return _from_fractions(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return _from_fractions(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _from_fractions(a * c, _FRACTION_ZERO)
        return _from_fractions(a * c - b * d, a * d + b * c)

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            sign = "-" if self.im < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(self.im)}i" if parts or sign == "-" else f"{self.im}i")
        return "".join(parts)

    def as_quadruple(self) -> dict:
        """Serialize as the {num, den, inum, iden} integer quadruple."""
        return {
            "num": self.re.numerator,
            "den": self.re.denominator,
            "inum": self.im.numerator,
            "iden": self.im.denominator,
        }

    @staticmethod
    def from_quadruple(q: dict) -> "Scalar":
        return Scalar(Fraction(q["num"], q["den"]), Fraction(q["inum"], q["iden"]))


_FRACTION_ZERO = Fraction(0)


def _from_fractions(re: Fraction, im: Fraction) -> Scalar:
    """A Scalar from two Fractions, stored as they are (no Fraction() call)."""
    out = object.__new__(Scalar)
    object.__setattr__(out, "re", re)
    object.__setattr__(out, "im", im)
    return out


_ZERO = Scalar(0)
_ONE = Scalar(1)
_I = Scalar(0, 1)

ONE = _ONE
ZERO = _ZERO
MINUS_ONE = Scalar(-1)


def sign_scalar(exponent: int) -> Scalar:
    """(-1)**exponent as a Scalar."""
    return MINUS_ONE if exponent % 2 else ONE
