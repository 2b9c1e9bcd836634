"""Exact Gaussian-rational scalars.

The ground field of the whole kit is Q(i): every coefficient is a + b*i with
a, b rational.  Plain rationals embed with b = 0.  Arithmetic never rounds,
equality is decidable, and i*i = -1.

A Scalar is stored as three ints, (n_re + n_im*i) / den, over one common
denominator.  The triple is always reduced: den > 0 and
gcd(n_re, n_im, den) == 1.  So every value has exactly one triple (zero is
(0, 0, 1)), and equality and hashing compare triples.  Arithmetic works on
ints only and reduces with one three-argument gcd, skipped when the
denominator is 1.

Every exact sum of the kit goes through one accumulator, a table of
unreduced triples (``Sums``): ``_add_multiple`` adds terms, and each entry
is reduced once, when its sum is complete (``_reduced_items``).  A value
with many such sums, one per key, is a ``Coefficients`` table, which
``algebra._reduced_values`` finishes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, Iterable, List, Tuple, Union

RationalLike = Union[int, Fraction]


class Scalar:
    """A Gaussian rational a + b*i, hashable and never mutated.

    The fields n_re, n_im, den hold the reduced triple and are not assigned
    after construction (the hash depends on them).
    """

    __slots__ = ("n_re", "n_im", "den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # ints and Fractions both carry numerator and denominator, so an int
        # argument builds no Fraction
        q, s = re.denominator, im.denominator
        self.n_re, self.n_im, self.den = _reduced(re.numerator * s, im.numerator * q, q * s)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def rational(num: int, den: int = 1) -> "Scalar":
        """num/den from two ints, without building a Fraction.

        +1 and -1 come back as the shared ONE and MINUS_ONE, which the
        products recognise with ``is`` and do not multiply by.
        """
        n_re, _, den = _reduced(num, 0, den)
        if den == 1 and n_re * n_re == 1:
            return ONE if n_re == 1 else MINUS_ONE
        return _triple(n_re, 0, den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.n_re and not self.n_im

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        d, f = self.den, other.den
        if d == f:
            return _reduce(self.n_re + other.n_re, self.n_im + other.n_im, d)
        return _reduce(self.n_re * f + other.n_re * d, self.n_im * f + other.n_im * d, d * f)

    def __sub__(self, other: "Scalar") -> "Scalar":
        d, f = self.den, other.den
        if d == f:
            return _reduce(self.n_re - other.n_re, self.n_im - other.n_im, d)
        return _reduce(self.n_re * f - other.n_re * d, self.n_im * f - other.n_im * d, d * f)

    def __neg__(self) -> "Scalar":
        return _triple(-self.n_re, -self.n_im, self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, e = self.n_re, self.n_im, other.n_re, other.n_im
        if not b and not e:
            return _reduce(a * c, 0, self.den * other.den)
        return _reduce(a * c - b * e, a * e + b * c, self.den * other.den)

    def inverse(self) -> "Scalar":
        # d / (a + b i) = d (a - b i) / (a^2 + b^2), a positive denominator
        a, b, d = self.n_re, self.n_im, self.den
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _reduce(d * a, -d * b, n)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.n_re == other.n_re and self.n_im == other.n_im and self.den == other.den

    def __hash__(self) -> int:
        # the hash of the (re, im) Fraction pair; hash(Fraction(n)) == hash(n)
        if self.den == 1:
            return hash((self.n_re, self.n_im))
        return hash((Fraction(self.n_re, self.den), Fraction(self.n_im, self.den)))

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        # each part as str(Fraction) writes it: "n" or "n/d", reduced
        n_re, n_im, den = self.n_re, self.n_im, self.den
        if not n_im:
            return _part(n_re, den)
        im = _part(n_im, den) + "i"
        if not n_re:
            return im
        return _part(n_re, den) + ("+" if n_im > 0 else "") + im

    def as_quadruple(self) -> dict:
        """Serialize as the {num, den, inum, iden} integer quadruple.

        The real and imaginary parts are reduced separately (0 is 0/1).
        """
        g = gcd(self.n_re, self.den)
        h = gcd(self.n_im, self.den)
        return {
            "num": self.n_re // g,
            "den": self.den // g,
            "inum": self.n_im // h,
            "iden": self.den // h,
        }


_new = object.__new__


def _triple(n_re: int, n_im: int, den: int) -> Scalar:
    """The Scalar of a triple that is already reduced."""
    out = _new(Scalar)
    out.n_re = n_re
    out.n_im = n_im
    out.den = den
    return out


def _part(n: int, den: int) -> str:
    """n/den in lowest terms, as text, for den > 0: one gcd, none when den == 1."""
    if den == 1:
        return str(n)
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _reduce(n_re: int, n_im: int, den: int) -> Scalar:
    """The Scalar of a triple with den > 0: one gcd, none when den == 1."""
    if den != 1:
        g = gcd(n_re, n_im, den)
        if g != 1:
            n_re //= g
            n_im //= g
            den //= g
    return _triple(n_re, n_im, den)


def _reduced(n_re: int, n_im: int, den: int) -> Tuple[int, int, int]:
    """The reduced triple of (n_re + n_im i) / den for any nonzero den."""
    if not den:
        raise ZeroDivisionError("Scalar with zero denominator")
    if den < 0:
        n_re, n_im, den = -n_re, -n_im, -den
    if den == 1:
        return n_re, n_im, 1
    g = gcd(n_re, n_im, den)
    return n_re // g, n_im // g, den // g


_ZERO = Scalar(0)
_ONE = Scalar(1)

ONE = _ONE
MINUS_ONE = Scalar(-1)


def sign_scalar(exponent: int) -> Scalar:
    """(-1)**exponent as a Scalar."""
    return MINUS_ONE if exponent % 2 else ONE


# A coefficient table while its terms are summed: {index: [n_re, n_im, den]},
# each entry the unreduced Gaussian-integer triple of (n_re + n_im i) / den
# with den > 0.
Sums = Dict[int, List[int]]

# A value while its terms are summed: one coefficient sum per key, a key
# being a basis, generator or letter index or a word.  Every element made
# from it is made by the one finisher, ``algebra._reduced_values``.
Coefficients = Dict[Hashable, Sums]


def _add_multiple(out: Sums, pairs: Iterable[Tuple[int, Scalar]], n_re: int, n_im: int, den: int) -> None:
    """out += (n_re + n_im i) / den * x for the element x with the (index,
    Scalar) pairs given, without reducing: the one way a term enters a sum
    (a term parsed from a model file, which has no Scalar, is added the same
    way by ``modelio._add_terms``).  Entries over one denominator add
    numerators."""
    for k, c in pairs:
        c_re, c_im = c.n_re, c.n_im
        t_re, t_im, t_den = n_re * c_re - n_im * c_im, n_re * c_im + n_im * c_re, den * c.den
        old = out.get(k)
        if old is None:
            out[k] = [t_re, t_im, t_den]
        elif old[2] == t_den:
            old[0] += t_re
            old[1] += t_im
        else:
            d = old[2]
            old[0] = old[0] * t_den + t_re * d
            old[1] = old[1] * t_den + t_im * d
            old[2] = d * t_den


def _reduced_items(out: Sums) -> Tuple[Tuple[int, Scalar], ...]:
    """The nonzero entries of out in index order, each reduced by one
    ``_reduce``; a single entry is not sorted."""
    items = []
    for k in sorted(out) if len(out) > 1 else out:
        n_re, n_im, den = out[k]
        if n_re or n_im:
            items.append((k, _reduce(n_re, n_im, den)))
    return tuple(items)
