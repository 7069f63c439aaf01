"""Exact scalar arithmetic: rationals and Gaussian rationals.

Rational numbers are ``fractions.Fraction`` (arbitrary precision, stored in
lowest terms with positive denominator, which is exactly the invariant we
need).  Gaussian rationals a + b*i with rational a, b are provided on top of
that; they appear as eigenvalues of affinors whose characteristic polynomial
has an irreducible quadratic factor with discriminant minus a square.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

# p/q scalars used everywhere; no floating point enters the verification path.
Rational = Fraction


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if not a square."""
    x = Fraction(x)
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_ratio(text: str) -> tuple[int, int]:
    """(p, q) in lowest terms, q > 0, for the rational written as an integer
    or "p/q" (ASCII digits, optional sign).  Any other text raises
    ValueError, a zero denominator too; the exponent forms that ``Fraction``
    also reads are refused, so a short string cannot stand for a huge
    number."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError("expected an integer or p/q")
    p, _, q = text.partition("/")
    p, q = int(p), int(q or 1)
    if not q:
        raise ValueError("zero denominator")
    g = gcd(p, q)
    return p // g, q // g


def parse_rational(text: str) -> Fraction:
    """``parse_ratio`` as a Fraction."""
    return Fraction(*parse_ratio(text))


def format_rational(x: Fraction) -> str:
    """Serialize as "p/q" (always with explicit denominator)."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class GaussianRational:
    """Element a + b*i of Q(i), closed under +, -, *, / (by nonzero)."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus a^2 + b^2."""
        return self.re * self.re + self.im * self.im

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n2,
            (self.im * o.re - self.re * o.im) / n2,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"
