"""Exact scalars: rationals, and Gaussian rationals as values.

Rational numbers are ``fractions.Fraction`` (arbitrary precision, stored in
lowest terms with positive denominator, which is exactly the invariant we
need).  A Gaussian rational a + b*i with rational a, b is a value, not a
field: it is how ``roots`` reports a conjugate pair of eigenvalues (from an
irreducible quadratic factor whose discriminant is minus a square) and how
``spectral`` and the CLI print them.  It compares, hashes and prints, and
no code path does arithmetic in Q(i): ``spectral`` ranks a Gaussian
eigenvalue through its real quadratic factor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


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
    """The element a + b*i of Q(i); equal to the rational a when b = 0."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

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
