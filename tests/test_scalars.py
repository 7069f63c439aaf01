import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hamop.scalars import (
    GaussianRational,
    format_rational,
    parse_ratio,
    parse_rational,
    rational_sqrt,
)


def test_comparison_with_rationals():
    assert GaussianRational.of(Fraction(3, 2)) == Fraction(3, 2)
    assert GaussianRational.of(1, 1) != 1
    assert bool(GaussianRational.of(0, 0)) is False


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_format():
    assert format_rational(Fraction(-4)) == "-4/1"
    assert str(GaussianRational.of(1, -1)) == "1/1-1/1i"
    assert str(GaussianRational.of(Fraction(1, 2))) == "1/2"


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), ("+4/6", Fraction(2, 3)), ("0/5", Fraction(0)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1e3", "1e999999999", "1.5", ".5", " 1", "1/2 ", "1_000", "1/-2", "", "/2", "inf", "\u0663",
])
def test_parse_rational_takes_only_integers_and_p_over_q(text):
    with pytest.raises(ValueError, match="expected an integer or p/q"):
        parse_rational(text)


def test_parse_rational_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def _fraction_parse(text):
    """The parser as it read rationals through ``Fraction(text)``: the same
    regex in front, and a zero denominator mapped to ValueError."""
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError("expected an integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as ex:
        return str(ex)


_RATIONAL_LIKE = st.one_of(
    st.text(alphabet="0123456789+-/ e._\u0663\u00b2\uff11", max_size=9),
    st.builds(lambda sign, p, slash, q: f"{sign}{p}{slash}{q}",
              st.sampled_from(["", "+", "-", "--", " "]), st.integers(0, 10**30),
              st.sampled_from(["", "/", "//", "e", " / "]),
              st.one_of(st.just(""), st.integers(0, 10**12).map(str))),
)


@given(_RATIONAL_LIKE)
def test_integer_parser_reads_what_fraction_read(text):
    old = _outcome(_fraction_parse, text)
    new = _outcome(parse_ratio, text)
    if isinstance(old, str):
        assert new == old and _outcome(parse_rational, text) == old
    else:
        p, q = new
        assert q > 0 and gcd(p, q) == 1 and Fraction(p, q) == old
        assert parse_rational(text) == old


def test_integer_parser_gives_lowest_terms():
    assert parse_ratio("-6/4") == (-3, 2)
    assert parse_ratio("2/4") == parse_ratio("1/2") == (1, 2)
    assert parse_ratio("-0/7") == (0, 1)
    assert parse_ratio("+12") == (12, 1)
