import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hamop.poly import (
    MAX_DEGREE,
    MultiPoly,
    RationalFunction,
    divide_exact,
    poly_gcd,
)

from conftest import u_vars


def random_poly(rng, nvars, max_terms=5, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(nvars, terms)


def test_arith_examples():
    u1, u2 = u_vars(2)
    assert (u1 + 1) * (u1 - 1) == u1 * u1 - 1
    p = random_poly(random.Random(1), 2)
    assert (p * 0).is_zero()
    assert (2 * u1 + 3 * u2) + (-2 * u1) == 3 * u2


def test_nvars_mismatch():
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 1) + MultiPoly.variable(3, 1)


def test_partial_derivative_examples():
    u1, u2 = u_vars(2)
    assert (u1 * u2).partial(1) == u2
    assert MultiPoly.const(2, 7).partial(2).is_zero()
    # entry (1,1) of the n=3, k=0 shifted bivector is -4*u1 (coefficient
    # 3*2 - 10); its u3-derivative vanishes
    from hamop.families import mu_bivector

    m = mu_bivector(3, 0)
    assert m[0, 0] == -4 * MultiPoly.variable(3, 1)
    assert m[0, 0].partial(3).is_zero()
    with pytest.raises(ValueError):
        (u1 * u2).partial(3)


def test_eval_examples():
    u1, u2 = u_vars(2)
    assert (u1 * u1 - 1).eval([Fraction(3), Fraction(0)]) == 8
    from hamop.families import mu_bivector

    m = mu_bivector(3, 0)
    assert m[0, 0].eval([1, 1, 1]) == -4
    rng = random.Random(3)
    p = random_poly(rng, 2)
    assert p.eval([0, 0]) == p.constant_value()
    with pytest.raises(ValueError):
        p.eval([1])


def test_eval_commutes_with_arith():
    rng = random.Random(11)
    for _ in range(40):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        pt = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a - b).eval(pt) == a.eval(pt) - b.eval(pt)


def test_leibniz_rule():
    rng = random.Random(13)
    for _ in range(40):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        for k in (1, 2, 3):
            assert (a * b).partial(k) == a.partial(k) * b + a * b.partial(k)


def test_canonical_serialization():
    u1, u2 = u_vars(2)
    assert (-4 * u1).to_str() == "-4/1*u1"
    p = u1 * u1 * u2 + u2 - Fraction(1, 3)
    # graded-lex descending: u1^2*u2, then u2, then the constant
    assert p.to_str() == "1/1*u1^2*u2 + 1/1*u2 + -1/3"
    assert MultiPoly.zero(2).to_str() == "0/1"
    assert p.to_str(names=["x", "y"]) == "1/1*x^2*y + 1/1*y + -1/3"


def test_substitute_and_extend():
    u1, u2, u3 = u_vars(3)
    p = u1 * u3 + 2 * u2
    q = p.substitute({3: Fraction(5)})
    assert q == 5 * u1 + 2 * u2
    small = q.extended(2)
    assert small.nvars == 2
    with pytest.raises(ValueError):
        p.extended(2)  # u3 in use
    # a slot map: u1 -> u4, u2 unused and dropped, u3 -> u1
    assert (u1 * u3 * u3 + 3).extended(4, [4, 0, 1]) == MultiPoly(
        4, {(2, 0, 0, 1): 1, (0, 0, 0, 0): 3}
    )
    with pytest.raises(ValueError):
        p.extended(4, [4, 4, 1])  # u1 and u2 both to u4


def test_affine_parts_split_the_u_block():
    # p = (u1 + 2 u2 k + 3) / 6 in (u1, u2, k) with the u-block (u1, u2):
    # the parts are ints where constant, polynomials in k otherwise
    u1, u2, k = u_vars(3)
    p = (u1 + 2 * u2 * k + 3) / 6
    den, parts = p.affine_parts(2)
    assert den == 6 and parts[:2] == [3, 1] and parts[2] == 2 * k
    rebuilt = parts[0] + u1 * parts[1] + u2 * parts[2]
    assert rebuilt / den == p
    assert MultiPoly.zero(3).affine_parts(2) == (1, [0, 0, 0])
    for nonlinear in (u1 * u1, u1 * u2 * k, u2 * u2 + u1):
        assert nonlinear.affine_parts(2) is None
    assert (u1 * k * k).affine_parts(2) == (1, [0, k * k, 0])
    # a block wider than the ring reads every variable and pads with zeros
    v1, v2 = u_vars(2)
    assert (3 * v1 - v2 + 2).affine_parts(4) == (1, [2, 3, -1, 0, 0])
    # from_affine_parts is the inverse, and refuses a part that is not integral
    assert MultiPoly.from_affine_parts(3, den, parts) == p
    for part in (Fraction(1, 2), k / 2):
        with pytest.raises(ValueError):
            MultiPoly.from_affine_parts(3, 1, [0, part])


def test_divide_exact():
    u1, u2 = u_vars(2)
    f = (u1 + u2) * (u1 - 2 * u2 + 1)
    assert divide_exact(f, u1 + u2) == u1 - 2 * u2 + 1
    assert divide_exact(f, u1 + 1) is None
    assert divide_exact(MultiPoly.zero(2), u1) == MultiPoly.zero(2)


def test_poly_gcd_randomized():
    rng = random.Random(17)
    for _ in range(25):
        g = random_poly(rng, 2, max_terms=3, max_deg=2)
        if g.is_zero():
            continue
        a = g * random_poly(rng, 2, max_terms=3, max_deg=2)
        b = g * random_poly(rng, 2, max_terms=3, max_deg=2)
        if a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a, b)
        assert divide_exact(a, d) is not None
        assert divide_exact(b, d) is not None
        assert divide_exact(d, poly_gcd(g, d)) is not None


def test_rational_function_normalization():
    u1, u2 = u_vars(2)
    r = RationalFunction((u1 + u2) * (u1 - u2), (u1 + u2) * (u1 + 2))
    # gcd is removed and the denominator has positive integer-primitive lead
    assert r.num == u1 - u2
    assert r.den == u1 + 2
    # denominator scaling: -2/(-4*u2) normalizes to (1/2)/u2 with the
    # denominator integer-primitive and positive-leading
    r2 = RationalFunction(MultiPoly.const(2, -2), -4 * u2)
    assert r2.num == MultiPoly.const(2, Fraction(1, 2))
    assert r2.den == u2
    with pytest.raises(ZeroDivisionError):
        RationalFunction(u1, MultiPoly.zero(2))


def test_rational_function_arithmetic():
    u1, u2 = u_vars(2)
    a = RationalFunction(u1, u2)
    b = RationalFunction(u2, u1)
    assert (a * b) == RationalFunction(MultiPoly.const(2, 1))
    s = a + b
    assert s == RationalFunction(u1 * u1 + u2 * u2, u1 * u2)
    assert (a - a).is_zero()
    assert a.partial(1) == RationalFunction(MultiPoly.const(2, 1), u2)
    # quotient rule: d/du2 (u1/u2) = -u1/u2^2
    assert a.partial(2) == RationalFunction(-u1, u2 * u2)
    assert a.eval([Fraction(3), Fraction(2)]) == Fraction(3, 2)


def test_degree_beyond_the_packing_width_raises():
    u1, u2 = u_vars(2)
    top = u1**MAX_DEGREE
    assert top.terms == {(MAX_DEGREE, 0): 1}
    with pytest.raises(OverflowError):
        top * u1
    # each exponent fits its field, but the total degree does not
    with pytest.raises(OverflowError):
        top * u2
    with pytest.raises(OverflowError):
        u1 ** (MAX_DEGREE + 1)
    with pytest.raises(OverflowError):
        MultiPoly(2, {(MAX_DEGREE, 1): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 1): 1})


def test_equal_polynomials_from_different_routes_hash_equal():
    u1, u2 = u_vars(2)
    half_third = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 3)})
    routes = [
        half_third,
        (3 * u1 + 2) * Fraction(1, 6),
        (9 * u1 + 6) / 18,
        u1 / 2 + Fraction(1, 3) + (u2 / 5 - u2 * Fraction(2, 10)),
        divide_exact((u1 * Fraction(3, 7) + Fraction(2, 7)) * (u2 - 1), (u2 - 1) * 6 / 7),
    ]
    for p in routes:
        assert p == half_third and hash(p) == hash(half_third)
    one = Fraction(1, 2) * u1 + Fraction(1, 2) * u1 - u1 + 1
    assert one == 1 and hash(one) == hash(MultiPoly.const(2, 1))
    assert hash(half_third - half_third) == hash(MultiPoly.zero(2))
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (random_poly(rng, 3) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert hash((a + b) * c) == hash(a * c + b * c)


_polys = st.integers(1, 4).flatmap(
    lambda n: st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * n),
        st.fractions(max_denominator=10**6).filter(bool),
        min_size=1,
        max_size=12,
    ).map(lambda t: MultiPoly(n, t))
)


@given(_polys)
def test_sorted_terms_are_descending_grlex(p):
    keys = [(sum(e), e) for e, _ in p.sorted_terms()]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    assert dict(p.sorted_terms()) == p.terms
    assert p.leading() == p.sorted_terms()[0]
