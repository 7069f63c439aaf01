"""sympy as a differential oracle for ``hamop.poly``.

Seeded random polynomials in up to 5 variables, of total degree up to 12 and
with rational coefficients over large denominators, are run through
``MultiPoly`` and through sympy's ``Poly`` over QQ; the results must agree
exactly (``poly_gcd`` and ``RationalFunction`` up to the constant that fixes
their canonical scaling)."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hamop.poly import MultiPoly, RationalFunction, divide_exact, poly_gcd  # noqa: E402

SEEDS = range(10)


def _poly(rng, nvars, nterms, max_deg):
    terms = {}
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**12))
    return MultiPoly(nvars, terms)


def _gens(nvars):
    return sympy.symbols(f"u1:{nvars + 1}")


def _to_sympy(p: MultiPoly):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * p.nvars: 0}, *_gens(p.nvars), domain="QQ")


def _from_sympy(s, nvars) -> MultiPoly:
    return MultiPoly(
        nvars, {e: Fraction(int(c.p), int(c.q)) for e, c in s.as_dict().items()}
    )


def _same(p: MultiPoly, s) -> bool:
    return p == _from_sympy(s, p.nvars)


def _case(seed, max_deg=12):
    rng = random.Random(seed)
    nvars = rng.randint(1, 5)
    return rng, nvars, [_poly(rng, nvars, rng.randint(1, 12), max_deg) for _ in range(2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations_match_sympy(seed):
    rng, nvars, (a, b) = _case(seed)
    sa, sb = _to_sympy(a), _to_sympy(b)
    assert _same(a * b, sa * sb)
    assert _same(a + b, sa + sb)
    assert _same(a - b, sa - sb)
    assert _same(a - a, sa - sa)
    for k in range(1, nvars + 1):
        assert _same(a.partial(k), sa.diff(_gens(nvars)[k - 1]))
    small = _poly(rng, nvars, 4, 3)
    for k in (0, 1, 2, 3):
        assert _same(small**k, _to_sympy(small) ** k)


@pytest.mark.parametrize("seed", SEEDS)
def test_substitute_matches_sympy(seed):
    rng, nvars, (a, _) = _case(seed)
    gens = _gens(nvars)
    values = {
        k: Fraction(rng.randint(-50, 50), rng.randint(1, 10**9))
        for k in rng.sample(range(1, nvars + 1), rng.randint(1, nvars))
    }
    expr = _to_sympy(a).as_expr().subs(
        {gens[k - 1]: sympy.Rational(v.numerator, v.denominator) for k, v in values.items()}
    )
    assert _same(a.substitute(values), sympy.Poly(expr, *gens, domain="QQ"))


@pytest.mark.parametrize("seed", SEEDS)
def test_divide_exact_matches_sympy(seed):
    rng, nvars, (a, b) = _case(seed, max_deg=6)
    sa, sb = _to_sympy(a), _to_sympy(b)
    # exact: (a*b)/b
    assert divide_exact(a * b, b) == a
    q, r = sympy.div(sa * sb, sb)
    assert r.is_zero and _same(a, q)
    # inexact unless sympy finds a zero remainder
    f = a * b + _poly(rng, nvars, 3, 6)
    q, r = sympy.div(_to_sympy(f), sb)
    ours = divide_exact(f, b)
    if r.is_zero:
        assert ours is not None and _same(ours, q)
    else:
        assert ours is None


def _proportional(p: MultiPoly, s):
    """The constant c with p == c*s, or None if there is none."""
    if s.is_zero:
        return None
    c = Fraction(p.leading()[1]) / Fraction(*map(int, s.LC(order="grlex").as_numer_denom()))
    return c if p == _from_sympy(s, p.nvars) * c else None


def _is_canonical(p: MultiPoly) -> bool:
    """Integer coefficients, coprime, positive leading coefficient."""
    cs = [c for _, c in p.sorted_terms()]
    g = 0
    for c in cs:
        g = sympy.igcd(g, c.numerator)
    return all(c.denominator == 1 for c in cs) and g == 1 and cs[0] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_gcd_matches_sympy_up_to_scaling(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    g, a, b = (_poly(rng, nvars, rng.randint(1, 4), 4) for _ in range(3))
    x, y = g * a, g * b
    d = poly_gcd(x, y)
    assert _is_canonical(d)
    assert _proportional(d, sympy.gcd(_to_sympy(x), _to_sympy(y))) is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_function_matches_cancel(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    g, a, b = (_poly(rng, nvars, rng.randint(1, 4), 4) for _ in range(3))
    r = RationalFunction(g * a, g * b)
    p, q = sympy.fraction(sympy.cancel(_to_sympy(g * a).as_expr() / _to_sympy(g * b).as_expr()))
    gens = _gens(nvars)
    sp, sq = sympy.Poly(p, *gens, domain="QQ"), sympy.Poly(q, *gens, domain="QQ")
    c = _proportional(r.den, sq)
    assert c is not None and _is_canonical(r.den)
    assert r.num == _from_sympy(sp, nvars) * c


@pytest.mark.parametrize("seed", SEEDS)
def test_to_str_order_is_sympy_grlex(seed):
    _, nvars, (a, _) = _case(seed)
    names = [f"u{k}" for k in range(1, nvars + 1)]
    parts = []
    for e, c in _to_sympy(a).terms(order="grlex"):
        factors = [f"{c.p}/{c.q}"]
        factors += [n if x == 1 else f"{n}^{x}" for n, x in zip(names, e) if x]
        parts.append("*".join(factors))
    assert a.to_str() == " + ".join(parts)
    assert [e for e, _ in a.sorted_terms()] == [e for e, _ in _to_sympy(a).terms(order="grlex")]
