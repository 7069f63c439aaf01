"""sympy as a differential oracle for the integer Segre path.

``roots.char_poly`` (Berkowitz over Z) is checked against
``Matrix.charpoly``, ``linsolve.int_rank`` against ``Matrix.rank``, the
ranks of a Gaussian eigenvalue read off its real quadratic factor against
the ranks over Q(i) of the powers of A - lambda I, ``roots.rational_roots``
against every root in Q(i) that ``factor_list`` and ``roots`` give, with
its multiplicity, and the monic rest, and the per-point partitions of
``spectral.spectrum_at_point`` against ``Matrix.jordan_form`` on every
catalog entry with n <= 4 and on seeded corpus pencils at n = 2 and 3, at
two seeded points each, and on integer matrices P J P^-1 with unimodular P
and a known Jordan form J, one for every kind of partition (simple, one
block, all 1s, mixed) with rational and with Gaussian eigenvalues, and two
Gaussian pairs of the same partition; at a point where the characteristic
polynomial does not split over Q(i), ``spectrum_at_point`` must give
None."""

import random
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from hamop.catalog import catalog  # noqa: E402
from hamop.linsolve import int_rank, mat_mul  # noqa: E402
from hamop.matrices import PolyMatrix  # noqa: E402
from hamop.poly import MultiPoly  # noqa: E402
from hamop.roots import char_poly, rational_roots  # noqa: E402
from hamop.scalars import GaussianRational  # noqa: E402
from hamop.pointcheck import sample_points  # noqa: E402
from hamop.spectral import SEGRE_RANGE, affinor, spectrum_at_point  # noqa: E402

from conftest import JORDAN_CASES, corpus_pairs, jordan_conjugate, jordan_id  # noqa: E402

SEEDS = range(6)


def _low_rank(rng, rows, cols, bound):
    """A seeded integer rows x cols matrix of rank at most k, k random."""
    k = rng.randint(0, min(rows, cols))
    left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@pytest.mark.parametrize("seed", SEEDS)
def test_berkowitz_is_sympy_charpoly(seed):
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    for n in range(1, 7):
        for bound in (3, 10**6):
            a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            want = sympy.Matrix(a).charpoly(x).all_coeffs()[::-1]
            assert char_poly(a) == [int(c) for c in want]
        # a repeated eigenvalue: a nilpotent part plus a multiple of I
        a = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
        a = [[v + 5 * (i == j) for j, v in enumerate(row)] for i, row in enumerate(a)]
        assert char_poly(a) == [int(c) for c in sympy.Matrix(a).charpoly(x).all_coeffs()[::-1]]


@pytest.mark.parametrize("seed", SEEDS)
def test_berkowitz_skips_zeros_exactly(seed):
    # dense and mostly zero matrices: zero entries and zero Toeplitz
    # coefficients are skipped, every coefficient stays an int
    rng = random.Random(1000 + seed)
    x = sympy.Symbol("x")
    for n in range(1, 7):
        for density in (1.0, 0.3, 0.1):
            a = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                 for _ in range(n)]
            cp = char_poly(a)
            assert all(type(c) is int for c in cp)
            assert cp == [int(c) for c in sympy.Matrix(a).charpoly(x).all_coeffs()[::-1]]


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_ranks_are_sympy_ranks(seed):
    rng = random.Random(seed)
    for _ in range(15):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _low_rank(rng, rows, cols, rng.choice((3, 10**6)))
        assert int_rank(m) == sympy.Matrix(m).rank()


GAUSSIAN_CASES = [c for c in JORDAN_CASES if any(kind == "C" for kind, *_ in c)]


@pytest.mark.parametrize("case", GAUSSIAN_CASES, ids=[jordan_id(c) for c in GAUSSIAN_CASES])
def test_gaussian_ranks_are_the_quadratic_factor_ranks(case):
    # for lambda = r + s i, rank over Q(i) of (A - lambda I)^k is
    # n - (n - rank B^k) / 2 with the integer B = (A - r I)^2 + s^2 I, for
    # k = 1..n: the identity by which spectrum_at_point ranks lambda
    a, partitions = jordan_conjugate(case, random.Random(2))
    n = len(a)
    for v in (v for v in partitions if isinstance(v, GaussianRational)):
        assert v.re.denominator == v.im.denominator == 1
        r, s = v.re.numerator, v.im.numerator
        x = [[e - r * (i == j) for j, e in enumerate(row)] for i, row in enumerate(a)]
        b = [[e + s * s * (i == j) for j, e in enumerate(row)]
             for i, row in enumerate(mat_mul(x, x))]
        shifted = sympy.Matrix(a) - (r + s * sympy.I) * sympy.eye(n)
        power, bk = shifted, b
        for k in range(1, n + 1):
            assert power.rank() == n - (n - int_rank(bk)) // 2, (v, k)
            power, bk = (power * shifted).applyfunc(sympy.expand), mat_mul(bk, b)


X = sympy.Symbol("x")


def _seeded_polynomial(rng, split=False):
    """A product of seeded factors with multiplicities, times a rational
    constant: linear factors with non-unit leading coefficients, quadratics
    with a Gaussian pair (q x - p)^2 + t^2, quadratics with a real
    irrational or rational pair, and random cubics and quartics (mostly
    irreducible).  A ``split`` one has linear factors and, first, a
    Gaussian pair of multiplicity 2 or 3 only."""
    p = sympy.Rational(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 12))
    kinds = ("linear", "gaussian") if split else ("linear", "linear", "gaussian", "real", "high")
    for k in range(rng.randint(1, 4)):
        kind = "gaussian" if split and k == 0 else rng.choice(kinds)
        if kind == "linear":
            f = rng.randint(1, 6) * X - rng.randint(-40, 40)
        elif kind == "gaussian":
            f = (rng.randint(1, 4) * X - rng.randint(-9, 9)) ** 2 + rng.randint(1, 7) ** 2
        elif kind == "real":
            f = rng.randint(1, 3) * X**2 + rng.randint(-9, 9) * X - rng.randint(1, 20)
        else:
            f = sum(rng.randint(-5, 5) * X**k for k in range(rng.randint(3, 4))) + X ** rng.randint(3, 4) * rng.randint(1, 3)
        p *= f ** (rng.choice((2, 3)) if split and k == 0 else rng.choice((1, 1, 2, 3)))
    return sympy.Poly(sympy.expand(p), X, domain="QQ")


def _coeffs(poly):
    """Dense ascending Fraction coefficients of a sympy Poly over QQ."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def _expected_roots(poly):
    """(rational roots, Gaussian roots, monic residual over Q(i)) from
    sympy's irreducible factors: a linear factor gives a rational root, a
    quadratic whose ``roots`` lie in Q(i) a conjugate pair, and every other
    factor stays in the residual."""
    rational, gaussian, residual = {}, {}, sympy.Poly(1, X, domain="QQ")
    for f, m in sympy.factor_list(poly)[1]:
        values = [_field_value(r) for r in sympy.roots(f)] if f.degree() <= 2 else [None]
        if None in values:
            residual *= f ** m
            continue
        for v in values:
            into = gaussian if isinstance(v, GaussianRational) else rational
            into[v] = into.get(v, 0) + m
    return rational, gaussian, residual.monic()


def _root_factor(v):
    """The monic irreducible factor over Q of a Fraction or of a Gaussian
    rational with its conjugate."""
    if isinstance(v, GaussianRational):
        re, im = (sympy.Rational(x.numerator, x.denominator) for x in (v.re, v.im))
        return sympy.Poly((X - re) ** 2 + im**2, X, domain="QQ")
    return sympy.Poly(X - sympy.Rational(v.numerator, v.denominator), X, domain="QQ")


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_roots_are_sympy_roots(seed):
    # every root in Q(i) with its multiplicity; the residual is the monic
    # rest
    rng = random.Random(seed)
    kinds = set()
    for k in range(12):
        poly = _seeded_polynomial(rng, split=k < 2)
        c = _coeffs(poly)
        rational, gaussian, residual = _expected_roots(poly)
        for coeffs in (c, _integer_multiple(c)):
            rep = rational_roots(coeffs)
            assert (rep.rational, rep.gaussian) == (rational, gaussian), poly
            got = sympy.Poly([sympy.Rational(x.numerator, x.denominator)
                              for x in reversed(rep.residual)], X, domain="QQ")
            assert got == residual, poly
            assert rep.fully_split == (residual.degree() == 0)
            # one quadratic per conjugate pair
            split = sympy.Poly(1, X, domain="QQ")
            for v, m in [*rep.rational.items(), *((v, m) for v, m in rep.gaussian.items() if v.im > 0)]:
                split *= _root_factor(v) ** m
            assert got * split == poly.monic(), poly
        kinds |= {("repeated", m > 1) for m in rep.rational.values()}
        kinds |= {("gaussian", m) for m in rep.gaussian.values()}
        kinds.add(("residual degree >= 3", residual.degree() >= 3))
        kinds.add(("non-monic", c[-1] != 1))
    assert {("repeated", True), ("residual degree >= 3", True), ("non-monic", True)} <= kinds
    assert any(k[0] == "gaussian" and k[1] > 1 for k in kinds), kinds


def _integer_multiple(c):
    """The coefficients as ints, times the lcm of their denominators."""
    mult = 1
    for x in c:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    return [int(x * mult) for x in c]


def _field_value(v):
    """A sympy eigenvalue as a Fraction or GaussianRational, or None when it
    lies outside Q(i)."""
    re, im = sympy.re(v), sympy.im(v)
    if not (re.is_Rational and im.is_Rational):
        return None
    re, im = Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))
    return GaussianRational(re, im) if im else re


def _splits_over_q_i(m):
    """Whether sympy's characteristic polynomial of m splits over Q(i)."""
    chi = sympy.Matrix(m).charpoly(X)
    _, _, residual = _expected_roots(sympy.Poly(chi.as_expr(), X, domain="QQ"))
    return residual.degree() == 0


def _jordan_partitions(m):
    """{eigenvalue: descending block sizes} from sympy's Jordan form."""
    _, j = sympy.Matrix(m).jordan_form()
    n = j.rows
    out = {}
    i = 0
    while i < n:
        size = 1
        while i + size < n and j[i + size - 1, i + size] == 1:
            size += 1
        out.setdefault(_field_value(j[i, i]), []).append(size)
        i += size
    return {v: tuple(sorted(p, reverse=True)) for v, p in out.items()}


def _check_points(L, metrics, n):
    """spectrum_at_point against sympy at two seeded points; returns how
    many of them split over Q(i)."""
    split = 0
    for pt in sample_points(L.nvars, metrics, 7, 2, SEGRE_RANGE):
        lp = [[sympy.Rational(v.numerator, v.denominator) for v in (x.eval(pt) for x in row)]
              for row in L.entries]
        got = spectrum_at_point(L, pt, n)
        if not _splits_over_q_i(lp):
            assert got is None
            continue
        split += 1
        assert {b.value: b.partition for b in got.blocks} == _jordan_partitions(lp)
    return split


ENTRIES = [e for e in catalog() if e.n <= 4 and e.d >= 2]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.id for e in ENTRIES])
def test_point_partitions_are_sympy_jordan_forms(entry):
    spec = entry.spec
    L = affinor(spec.metrics[0], spec.metrics[1])
    assert _check_points(L, spec.metrics, spec.n) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_corpus_point_partitions_are_sympy_jordan_forms(n):
    g, hs = corpus_pairs(n, random.Random(60 + n))
    split = [_check_points(affinor(g, h), [g, h], n) for h in hs]
    # the corpus reaches both branches: split points and points where the
    # characteristic polynomial has a factor outside Q(i)
    assert sum(split) > 0 and sum(2 - s for s in split) > 0


def _scaled_partitions(partitions, q):
    """The partitions of A / q: every eigenvalue divided by q."""
    return {(GaussianRational(v.re / q, v.im / q) if isinstance(v, GaussianRational)
             else v / q): p for v, p in partitions.items()}


@pytest.mark.parametrize("case", JORDAN_CASES, ids=[jordan_id(c) for c in JORDAN_CASES])
def test_jordan_conjugates_are_sympy_jordan_forms(case):
    # the affinor A / q, constant in u, at one point; q = 3 gives
    # eigenvalues outside the integers
    a, partitions = jordan_conjugate(case, random.Random(1))
    assert _jordan_partitions(a) == partitions
    n = len(a)
    for q in (1, 3):
        L = PolyMatrix([[MultiPoly.const(n, Fraction(x, q)) for x in row] for row in a])
        got = spectrum_at_point(L, [Fraction(1)] * n, n)
        assert {b.value: b.partition for b in got.blocks} == _scaled_partitions(partitions, q)
