"""sympy as a differential oracle for the integer Segre path.

``roots.char_poly`` (Berkowitz over Z) is checked against
``Matrix.charpoly``, ``linsolve.int_rank`` and ``linsolve.gaussian_rank``
against ``Matrix.rank``, and the per-point partitions of
``spectral.spectrum_at_point`` against ``Matrix.jordan_form`` on every
catalog entry with n <= 4, at two seeded points each."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hamop.catalog import catalog  # noqa: E402
from hamop.linsolve import gaussian_rank, int_rank  # noqa: E402
from hamop.roots import char_poly  # noqa: E402
from hamop.scalars import GaussianRational  # noqa: E402
from hamop.spectral import affinor, segre_sample_points, spectrum_at_point  # noqa: E402

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
def test_integer_ranks_are_sympy_ranks(seed):
    rng = random.Random(seed)
    for _ in range(15):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _low_rank(rng, rows, cols, rng.choice((3, 10**6)))
        assert int_rank(m) == sympy.Matrix(m).rank()
    for _ in range(8):
        # a sum of k outer products of Gaussian integer vectors
        n = rng.randint(1, 4)
        z = sympy.zeros(n, n)
        for _ in range(rng.randint(0, n)):
            u, v = (sympy.Matrix([rng.randint(-3, 3) + rng.randint(-3, 3) * sympy.I
                                  for _ in range(n)]) for _ in "uv")
            z += u * v.T
        z = z.expand()
        x = [[int(sympy.re(v)) for v in z.row(i)] for i in range(n)]
        y = [[int(sympy.im(v)) for v in z.row(i)] for i in range(n)]
        assert gaussian_rank(x, y) == z.rank()


def _field_value(v):
    """A sympy eigenvalue as a Fraction or GaussianRational, or None when it
    lies outside Q(i)."""
    re, im = sympy.re(v), sympy.im(v)
    if not (re.is_Rational and im.is_Rational):
        return None
    re, im = Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))
    return GaussianRational(re, im) if im else re


def _jordan_partitions(m):
    """{eigenvalue: descending block sizes} from sympy's Jordan form, or
    None when an eigenvalue lies outside Q(i)."""
    _, j = sympy.Matrix(m).jordan_form()
    n = j.rows
    out = {}
    i = 0
    while i < n:
        size = 1
        while i + size < n and j[i + size - 1, i + size] == 1:
            size += 1
        value = _field_value(j[i, i])
        if value is None:
            return None
        out.setdefault(value, []).append(size)
        i += size
    return {v: tuple(sorted(p, reverse=True)) for v, p in out.items()}


ENTRIES = [e for e in catalog() if e.n <= 4 and e.d >= 2]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.id for e in ENTRIES])
def test_point_partitions_are_sympy_jordan_forms(entry):
    spec = entry.spec
    L = affinor(spec.metrics[0], spec.metrics[1])
    for pt in segre_sample_points(L.nvars, seed=7, count=2, metrics=spec.metrics):
        lp = L.at_point(pt)
        want = _jordan_partitions([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                   for row in lp])
        got = spectrum_at_point(L, pt, spec.n)
        if want is None:
            assert got is None
        else:
            assert {b.value: b.partition for b in got.blocks} == want
