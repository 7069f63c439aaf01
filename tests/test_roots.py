import random
from fractions import Fraction

import pytest

from hamop.matrices import PolyMatrix, _char_poly
from hamop.poly import MultiPoly
from hamop.roots import char_poly, rational_roots
from hamop.scalars import GaussianRational


# two primes of 26 and 27 digits: no root search may factor their product
PRIMES = 10**25 + 13, 3 * 10**26 + 13


def x_poly():
    return MultiPoly.variable(1, 1)


def test_repeated_rational_roots():
    x = x_poly()
    rep = rational_roots((x - 2) * (x - 2) * (x + 1))
    assert rep.rational == {Fraction(2): 2, Fraction(-1): 1}
    assert not rep.gaussian
    assert rep.fully_split


def test_gaussian_pair():
    x = x_poly()
    rep = rational_roots(x * x + 1)
    assert rep.gaussian == {
        GaussianRational.of(0, 1): 1,
        GaussianRational.of(0, -1): 1,
    }
    assert rep.fully_split


def test_charpoly_of_affinor_at_point():
    # L of the two-component operator at u = (1, 2) is [[2, -2], [0, 2]]
    cp = char_poly([[Fraction(2), Fraction(-2)], [Fraction(0), Fraction(2)]])
    assert cp == [Fraction(4), Fraction(-4), Fraction(1)]
    rep = rational_roots(cp)
    assert rep.rational == {Fraction(2): 2}


def test_residual_factor():
    x = x_poly()
    rep = rational_roots((x * x + x + 1) * (x - 1))
    assert rep.rational == {Fraction(1): 1}
    assert len(rep.residual) == 3 and not rep.fully_split


def test_gaussian_with_multiplicity():
    x = x_poly()
    rep = rational_roots((x * x + 4) * (x * x + 4))
    assert rep.gaussian == {
        GaussianRational.of(0, 2): 2,
        GaussianRational.of(0, -2): 2,
    }


def test_rational_coefficients_and_scaling():
    x = x_poly()
    p = (2 * x - 1) * (3 * x + 2) * (2 * x - 1)
    rep = rational_roots(p)
    assert rep.rational == {Fraction(1, 2): 2, Fraction(-2, 3): 1}


def test_zero_roots_stripped():
    x = x_poly()
    rep = rational_roots(x * x * (x - 3))
    assert rep.rational == {Fraction(0): 2, Fraction(3): 1}


def test_charpoly_large_entries():
    # Berkowitz is division-free, so it is exact over any ring: big
    # rationals too
    a = [[Fraction(10**6, 7), Fraction(1)], [Fraction(0), Fraction(-3, 2)]]
    cp = char_poly(a)
    tr = a[0][0] + a[1][1]
    det = a[0][0] * a[1][1]
    assert cp == [det, -tr, Fraction(1)]


def test_non_univariate_rejected():
    u1 = MultiPoly.variable(2, 1)
    u2 = MultiPoly.variable(2, 2)
    with pytest.raises(ValueError):
        rational_roots(u1 * u2)
    with pytest.raises(ValueError):
        rational_roots(MultiPoly.zero(1))


def _bareiss_det(a):
    """Determinant of an integer matrix by fraction-free Bareiss
    elimination with row swaps."""
    m = [list(r) for r in a]
    n, sign, prev = len(m), 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[c][c] * m[i][j] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * prev


def test_charpoly_of_int_matrix_is_int_and_is_det_x_minus_a():
    rng = random.Random(5)
    for n in range(1, 7):
        a = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        cp = char_poly(a)
        assert len(cp) == n + 1 and cp[-1] == 1
        assert all(type(c) is int for c in cp)
        for x in (-2, 0, 3):
            xa = [[x * (i == j) - a[i][j] for j in range(n)] for i in range(n)]
            assert sum(c * x**k for k, c in enumerate(cp)) == _bareiss_det(xa)


def test_integer_root_test_on_candidates():
    x = x_poly()
    # roots with large coprime numerators and denominators, and a quartic
    # factor with no rational root left once they are divided out
    p = (999 * x - 10**6) * (7 * x + 10**6 + 1) * (x**4 + x + 1)
    rep = rational_roots(p)
    assert rep.rational == {Fraction(10**6, 999): 1, Fraction(-(10**6 + 1), 7): 1}
    assert rep.residual == [1, 1, 0, 0, 1]
    # a constant term 3 P Q with the two large PRIMES
    pq = PRIMES[0] * PRIMES[1]
    rep = rational_roots((x - 3) * (x**3 + x + pq))
    assert rep.rational == {Fraction(3): 1}
    assert rep.residual == [pq, 1, 0, 1]


@pytest.mark.parametrize("n", [2, 3])
def test_charpoly_of_polynomial_matrices(n):
    # chi of a polynomial matrix evaluates to chi of its value at a point,
    # and matrices._char_poly keeps every coefficient a MultiPoly, even a
    # zero one (a traceless matrix, a matrix with zero blocks)
    rng = random.Random(n)
    u = [MultiPoly.variable(n, k) for k in range(1, n + 1)]
    zero = MultiPoly.zero(n)
    cases = [[[sum((rng.randint(-3, 3) * v for v in u), zero) + rng.randint(-2, 2)
               for _ in range(n)] for _ in range(n)] for _ in range(4)]
    traceless = [[u[(i + j) % n] if i != j else zero for j in range(n)] for i in range(n)]
    cases += [traceless, [[zero] * n for _ in range(n)]]
    for a in cases:
        cp = char_poly(a)
        for pt in ([1, -2, 3][:n], [5, 0, -1][:n]):
            value = [[x.int_eval(pt)[0] for x in row] for row in a]
            assert [c.int_eval(pt)[0] if isinstance(c, MultiPoly) else c for c in cp] \
                == char_poly(value)
        c, det = _char_poly(PolyMatrix(a), "determinant")
        assert all(isinstance(x, MultiPoly) and x.nvars == n for x in c)
        assert isinstance(det, MultiPoly)
        assert [x.int_eval([2, 3, 4][:n])[0] for x in c] == \
            char_poly([[x.int_eval([2, 3, 4][:n])[0] for x in row] for row in a])


def _planted(x):
    """(label, polynomial) of planted root structures: (x - a)^m for m up to
    8, rational roots of several multiplicities under a non-monic leading
    coefficient, Gaussian pairs of different and of equal multiplicities
    (two and three pairs in one square-free factor, and pairs under a
    non-monic leading coefficient), and irrational cofactors, square-free
    and repeated, one with a constant term that is a product of the two
    large PRIMES; and the root 20 of x^3 - 19 x^2 - 19 x - 20, whose
    Cauchy bound is B = 21, so that lifting mod 25 > B gives its symmetric
    residue -5 and only a modulus above 2B finds it."""
    pq = PRIMES[0] * PRIMES[1]
    cases = [(f"(x-{a})^{m}", (x - a) ** m)
             for m, a in zip(range(1, 9), (3, -2, 5, -1, 7, 2, -4, 11))]
    cases += [("(2x-3)^5", (2 * x - 3) ** 5),
              ("5(2x-1)^3(3x+2)^2(x-5)", 5 * (2 * x - 1) ** 3 * (3 * x + 2) ** 2 * (x - 5)),
              ("-7(x-1)^4(3x-1)(x+4)^2", -7 * (x - 1) ** 4 * (3 * x - 1) * (x + 4) ** 2),
              ("(x-3)(x^2+1)(x^2+4)^2", (x - 3) * (x**2 + 1) * (x**2 + 4) ** 2),
              ("(x^2+1)(x^2+4)", (x**2 + 1) * (x**2 + 4)),
              ("(x-2)^2(x^3-2)", (x - 2) ** 2 * (x**3 - 2)),
              ("(x-1)^2(x^2+1)^2(x^2-2)^2", (x - 1) ** 2 * (x**2 + 1) ** 2 * (x**2 - 2) ** 2),
              ("(3x+1)^3(x^2+9)^3", (3 * x + 1) ** 3 * (x**2 + 9) ** 3),
              ("(x^2+1)(x^2+4)(x^2+9)", (x**2 + 1) * (x**2 + 4) * (x**2 + 9)),
              ("(4x^2+9)^2(x^2+2x+5)^2", (4 * x**2 + 9) ** 2 * (x**2 + 2 * x + 5) ** 2),
              ("(x^2+1)(x^2+4)(x-3)(x^3+x+PQ)",
               (x**2 + 1) * (x**2 + 4) * (x - 3) * (x**3 + x + pq)),
              ("(x-20)(x^2+x+1)", (x - 20) * (x**2 + x + 1))]
    return cases


@pytest.mark.parametrize("label", [label for label, _ in _planted(1)])
def test_planted_roots_are_sympy_roots(label):
    # every root in Q(i) with its multiplicity, and the monic rest
    oracle = pytest.importorskip("test_spectral_oracle")
    sympy = oracle.sympy
    poly = sympy.Poly(sympy.expand(dict(_planted(oracle.X))[label]), oracle.X, domain="QQ")
    rational, gaussian, residual = oracle._expected_roots(poly)
    c = oracle._coeffs(poly)
    for coeffs in (c, oracle._integer_multiple(c)):
        rep = rational_roots(coeffs)
        assert (rep.rational, rep.gaussian) == (rational, gaussian)
        got = sympy.Poly([sympy.Rational(x.numerator, x.denominator)
                          for x in reversed(rep.residual)], oracle.X, domain="QQ")
        assert got == residual
