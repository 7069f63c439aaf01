import random
from fractions import Fraction

import pytest

from hamop.errors import IdenticallySingular
from hamop.matrices import PolyMatrix, adjugate_det, determinant, matrix_inverse
from hamop.poly import MultiPoly, RationalFunction

from conftest import operator5_pair, u_vars
from test_poly import random_poly


def rf_identity(n, nvars):
    return PolyMatrix.identity(n, nvars).map(RationalFunction)


def test_antidiagonal_involution():
    ad = PolyMatrix.from_scalars(1, [[0, 1], [1, 0]])
    assert matrix_inverse(ad) == ad.map(RationalFunction)


def test_operator5_metric_inverse():
    # hand 2x2 adjugate: det = -(u2)^2, adj = [[0, -u2], [-u2, -2u1]]
    _, gt = operator5_pair()
    u1, u2 = u_vars(2)
    inv = matrix_inverse(gt.mat)
    assert inv[0, 0].is_zero()
    assert inv[0, 1] == RationalFunction(MultiPoly.const(2, 1), u2)
    assert inv[1, 0] == RationalFunction(MultiPoly.const(2, 1), u2)
    assert inv[1, 1] == RationalFunction(2 * u1, u2 * u2)
    assert gt.mat @ inv == rf_identity(2, 2)


def test_identically_singular():
    u1 = MultiPoly.variable(1, 1)
    with pytest.raises(IdenticallySingular):
        matrix_inverse(PolyMatrix([[u1, u1], [u1, u1]]))


def test_determinant_and_adjugate_take_polynomial_entries_only():
    u1, u2 = u_vars(2)
    m = PolyMatrix([[u1, u2], [u2, u1]]).map(RationalFunction)
    for fn in (determinant, adjugate_det):
        with pytest.raises(ValueError, match="polynomial entries"):
            fn(m)
        with pytest.raises(ValueError, match="non-square"):
            fn(PolyMatrix([[u1, u2]]))


def test_inverse_identity_randomized():
    rng = random.Random(23)
    done = 0
    while done < 10:
        n = rng.choice((2, 3))
        rows = [[random_poly(rng, 2, max_terms=2, max_deg=1) for _ in range(n)] for _ in range(n)]
        m = PolyMatrix(rows)
        if determinant(m).is_zero():
            continue
        inv = matrix_inverse(m)
        assert m @ inv == rf_identity(n, 2)
        assert inv @ m == rf_identity(n, 2)
        done += 1


def test_determinant_multiplicative():
    rng = random.Random(29)
    for _ in range(10):
        a = PolyMatrix([[random_poly(rng, 2, 2, 1) for _ in range(2)] for _ in range(2)])
        b = PolyMatrix([[random_poly(rng, 2, 2, 1) for _ in range(2)] for _ in range(2)])
        assert determinant(a @ b) == determinant(a) * determinant(b)


def test_matrix_ops():
    u1, u2 = u_vars(2)
    m = PolyMatrix([[u1, u2], [u2, MultiPoly.zero(2)]])
    assert m.is_symmetric()
    assert (m - m).is_zero()
    assert m.transpose() == m
    assert m.at_point([Fraction(1), Fraction(2)]) == [
        [Fraction(1), Fraction(2)],
        [Fraction(2), Fraction(0)],
    ]
    with pytest.raises(ValueError):
        PolyMatrix([[u1], [u2, u1]])


def _linear_symmetric(rng, n, nvars):
    """Seeded symmetric matrix with entries linear in the nvars variables."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = MultiPoly.const(nvars, rng.randint(-3, 3))
            for k in range(1, nvars + 1):
                if rng.random() < 0.5:
                    p = p + MultiPoly.variable(nvars, k) * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            rows[i][j] = rows[j][i] = p
    return PolyMatrix(rows)


def test_adjugate_times_matrix_is_det_identity():
    # the Cayley-Hamilton adjugate: A adj(A) = adj(A) A = det(A) I
    rng = random.Random(37)
    for n in range(1, 8):
        m = _linear_symmetric(rng, n, 3)
        adj, det = adjugate_det(m)
        assert det == determinant(m) and det
        want = PolyMatrix.identity(n, 3).scale(det)
        assert m @ adj == want and adj @ m == want, n
