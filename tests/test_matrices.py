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
