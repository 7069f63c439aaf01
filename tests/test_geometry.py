import random
from fractions import Fraction

import pytest

from hamop.errors import IdenticallySingular
from hamop.families import flow_field, mu_bivector, p_coeff
from hamop.geometry import (
    covariant_hessian,
    flatness_witness,
    killing_residual,
    levi_civita,
    lie_derivative_bivector,
    nijenhuis_torsion,
    obstruction_tensor,
)
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric
from hamop.poly import MultiPoly, RationalFunction

from conftest import operator5_pair, random_linear_bivector, u_vars


def zero3(t, n):
    return all(not t[i][j][k] for i in range(n) for j in range(n) for k in range(n))


# -- Levi-Civita ----------------------------------------------------------


def test_constant_metric_has_zero_connection():
    conn = levi_civita(LinearMetric.antidiagonal(4))
    assert zero3(conn.gamma, 4)
    assert zero3(conn.b_upper, 4)


def test_operator5_contravariant_symbols():
    # solved by hand from d_k g^ij = b^ij_k + b^ji_k and the skew condition:
    # b^11_1 = -1, b^12_2 = 2, b^21_2 = -1, all others 0
    _, gt = operator5_pair()
    conn = levi_civita(gt)
    expected = {(0, 0, 0): Fraction(-1), (0, 1, 1): Fraction(2), (1, 0, 1): Fraction(-1)}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert conn.b_upper[i][j][k] == expected.get((i, j, k), Fraction(0))


def test_metricity_and_skew_identities():
    # d_k g^ij = b^ij_k + b^ji_k and g^il b^jk_l = g^jl b^ik_l hold for every
    # connection we build
    rng = random.Random(5)
    mats = [operator5_pair()[1].mat] + [random_linear_bivector(rng, 2) for _ in range(4)]
    for mat in mats:
        g = LinearMetric(2, mat)
        conn = levi_civita(g)
        n = 2
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = RationalFunction(g.mat[i, j].partial(k + 1))
                    assert conn.b_upper[i][j][k] + conn.b_upper[j][i][k] == lhs
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = sum(
                        (RationalFunction(g.mat[i, l]) * conn.b_upper[j][k][l] for l in range(n)),
                        start=RationalFunction(MultiPoly.zero(g.nvars)),
                    )
                    b = sum(
                        (RationalFunction(g.mat[j, l]) * conn.b_upper[i][k][l] for l in range(n)),
                        start=RationalFunction(MultiPoly.zero(g.nvars)),
                    )
                    assert a == b


def test_mokhov_n3_symbols_match_formula():
    # constant contravariant symbols b^{ij}_{i+j-1} = 3j - n - 2 at n = 3
    gt = LinearMetric(3, mu_bivector(3, 0))
    conn = levi_civita(gt)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = Fraction(3 * (j + 1) - 5) if (i + j + 1) == (k + 1) else Fraction(0)
                assert conn.b_upper[i][j][k] == expected


# -- curvature ------------------------------------------------------------


def test_constant_metric_flat():
    assert flatness_witness(LinearMetric.constant([[1, 0], [0, -1]])) is None


def test_operator5_second_metric_flat():
    _, gt = operator5_pair()
    assert flatness_witness(gt) is None


def test_diag_u2_not_flat_with_witness():
    # contravariant diag(u2, 1) has Gaussian curvature K = -(3/4) u2^{-2}
    # (for ds^2 = E(v) du^2 + dv^2 with E = 1/v: K = -(sqrt E)''/sqrt E);
    # the diag(u1, 1) variant, by the same oracle, is flat
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    nonflat = LinearMetric(2, PolyMatrix([[u2, z], [z, MultiPoly.const(2, 1)]]))
    w = flatness_witness(nonflat)
    assert w is not None
    indices, residual = w
    assert indices == (1, 2, 1, 2)
    assert residual == RationalFunction(MultiPoly.const(2, -3) / 4, u2 * u2)
    flat = LinearMetric(2, PolyMatrix([[u1, z], [z, MultiPoly.const(2, 1)]]))
    assert flatness_witness(flat) is None


# -- Nijenhuis torsion ----------------------------------------------------


def nijenhuis_oracle(L, n):
    """Independent literal expansion of the four-term formula."""
    out = []
    for k in range(n):
        mat = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = MultiPoly.zero(L.nvars)
                for s in range(n):
                    acc = acc + L[s, i] * L[k, j].partial(s + 1)
                    acc = acc - L[s, j] * L[k, i].partial(s + 1)
                    acc = acc + L[k, s] * L[s, i].partial(j + 1)
                    acc = acc - L[k, s] * L[s, j].partial(i + 1)
                row.append(acc)
            mat.append(row)
        out.append(mat)
    return out


def test_nijenhuis_constant_affinor():
    L = PolyMatrix.from_scalars(2, [[1, 2], [3, 4]])
    assert zero3(nijenhuis_torsion(L), 2)


def test_nijenhuis_operator5_affinor():
    u1, u2 = u_vars(2)
    L = PolyMatrix([[u2, -2 * u1], [MultiPoly.zero(2), u2]])
    assert zero3(nijenhuis_torsion(L), 2)


def test_nijenhuis_swapped_diagonal_nonzero():
    # eigenvalues depend on the other block's coordinate: torsion must be
    # nonzero (hand expansion gives N^1_{12} = u2 - u1)
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    L = PolyMatrix([[u2, z], [z, u1]])
    N = nijenhuis_torsion(L)
    assert N[0][0][1] == u2 - u1
    assert not zero3(N, 2)


def test_nijenhuis_matches_oracle_and_antisymmetry(rng):
    for _ in range(5):
        L = PolyMatrix(
            [[random_linear_bivector(rng, 2, nondegenerate=False)[i, j] for j in range(2)] for i in range(2)]
        )
        N = nijenhuis_torsion(L, 2)
        O = nijenhuis_oracle(L, 2)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    assert N[k][i][j] == O[k][i][j]
                    assert N[k][i][j] == -N[k][j][i]


# -- Killing condition ----------------------------------------------------


def test_metric_is_killing_for_itself():
    g = LinearMetric.antidiagonal(2)
    assert zero3(killing_residual(g, g), 2)


def test_operator5_pair_killing():
    g, gt = operator5_pair()
    assert zero3(killing_residual(g, gt), 2)


def test_killing_fails_for_diagonal_example():
    # by hand: residual at (1,1,2) is c^{11}_1 = 1
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    h = PolyMatrix([[u1, z], [z, u2]])
    K = killing_residual(g, h)
    assert K[0][0][1] == MultiPoly.const(2, 1)
    assert not zero3(K, 2)


def test_killing_residual_full_symmetry(rng):
    import itertools

    g = LinearMetric.antidiagonal(3)
    for _ in range(5):
        h = random_linear_bivector(rng, 3, nondegenerate=False)
        K = killing_residual(g, h, 3)
        for i, j, k in itertools.product(range(3), repeat=3):
            for p in itertools.permutations((i, j, k)):
                assert K[i][j][k] == K[p[0]][p[1]][p[2]]


# -- linearity ------------------------------------------------------------


def test_linearity_residuals():
    g, gt = operator5_pair()
    stream = list(covariant_hessian(gt.mat, 2))
    assert len(stream) == 16 and not any(r for _, r in stream)
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    quad = PolyMatrix([[u1 * u1, z], [z, z]])
    hits = [(idx, r) for idx, r in covariant_hessian(quad, 2) if r]
    assert hits == [((1, 1, 1, 1), MultiPoly.const(2, 2))]


# -- obstruction tensor ---------------------------------------------------


def test_obstruction_zero_for_proportional_metrics():
    g, _ = operator5_pair()
    h = LinearMetric(2, g.mat.scale(Fraction(5)))
    t = obstruction_tensor(g, h)
    assert zero3(t.t, 2) and zero3(t.t_raised, 2)


def test_obstruction_nonzero_for_operator5():
    # the two-component operator is not reducible to constant coefficients
    g, gt = operator5_pair()
    t = obstruction_tensor(g, gt)
    assert not zero3(t.t, 2)
    # T^i_{jk} symmetric in (j,k)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert t.t[i][j][k] == t.t[i][k][j]


def test_obstruction_nonzero_for_constant_eigenvalue_case():
    from hamop.catalog import get_entry

    e = get_entry("thm3-case1")
    t = obstruction_tensor(e.spec.g, e.spec.gt)
    assert not zero3(t.t, 3)


# -- Lie derivative -------------------------------------------------------


def test_lie_derivative_constant_along_constant():
    g = LinearMetric.constant([[1, 0], [0, 1]])
    X = [MultiPoly.const(2, 1), MultiPoly.const(2, 2)]
    assert lie_derivative_bivector(g.mat, X, 2).is_zero()


def test_lie_flow_ladder_values():
    # Lie_{X_(1)} mu(5;0) = p[5,1,0] mu(5;1) with p = -1
    X = flow_field(5, 1)
    lhs = lie_derivative_bivector(mu_bivector(5, 0), X, 5)
    assert (lhs - mu_bivector(5, 1).scale(Fraction(-1))).is_zero()
    assert p_coeff(5, 1, 0) == -1
    # p[7,2,0] = 0: the flow annihilates mu(7;0)
    assert p_coeff(7, 2, 0) == 0
    X2 = flow_field(7, 2)
    assert lie_derivative_bivector(mu_bivector(7, 0), X2, 7).is_zero()
