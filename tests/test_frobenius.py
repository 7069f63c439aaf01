from fractions import Fraction

import pytest

from hamop.families import mu_bivector
from hamop.frobenius import (
    build_cp_frobenius,
    check_frobenius_axioms,
    cohomology_ring_correspondence,
    intersection_form,
    intersection_matches_mu,
)
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import MultiPoly
from hamop.verify import verify_operator

from conftest import u_vars


def test_n2_structure_constants():
    f = build_cp_frobenius(2)
    nonzero = {
        (i + 1, j + 1, k + 1)
        for i in range(2)
        for j in range(2)
        for k in range(2)
        if f.c[i][j][k]
    }
    assert nonzero == {(1, 1, 2), (1, 2, 1), (2, 2, 2)}


def test_unity_axiom():
    f = build_cp_frobenius(3)
    for i in range(3):
        for k in range(3):
            assert f.c[i][f.e_index - 1][k] == (1 if i == k else 0)


def test_potential_for_n2():
    # F = (1/6) c_{ijk} u^i u^j u^k = (1/2) u1 (u2)^2 for n = 2
    f = build_cp_frobenius(2)
    u1, u2 = u_vars(2)
    c_low = [
        [
            [sum(Fraction(f.g_cov[i][l]) * f.c[l][j][k] for l in range(2)) for k in range(2)]
            for j in range(2)
        ]
        for i in range(2)
    ]
    F = MultiPoly.zero(2)
    us = [u1, u2]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if c_low[i][j][k]:
                    F = F + us[i] * us[j] * us[k] * Fraction(c_low[i][j][k], 6)
    assert F == u1 * u2 * u2 * Fraction(1, 2)
    # and triple differentiation reproduces the lowered constants
    for i in range(2):
        for j in range(2):
            for k in range(2):
                d3 = F.partial(i + 1).partial(j + 1).partial(k + 1)
                assert d3 == MultiPoly.const(2, c_low[i][j][k])


@pytest.mark.parametrize("n", range(2, 7))
def test_axioms_and_scalings(n):
    f = build_cp_frobenius(n)
    rep = check_frobenius_axioms(f)
    assert rep.verdict, rep.axioms
    assert rep.scalings["e"] == n - 1
    assert rep.scalings["c"] == n - 1
    assert rep.scalings["g_cov"] == 1 - n


@pytest.mark.parametrize("n", range(2, 7))
def test_intersection_form_is_mu0(n):
    f = build_cp_frobenius(n)
    assert intersection_matches_mu(f)
    assert (intersection_form(f) - mu_bivector(n, 0)).is_zero()


def test_intersection_form_n2_display():
    u1, u2 = u_vars(2)
    f = build_cp_frobenius(2)
    m = intersection_form(f)
    assert m[0, 0] == -2 * u1 and m[0, 1] == u2 and m[1, 1].is_zero()


@pytest.mark.parametrize("n", range(2, 7))
def test_intersection_pair_is_hamiltonian(n):
    f = build_cp_frobenius(n)
    g = LinearMetric.antidiagonal(n)
    gt = LinearMetric(n, intersection_form(f))
    assert verify_operator(OperatorSpec([g, gt])).verdict


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cohomology_ring_correspondence(n):
    assert cohomology_ring_correspondence(n)


def test_ring_relabel_controls():
    # without the relabeling the ring constants differ from the Frobenius
    # ones for every n >= 2, and the relabeling is an involution
    for n in (2, 3):
        f = build_cp_frobenius(n)
        identity_match = all(
            Fraction(1 if (j + k - i == 1) else 0) == f.c[i - 1][j - 1][k - 1]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
        )
        assert not identity_match
        relabeled_twice = [
            [
                [f.c[n - 1 - (n - 1 - i)][n - 1 - (n - 1 - j)][n - 1 - (n - 1 - k)] for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert relabeled_twice == f.c


def _failures(f):
    return {name: w for name, (ok, w) in check_frobenius_axioms(f).axioms.items() if not ok}


def test_perturbed_constants_fail_associativity():
    f = build_cp_frobenius(3)
    f.c[0][0][0] = 1
    assert _failures(f) == {
        "associative": (0, 0, 1, 1),
        "invariant": (0, 2, 0),
        "potential": (0, 0, 2),
        "euler-c-eigentensor": None,
        "euler-normalized": None,
    }


def test_metric_off_the_antidiagonal_fails_at_pinned_indices():
    f = build_cp_frobenius(3)
    f.g_cov[0][0] = 1
    assert _failures(f) == {
        "invariant": (0, 1, 1),
        "potential": (0, 0, 2),
        "euler-g-eigentensor": None,
        "euler-normalized": None,
    }


def test_wrong_unity_fails_at_pinned_indices():
    f = build_cp_frobenius(3)
    f.e_index = 1
    assert _failures(f) == {"flat-unity": (0, 0), "euler-normalized": None}


@pytest.mark.parametrize("zeroed", ["c", "g_cov"])
def test_tensor_without_nonzero_entry_has_no_scaling(zeroed):
    # no nonzero entry, no measured Lie_E factor: euler-normalized fails
    # and the scaling is recorded as null instead of raising
    def zero(x):
        return [zero(y) for y in x] if isinstance(x, list) else 0

    f = build_cp_frobenius(3)
    setattr(f, zeroed, zero(getattr(f, zeroed)))
    rep = check_frobenius_axioms(f)
    assert rep.axioms["euler-normalized"] == (False, None)
    assert rep.scalings[zeroed] is None
    assert rep.to_dict()["euler_scalings"][zeroed] is None


def test_n_below_range_rejected():
    with pytest.raises(ValueError):
        build_cp_frobenius(1)
