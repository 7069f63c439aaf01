import random
from fractions import Fraction

import pytest

from hamop.catalog import catalog, exampleN_operator, get_entry, theorem5_3d_operators
from hamop.errors import FirstMetricNotConstant
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import MultiPoly
from hamop.specfile import default_param_values, specialize_spec
from hamop.verify import (
    MODE_SAMPLED,
    MODE_SYMBOLIC,
    _t_conditions_rational,
    _t_conditions_symbolic_const_g,
    exactness_check,
    mokhov_conditions,
    theorem2_conditions,
    verify_operator,
)

from conftest import corpus_pairs, operator5_pair, u_vars


def test_operator5_passes_both_criteria():
    g, gt = operator5_pair()
    mok = mokhov_conditions(g, gt)
    assert mok.verdict
    assert [c.name for c in mok.conditions] == [
        "flat(g1)", "flat(g2)", "T1", "T2", "T3", "T4", "T5",
    ]
    th2 = theorem2_conditions(g, gt)
    assert th2.verdict


def test_theorem3_case2_passes_obstruction_criteria():
    e = get_entry("thm3-case2")
    assert mokhov_conditions(e.spec.g, e.spec.gt).verdict


def test_constant_pair_passes():
    g = LinearMetric.antidiagonal(2)
    gt = LinearMetric.constant([[1, 0], [0, 1]])
    assert theorem2_conditions(g, gt).verdict
    assert mokhov_conditions(g, gt).verdict


def test_killing_violation_named_with_witness():
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    h = LinearMetric(2, PolyMatrix([[u1, z], [z, u2]]))
    rep = theorem2_conditions(g, h)
    assert not rep.verdict
    assert "killing" in rep.failed_names()
    w = rep.condition("killing").witness
    assert w.indices == (1, 1, 2) and w.residual == "1/1"


def test_mokhov_fails_on_delta_u1():
    # h^{ij} = delta^{ij} u1 against the antidiagonal metric
    u1, _ = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    h = LinearMetric(2, PolyMatrix([[u1, z], [z, u1]]))
    rep = mokhov_conditions(g, h)
    assert not rep.verdict
    assert rep.failed_names()
    th2 = theorem2_conditions(g, h)
    assert th2.verdict == rep.verdict


def test_quadratic_extended_path():
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    _, gt = operator5_pair()
    h = PolyMatrix([[gt.mat[0, 0] + u1 * u1, gt.mat[0, 1]], [gt.mat[1, 0], z]])
    rep = theorem2_conditions(g, h)
    assert not rep.verdict
    assert "linearity" in rep.failed_names()


def test_first_metric_not_constant():
    g, gt = operator5_pair()
    with pytest.raises(FirstMetricNotConstant):
        theorem2_conditions(gt, g)
    with pytest.raises(FirstMetricNotConstant):
        verify_operator(OperatorSpec([gt, g]))


def test_sampled_and_symbolic_agree_conditionwise():
    g, gt = operator5_pair()
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    bad = LinearMetric(2, PolyMatrix([[u1, z], [z, u2]]))
    for h in (gt, bad):
        sym = theorem2_conditions(g, h, mode=MODE_SYMBOLIC)
        smp = theorem2_conditions(g, h, mode=MODE_SAMPLED, seed=4)
        for c1 in sym.conditions:
            c2 = smp.condition(c1.name)
            assert c1.passed == c2.passed, c1.name
        m_sym = mokhov_conditions(g, h, mode=MODE_SYMBOLIC)
        m_smp = mokhov_conditions(g, h, mode=MODE_SAMPLED, seed=4)
        for c1 in m_sym.conditions:
            assert m_smp.condition(c1.name).passed == c1.passed, c1.name


def test_symbolic_representations_agree():
    # polynomial numerators over powers of det h and reduced rational
    # functions give the same result per condition, witnesses included
    pairs = []
    for e in catalog():
        if e.n <= 3 and e.spec.d == 2:
            values = default_param_values(e.spec)
            spec = specialize_spec(e.spec, values) if values else e.spec
            pairs.append((e.id, spec.g, spec.gt))
    g, hs = corpus_pairs(2, random.Random(5), raw=3, killing=3, family=2, constant=1)
    pairs += [(f"corpus-n2-{k}", g, h) for k, h in enumerate(hs)]
    verdicts = set()
    for name, g, h in pairs:
        num = _t_conditions_symbolic_const_g(g, h)
        assert num == _t_conditions_rational(g, h), name
        verdicts.add(all(c.passed for c in num))
    assert verdicts == {True, False}


def test_verify_operator_merges_both_criteria():
    g, gt = operator5_pair()
    rep = verify_operator(OperatorSpec([g, gt]))
    names = [c.name for c in rep.conditions]
    assert names == [
        "flat(g1)", "flat(g2)", "T1", "T2", "T3", "T4", "T5",
        "linearity", "nijenhuis", "killing",
    ]
    assert rep.verdict


def test_verify_theorem5_operators():
    first, second = theorem5_3d_operators()
    r1 = verify_operator(first)
    assert r1.verdict and r1.d == 3
    assert any(c.name.startswith("linearity[") for c in r1.conditions)
    r2 = verify_operator(second)
    assert r2.verdict


def test_verify_exampleN4():
    spec = exampleN_operator(4)
    rep = verify_operator(spec)
    assert rep.verdict and rep.d == 4


def test_exactness_examples():
    # the n = 3 pair with second metric mu(3;0)
    from hamop.catalog import mokhov_operator

    spec = mokhov_operator(3)
    assert exactness_check(spec.g, spec.gt)
    # constant second metric: g1 = 0, X = 0
    g = LinearMetric.antidiagonal(2)
    assert exactness_check(g, LinearMetric.constant([[1, 0], [0, 1]]))
    # constant-eigenvalue three-component case
    e = get_entry("thm3-case1")
    assert exactness_check(e.spec.g, e.spec.gt)
    # and a failing control: a non-Killing bivector is not exact
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    h = LinearMetric(2, PolyMatrix([[u1, z], [z, u2]]))
    assert not exactness_check(g, h)


def test_report_serialization():
    g, gt = operator5_pair()
    rep = verify_operator(OperatorSpec([g, gt]))
    d = rep.to_dict()
    assert d["verdict"] == "pass"
    assert all(c["pass"] for c in d["conditions"])
