"""The point kernel over its two fields, and the F_p path screen.

The F_p kernel is the image of the Q kernel: at a seeded integer point every
jet and every obstruction component over F_p equals the Q value reduced mod
p.  The Q-field screen is the exact reference for the F_p screen's
decisions.
"""

import random
from fractions import Fraction

import pytest

from hamop import pointcheck as pc
from hamop.catalog import catalog, get_entry
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import MultiPoly
from hamop.specfile import default_param_values, specialize_spec
from hamop.verify import _t_screen_failing, verify_operator

from conftest import corpus_pairs, operator5_pair, u_vars


def _reduce(x):
    if isinstance(x, list):
        return [_reduce(y) for y in x]
    return pc.FP.of(x)


def _catalog_pair(e):
    values = default_param_values(e.spec)
    spec = specialize_spec(e.spec, values) if values else e.spec
    return e.id, spec.g, spec.gt


def _small_corpus(n, seed):
    g, hs = corpus_pairs(n, random.Random(seed), raw=3, killing=2, family=2, constant=1)
    return [(f"corpus-n{n}-{k}", g, h) for k, h in enumerate(hs)]


def test_fp_kernel_is_q_kernel_mod_p():
    pairs = _small_corpus(2, 11) + _small_corpus(3, 12)
    pairs += [_catalog_pair(get_entry(i)) for i in ("mokhov-n3", "thm3-case1", "s22-case1")]
    for name, g, h in pairs:
        qpt = pc.sample_points(g.nvars, [g, h], seed=7, count=1)[0]
        fpt = pc.sample_points(g.nvars, [g, h], seed=7, count=1, field=pc.FP)[0]
        assert fpt == _reduce(qpt), name
        qg, qh = pc.PointFrame(g, qpt), pc.PointFrame(h, qpt)
        fg, fh = pc.PointFrame(g, fpt, pc.FP), pc.PointFrame(h, fpt, pc.FP)
        for qf, ff in ((qg, fg), (qh, fh)):
            for jet in ("G", "Ginv", "Gamma", "dGamma"):
                assert getattr(ff, jet) == _reduce(getattr(qf, jet)), (name, jet)
        parts = ("T", "dT", "raised", "dRaised")
        for part, qv, fv in zip(parts, pc.obstruction_at(qg, qh), pc.obstruction_at(fg, fh)):
            assert fv == _reduce(qv), (name, part)


def test_fp_screen_matches_q_screen():
    pairs = [_catalog_pair(e) for e in catalog() if e.n <= 5 and e.spec.d == 2]
    pairs += _small_corpus(2, 21) + _small_corpus(3, 22)
    decisions = []
    for name, g, h in pairs:
        fp = _t_screen_failing(g, h)
        assert fp == _t_screen_failing(g, h, pc.Q), name
        decisions.append(fp)
    # both answers occur, so the comparison covers failing pairs too
    assert True in decisions and False in decisions


@pytest.mark.parametrize("failing", [False, True])
def test_non_unit_denominator_keeps_verdict(failing):
    # scaling h by a constant preserves every condition's truth value, so
    # the pencil with h / p must give the verdict of the pencil with h
    g, h = operator5_pair()
    if failing:
        u1, _ = u_vars(2)
        z = MultiPoly.zero(2)
        h = LinearMetric(2, PolyMatrix([[u1, z], [z, u1]]))
    hp = LinearMetric(2, h.mat.scale(Fraction(1, pc.P)))
    assert _t_screen_failing(g, hp) is False
    assert _t_screen_failing(g, hp, pc.Q) is failing
    ref = verify_operator(OperatorSpec([g, h]))
    rep = verify_operator(OperatorSpec([g, hp]))
    assert rep.verdict == ref.verdict == (not failing)
    assert rep.failed_names() == ref.failed_names()
