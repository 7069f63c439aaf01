import itertools
import random
from fractions import Fraction

import pytest

from hamop.catalog import catalog, exampleN_operator, get_entry, theorem5_3d_operators
from hamop import pointcheck as pc
from hamop import verify as vf
from hamop.errors import DegenerateEverywhere, DisagreementBug, FirstMetricNotConstant
from hamop.geometry import killing_stream, nijenhuis_stream
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import MultiPoly
from hamop.specfile import default_param_values, specialize_spec
from hamop.verify import (
    MODE_SAMPLED,
    MODE_SYMBOLIC,
    SCAN_POINTS,
    T_NAMES,
    _check_operator,
    _sample,
    default_mode,
    exactness_check,
    mokhov_conditions,
    pair_conditions,
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
        sym = theorem2_conditions(g, h)
        smp = theorem2_conditions(g, h, seed=4)
        for c1 in sym.conditions:
            c2 = smp.condition(c1.name)
            assert c1.passed == c2.passed, c1.name
        m_sym = mokhov_conditions(g, h, mode=MODE_SYMBOLIC)
        m_smp = mokhov_conditions(g, h, mode=MODE_SAMPLED, seed=4)
        for c1 in m_sym.conditions:
            assert m_smp.condition(c1.name).passed == c1.passed, c1.name


def test_symbolic_mode_is_sampled_mode_plus_proofs():
    # symbolic mode scans the triple at the first SCAN_POINTS points of the
    # seed's sample, and the Mokhov side there too when the triple fails
    # (after a passing triple it has nothing to find at a point), and it
    # proves what passed, so per condition it agrees with sampled mode, and
    # a failure found at a scan point carries the sampled witness
    verdicts, at_points = set(), 0
    for n, seed in ((2, 61), (3, 62)):
        g, hs = corpus_pairs(n, random.Random(seed), raw=3, killing=3, family=2, constant=1)
        for h in hs:
            spec = OperatorSpec([g, h])
            sym = verify_operator(spec, MODE_SYMBOLIC)
            smp = verify_operator(spec, MODE_SAMPLED)
            assert [c.name for c in sym.conditions] == [c.name for c in smp.conditions]
            for c1, c2 in zip(sym.conditions, smp.conditions):
                assert c1.passed == c2.passed, (n, c1.name)
                if not c1.passed and c1.witness.point is not None:
                    assert c1 == c2, (n, c1.name)
                    at_points += 1
            verdicts.add(sym.verdict)
    assert verdicts == {True, False} and at_points


def _killing_pencil():
    """A failing Killing-space pencil over the antidiagonal metric, whose
    Nijenhuis torsion (-9 u1 - 9/2, 9 u2) vanishes at (-1/2, 0)."""
    u1, u2 = u_vars(2)
    g = LinearMetric.antidiagonal(2)
    off = u1 * Fraction(-3, 4) + u2 * Fraction(3, 2) + Fraction(1, 2)
    return g, LinearMetric(2, PolyMatrix([[u1 * -3 + Fraction(-3, 2), off], [off, u2 * Fraction(3, 2)]]))


def test_proof_catches_a_failure_the_scan_misses():
    # a scan of (-1/2, 0) alone has no Nijenhuis hit, and the proof still
    # finds the failure, with a witness that has no point
    g, h = _killing_pencil()
    points = [[Fraction(-1, 2), Fraction(0)]]
    fg, fh = (pc.PointFrame(m, points[0]) for m in (g, h))
    assert pc.nijenhuis_at(fh, fg) is None
    rep = theorem2_conditions(g, h, points=points)
    assert rep.failed_names() == ["nijenhuis"]
    w = rep.condition("nijenhuis").witness
    assert w.indices == (1, 1, 2) and w.residual == "-9/1*u1 + -9/2" and w.point is None
    # with the seed's own scan points the failure is found at a point; with
    # none at all, flatness, T1..T5 and the triple are decided by their proofs
    scanned = verify_operator(OperatorSpec([g, h]))
    assert scanned.condition("nijenhuis").witness.point
    proven = mokhov_conditions(g, h, MODE_SYMBOLIC, points=[]).conditions
    proven += theorem2_conditions(g, h, points=[]).conditions
    assert [c.passed for c in proven] == [c.passed for c in scanned.conditions]
    assert not scanned.verdict
    assert all(c.witness.point is None for c in proven if not c.passed)


def test_sampled_mode_proves_the_mokhov_side_when_the_triple_fails():
    # with no scan point at all, the triple fails by its proofs while the
    # sampled Mokhov side has nothing to test: verify then proves the Mokhov
    # side too, and the criteria agree (no DisagreementBug)
    g, h = _killing_pencil()
    spec = OperatorSpec([g, h])
    rep = _check_operator(spec, MODE_SAMPLED, 0, [], pc.FrameCache(pc.FP))
    assert rep.mode == MODE_SAMPLED and not rep.verdict
    assert "nijenhuis" in rep.failed_names() and "T1" in rep.failed_names()
    assert all(c.witness.point is None for c in rep.conditions if not c.passed)
    proven = _check_operator(spec, MODE_SYMBOLIC, 0, [], pc.FrameCache(pc.FP))
    assert rep.conditions == proven.conditions


def _passing_specs():
    """operator5_pair and the mokhov-n3 catalog entry: d = 2, both pass."""
    e = get_entry("mokhov-n3")
    values = default_param_values(e.spec)
    return [OperatorSpec(list(operator5_pair())),
            specialize_spec(e.spec, values) if values else e.spec]


def _refuse(*args):
    raise AssertionError("Mokhov point kernel evaluated")


def test_a_passing_triple_sends_symbolic_mokhov_to_its_proofs(monkeypatch):
    # the triple runs first; once it is proven, a Mokhov scan hit would be
    # a certified nonzero value against the paper's theorem, so symbolic
    # mode proves flat(g2) and T1..T5 without evaluating them at a point
    specs = _passing_specs()
    reports = [verify_operator(spec).to_dict() for spec in specs]
    monkeypatch.setattr(pc, "mokhov_at", _refuse)
    monkeypatch.setattr(pc, "flat_at", _refuse)
    for spec, expected in zip(specs, reports):
        rep = verify_operator(spec, MODE_SYMBOLIC)
        assert rep.verdict and rep.to_dict() == expected


def test_a_failing_mokhov_proof_against_a_passing_triple_is_a_bug(monkeypatch):
    # the proofs that replace the scan still cross-check the triple: a
    # nonzero T3 or flat(g2) residual on a passing spec raises
    g, h = operator5_pair()
    spec = OperatorSpec([g, h])
    t_streams = vf._t_streams

    def t3_fails(g, h):
        return {**t_streams(g, h), "T3": [((1, 1, 1), 1)]}

    with monkeypatch.context() as m:
        m.setattr(vf, "_t_streams", t3_fails)
        with pytest.raises(DisagreementBug, match="criteria disagree"):
            verify_operator(spec, MODE_SYMBOLIC)
    witness = vf.flatness_witness
    monkeypatch.setattr(
        vf, "flatness_witness", lambda m: ((1, 2, 1, 2), 1) if m is h else witness(m)
    )
    with pytest.raises(DisagreementBug, match="criteria disagree"):
        verify_operator(spec, MODE_SYMBOLIC)


def test_sampled_mode_scans_mokhov_at_every_point_after_a_passing_triple(monkeypatch):
    # sampled mode does not prove the Mokhov side: its scan of all
    # SAMPLE_COUNT points is the cross-check there
    calls = []
    mokhov_at = pc.mokhov_at

    def counted(fg, fh):
        calls.append(fg.point)
        return mokhov_at(fg, fh)

    monkeypatch.setattr(pc, "mokhov_at", counted)
    rep = verify_operator(_passing_specs()[1], MODE_SAMPLED)
    assert rep.verdict and len(calls) == pc.SAMPLE_COUNT


@pytest.mark.parametrize("spec, count", [
    (theorem5_3d_operators()[0], SCAN_POINTS),
    (OperatorSpec(list(operator5_pair())), pc.SAMPLE_COUNT),
], ids=["d3", "d2"])
def test_sampled_mode_draws_only_the_points_it_reads(monkeypatch, spec, count):
    # only the d = 2 sampled Mokhov scan reads past the first SCAN_POINTS
    # points; the seeded draw is a prefix, so fewer points change nothing
    draws = []
    sample_points = pc.sample_points

    def counted(nvars, metrics, seed, count=pc.SAMPLE_COUNT, field=pc.Q):
        draws.append(count)
        return sample_points(nvars, metrics, seed, count, field)

    monkeypatch.setattr(pc, "sample_points", counted)
    rep = verify_operator(spec, MODE_SAMPLED)
    assert rep.verdict and draws == [count]
    assert sample_points(spec.nvars, spec.metrics, 0, SCAN_POINTS) == \
        sample_points(spec.nvars, spec.metrics, 0)[:SCAN_POINTS]


def test_triple_is_the_same_in_both_modes():
    # both modes scan the triple at the first SCAN_POINTS points of the
    # seed's sample and prove what passed there, so its ConditionResults,
    # witnesses included, do not depend on the mode: d = 2 corpus pairs, and
    # the d = 3 specs of test_unordered_pairs_give_the_ordered_pairs_verdict
    specs, verdicts = [], set()
    for n, seed in ((2, 61), (3, 62)):
        g, hs = corpus_pairs(n, random.Random(seed), raw=3, killing=3, family=2, constant=1)
        specs += [OperatorSpec([g, h]) for h in hs]
    for n, seed in ((2, 1), (3, 3)):
        g, hs = corpus_pairs(n, random.Random(seed), raw=2, killing=2, family=3, constant=2)
        specs += [OperatorSpec([g, h1, h2]) for h1, h2 in itertools.combinations(hs, 2)]
    for spec in specs:
        sym, smp = (verify_operator(spec, mode) for mode in (MODE_SYMBOLIC, MODE_SAMPLED))
        triple = slice(len(T_NAMES) + 2 if spec.d == 2 else 0, None)
        assert sym.conditions[triple] == smp.conditions[triple]
        verdicts.add(smp.verdict)
    assert verdicts == {True, False}


def test_degenerate_bivector_is_decided_without_points():
    # no sample point makes diag(u1, 0) invertible: theorem2_conditions
    # skips the scan and proves each condition
    u1, _ = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    h = PolyMatrix([[u1, z], [z, z]])
    with pytest.raises(DegenerateEverywhere):
        pc.sample_points(2, [g, LinearMetric(2, h, check_nondegenerate=False)], 0)
    rep = theorem2_conditions(g, h)
    assert rep.failed_names() == ["killing"]
    w = rep.condition("killing").witness
    assert (w.indices, w.residual, w.point) == ((1, 1, 2), "1/1", None)


@pytest.mark.parametrize("mode", [MODE_SYMBOLIC, MODE_SAMPLED])
def test_killing_is_reported_against_the_earlier_metric(mode):
    # d = 3 checks one triple per unordered pair c < b, and killing[c|b] is
    # K(g_c, g_b): its witness is the first component of
    # killing_stream(g_c, g_b) that is nonzero at the witness point.  K is
    # antisymmetric, so the residual's sign pins the order
    g, hs = corpus_pairs(2, random.Random(33), raw=2, killing=1, family=0, constant=0)
    spec = OperatorSpec([g, hs[2], hs[0]])
    rep = verify_operator(spec, mode)
    pairs = ((2, 1), (3, 1), (3, 2))
    assert [c.name for c in rep.conditions] == ["flat(g1)"] + [
        name for b, c in pairs
        for name in (f"linearity[{b}|{c}]", f"nijenhuis[{b}|{c}]", f"killing[{c}|{b}]")
    ]
    failing = []
    for b, c in pairs:
        w = rep.condition(f"killing[{c}|{b}]").witness
        if w is None:
            continue
        pt = [Fraction(x) for x in w.point]
        stream = killing_stream(spec.metrics[c - 1], spec.metrics[b - 1], 2)
        first = next((idx, r.eval(pt)) for idx, r in stream if r.eval(pt))
        assert first == (w.indices, Fraction(w.residual)), (b, c)
        failing.append((b, c))
    assert failing == [(3, 1), (3, 2)]


def _invertible_pairs():
    """Ordered pairs of seeded n = 2 metrics, passing and failing."""
    pairs = []
    for seed in (71, 73):
        g, hs = corpus_pairs(2, random.Random(seed), raw=1, killing=1, family=2, constant=1)
        pairs += itertools.permutations([g, *hs], 2)
    return pairs


def test_nijenhuis_vanishes_for_an_affinor_iff_for_its_inverse():
    # N(L) = 0 <=> N(L^-1) = 0 for invertible L, so the Nijenhuis condition
    # of a pair does not depend on which metric is the reference
    verdicts = set()
    for a, b in _invertible_pairs():
        n = a.n
        flat_l = not any(r for _, r in nijenhuis_stream(a.mat @ b.inverse(), n))
        flat_inv = not any(r for _, r in nijenhuis_stream(b.mat @ a.inverse(), n))
        assert flat_l == flat_inv
        verdicts.add(flat_l)
    assert verdicts == {True, False}


def test_killing_stream_is_antisymmetric():
    verdicts = set()
    for a, b in _invertible_pairs():
        ab = list(killing_stream(a, b, a.n))
        assert ab == [(idx, -r) for idx, r in killing_stream(b, a, a.n)]
        verdicts.add(any(r for _, r in ab))
    assert verdicts == {True, False}


@pytest.mark.parametrize("mode", [MODE_SYMBOLIC, MODE_SAMPLED])
def test_unordered_pairs_give_the_ordered_pairs_verdict(mode):
    # the d >= 3 verdict from one triple per unordered pair equals the
    # verdict of the triples of every ordered pair at the same points
    verdicts = []
    for n, seed in ((2, 1), (3, 3)):
        g, hs = corpus_pairs(n, random.Random(seed), raw=2, killing=2, family=3, constant=2)
        for h1, h2 in itertools.combinations(hs, 2):
            spec = OperatorSpec([g, h1, h2])
            points = _sample(spec.nvars, spec.metrics, mode, 0)
            cache = pc.FrameCache(pc.FP)
            ordered = all(
                r.passed
                for gb, gc in itertools.permutations(spec.metrics, 2)
                for r in pair_conditions(gc, gb, points, cache)
            )
            verdicts.append(verify_operator(spec, mode).verdict)
            assert verdicts[-1] == ordered, (n, mode)
    assert set(verdicts) == {True, False}


def test_default_mode_is_symbolic_up_to_n8():
    assert default_mode(8) == MODE_SYMBOLIC
    assert default_mode(9) == MODE_SAMPLED


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
