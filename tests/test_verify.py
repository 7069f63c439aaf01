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
    SCAN_POINTS,
    _check_operator,
    _sample,
    exactness_check,
    mokhov_conditions,
    pair_conditions,
    theorem2_conditions,
    verify_operator,
)

from conftest import corpus_pairs, operator5_pair, refuse_symbolic_work, u_vars


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
        mokhov_conditions(gt, g)
    with pytest.raises(FirstMetricNotConstant):
        verify_operator(OperatorSpec([gt, g]))


def test_sampled_and_symbolic_agree_conditionwise():
    # per condition, a scan at another seed's points followed by the proofs
    # agrees with the proofs alone (no scan point)
    g, gt = operator5_pair()
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    bad = LinearMetric(2, PolyMatrix([[u1, z], [z, u2]]))
    for h in (gt, bad):
        for check in (theorem2_conditions, mokhov_conditions):
            smp = check(g, h, seed=4)
            sym = check(g, h, points=[])
            for c1 in sym.conditions:
                assert smp.condition(c1.name).passed == c1.passed, c1.name


def _killing_pencil():
    """A failing Killing-space pencil over the antidiagonal metric, whose
    Nijenhuis torsion (-9 u1, 9 u2) vanishes at the origin."""
    u1, u2 = u_vars(2)
    g = LinearMetric.antidiagonal(2)
    off = u1 * Fraction(-3, 4) + u2 * Fraction(3, 2) + Fraction(7, 8)
    return g, LinearMetric(2, PolyMatrix([[u1 * -3, off], [off, u2 * Fraction(3, 2)]]))


def test_proof_catches_a_failure_the_scan_misses():
    # a scan of the origin alone has no Nijenhuis hit, and the proof still
    # finds the failure, with a witness that has no point
    g, h = _killing_pencil()
    points = [[Fraction(0), Fraction(0)]]
    fg, fh = (pc.PointFrame(m, points[0]) for m in (g, h))
    assert pc.nijenhuis_at(fh, fg) is None
    rep = theorem2_conditions(g, h, points=points)
    assert rep.failed_names() == ["nijenhuis"]
    w = rep.condition("nijenhuis").witness
    assert w.indices == (1, 1, 2) and w.residual == "-9/1*u1" and w.point is None
    # with the seed's own scan points the failure is found at a point; with
    # none at all, flatness, T1..T5 and the triple are decided by their proofs
    scanned = verify_operator(OperatorSpec([g, h]))
    assert scanned.condition("nijenhuis").witness.point
    proven = mokhov_conditions(g, h, points=[]).conditions
    proven += theorem2_conditions(g, h, points=[]).conditions
    assert [c.passed for c in proven] == [c.passed for c in scanned.conditions]
    assert not scanned.verdict
    assert all(c.witness.point is None for c in proven if not c.passed)


def test_a_failing_triple_against_a_constant_metric_builds_no_point_frame(monkeypatch):
    # the coefficient arrays refute as well as prove: against the constant
    # antidiagonal metric every condition of the triple is decided on them,
    # a failure with the witness of a scan at the points, so no point
    # frame is built and no point kernel runs
    pencils = []
    for n in range(2, 7):
        g, hs = corpus_pairs(n, random.Random(n), raw=2, killing=2, family=0, constant=0)
        pencils += [(g, h, _sample(g.nvars, [g, h], 0)) for h in hs]
    expected = [theorem2_conditions(g, h, points=pts).to_dict() for g, h, pts in pencils]
    refuse = refuse_symbolic_work(monkeypatch, "triple of a constant reference left its arrays")
    monkeypatch.setattr(pc.PointFrame, "__init__", refuse)
    for (g, h, pts), want in zip(pencils, expected):
        rep = theorem2_conditions(g, h, points=pts)
        assert not rep.verdict and rep.to_dict() == want
        assert all(c.witness.point for c in rep.conditions if not c.passed)


def test_both_criteria_are_proven_without_scan_points():
    # with no scan point at all, the triple fails by its proofs and the
    # Mokhov side is proven too: the criteria agree (no DisagreementBug),
    # and every failure carries a witness with no point
    g, h = _killing_pencil()
    rep = _check_operator(OperatorSpec([g, h]), 0, [])
    assert not rep.verdict
    assert "nijenhuis" in rep.failed_names() and "T1" in rep.failed_names()
    assert all(c.witness.point is None for c in rep.conditions if not c.passed)


def _passing_specs():
    """operator5_pair and every d = 2 catalog entry with n <= 5, its formal
    parameters at their ``default_param_values`` as the benchmark's
    catalog workload writes them: all pass."""
    specs = [OperatorSpec(list(operator5_pair()))]
    for e in catalog():
        if e.spec.d == 2 and e.n <= 5:
            values = default_param_values(e.spec)
            specs.append(specialize_spec(e.spec, values) if values else e.spec)
    return specs


def _refuse(*args):
    raise AssertionError("Mokhov point kernel evaluated")


def test_a_passing_triple_sends_symbolic_mokhov_to_its_proofs(monkeypatch):
    # the triple runs first; once it is proven, a Mokhov scan hit would be
    # a certified nonzero value against the paper's theorem.  flat(g1)
    # holds for the constant g, and on a Hamiltonian pencil the
    # contravariant connection of h is constant, so flat(g2) and T1..T5 are
    # proven on it, without a point scan (not even at the generic point) or
    # a rational stream.  The triple
    # itself is proven on the integer coefficient arrays of g and h, with no
    # point kernel and no symbolic adjugate.  So the Mokhov side, handed the
    # scan points, finds nothing pending there and builds no point frame
    specs = _passing_specs()
    assert len(specs) > 30
    reports = [verify_operator(spec).to_dict() for spec in specs]
    refuse_symbolic_work(monkeypatch, "passing spec left its integer arrays")
    monkeypatch.setattr(pc.PointFrame, "__init__", _refuse)
    monkeypatch.setattr(pc, "mokhov_at", _refuse)
    monkeypatch.setattr(pc, "flat_at", _refuse)
    monkeypatch.setattr(vf, "_t_streams", _refuse)
    for spec, expected in zip(specs, reports):
        rep = verify_operator(spec)
        assert rep.verdict and rep.to_dict() == expected


def test_d3_catalog_pairs_are_proven_on_their_arrays(monkeypatch):
    # every pair of a d >= 3 entry has a constant metric on one side; the
    # contravariant connection of the linear g2 is constant, so its pairs
    # are proven on the coefficient arrays too, with no point kernel, no
    # Christoffel symbols of a non-constant metric, no symbolic inverse
    # and no symbolic adjugate
    specs = []
    for e in catalog():
        if e.spec.d >= 3 and e.n <= 5:
            values = default_param_values(e.spec)
            specs += [e.spec] + ([specialize_spec(e.spec, values)] if values else [])
    assert len(specs) >= 5 and any(not m.is_constant() for s in specs for m in s.metrics)
    refuse_symbolic_work(monkeypatch, "d >= 3 pair left its arrays")
    for spec in specs:
        assert verify_operator(spec).verdict


def test_a_failing_mokhov_proof_against_a_passing_triple_is_a_bug(monkeypatch):
    # the proofs that replace the integer-point scan still cross-check the
    # triple: a nonzero T3 or flat(g2) residual on a passing spec raises.
    # The constant-connection proof, the scan's generic point (pointcheck's
    # kernels on polynomial numerators) and the rational witness stream all
    # run geometry's one statement of each condition
    g, h = operator5_pair()
    spec = OperatorSpec([g, h])
    identities = vf.mokhov_identities

    def one(entries):
        # 1 of the stream's own entry type: an int on the constant
        # connection and at an integer point, a polynomial at the generic one
        x = next(x for plane in entries for row in plane for x in row if x)
        return 1 if isinstance(x, int) else MultiPoly.const(g.nvars, 1)

    def t3_fails(R, dR, b, h, n):
        return [(name, [((1, 1, 1, 1), one(b))] if name == "T3" else stream)
                for name, stream in identities(R, dR, b, h, n)]

    with monkeypatch.context() as m:
        m.setattr(vf, "mokhov_identities", t3_fails)
        m.setattr(pc, "mokhov_identities", t3_fails)
        with pytest.raises(DisagreementBug, match="criteria disagree"):
            verify_operator(spec)

    def curvature(gamma, d_gamma, n):
        return [((1, 2, 1, 2), one(gamma))]

    monkeypatch.setattr(vf, "riemann_components", curvature)
    monkeypatch.setattr(pc, "riemann_components", curvature)
    with pytest.raises(DisagreementBug, match="criteria disagree"):
        verify_operator(spec)


@pytest.mark.parametrize("spec, draws", [
    (theorem5_3d_operators()[0], [SCAN_POINTS]),
    (OperatorSpec(list(operator5_pair())), [SCAN_POINTS]),
], ids=["d3", "d2"])
def test_verify_draws_only_the_points_it_scans(monkeypatch, spec, draws):
    # verify draws the first SCAN_POINTS points of the seed's sample once;
    # the Mokhov side draws none: it is handed the scan points, and the first
    # is the integer point of its constant connection.  The seeded draw is a
    # prefix, so that is the seed's first sample point, which
    # mokhov_conditions draws when it is given no point
    counts = []
    sample_points = pc.sample_points

    def counted(nvars, metrics, seed, count):
        counts.append(count)
        return sample_points(nvars, metrics, seed, count)

    monkeypatch.setattr(pc, "sample_points", counted)
    rep = verify_operator(spec)
    assert rep.verdict and counts == draws
    assert sample_points(spec.nvars, spec.metrics, 0, SCAN_POINTS) == \
        sample_points(spec.nvars, spec.metrics, 0, 5)[:SCAN_POINTS]


def test_degenerate_bivector_is_decided_without_points():
    # no sample point makes diag(u1, 0) invertible: theorem2_conditions
    # skips the scan and proves each condition
    u1, _ = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    h = PolyMatrix([[u1, z], [z, z]])
    with pytest.raises(DegenerateEverywhere):
        pc.sample_points(2, [g, LinearMetric(2, h, check_nondegenerate=False)], 0, SCAN_POINTS)
    rep = theorem2_conditions(g, h)
    assert rep.failed_names() == ["killing"]
    w = rep.condition("killing").witness
    assert (w.indices, w.residual, w.point) == ((1, 1, 2), "1/1", None)


def test_killing_is_reported_against_the_earlier_metric():
    # d = 3 checks one triple per unordered pair c < b, and killing[c|b] is
    # K(g_c, g_b): its witness is the first component of
    # killing_stream(g_c, g_b) that is nonzero at the witness point.  K is
    # antisymmetric, so the residual's sign pins the order
    g, hs = corpus_pairs(2, random.Random(33), raw=2, killing=1, family=0, constant=0)
    spec = OperatorSpec([g, hs[2], hs[0]])
    rep = verify_operator(spec)
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


def test_unordered_pairs_give_the_ordered_pairs_verdict():
    # the d >= 3 verdict from one triple per unordered pair equals the
    # verdict of the triples of every ordered pair at the same points
    verdicts = []
    for n, seed in ((2, 1), (3, 3)):
        g, hs = corpus_pairs(n, random.Random(seed), raw=2, killing=2, family=3, constant=2)
        for h1, h2 in itertools.combinations(hs, 2):
            spec = OperatorSpec([g, h1, h2])
            points = _sample(spec.nvars, spec.metrics, 0)
            cache = pc.FrameCache()
            ordered = all(
                r.passed
                for gb, gc in itertools.permutations(spec.metrics, 2)
                for r in pair_conditions(gc, gb, points, cache)
            )
            verdicts.append(verify_operator(spec).verdict)
            assert verdicts[-1] == ordered, n
    assert set(verdicts) == {True, False}


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
