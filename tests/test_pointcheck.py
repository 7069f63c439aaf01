"""The point kernel over its two fields and the point scans over F_p.

The F_p kernel is the image of the Q kernel: at a seeded integer point every
jet and every obstruction component over F_p equals the Q value reduced mod
p.  A Q frame cache is the exact reference for the F_p point scans of
verify, and the symbolic residual streams are pinned to the point
hits component by component.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hamop import pointcheck as pc
from hamop.catalog import catalog, get_entry
from hamop.errors import DisagreementBug
from hamop.geometry import (
    T_NAMES,
    covariant_hessian,
    flatness_witness,
    killing_stream,
    levi_civita,
    nijenhuis_stream,
)
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import MultiPoly
from hamop.specfile import default_param_values, specialize_spec
from hamop.verify import (
    SCAN_POINTS,
    _check_operator,
    _mokhov_at,
    _scan_points,
    constant_inverse,
    mokhov_conditions,
    theorem2_conditions,
    verify_operator,
)

from conftest import corpus_pairs, operator5_pair, u_vars


def _reduce(x):
    if isinstance(x, list):
        return [_reduce(y) for y in x]
    return pc.FP.of(x)


def _catalog_spec(e):
    values = default_param_values(e.spec)
    return specialize_spec(e.spec, values) if values else e.spec


def _catalog_pair(e):
    spec = _catalog_spec(e)
    return e.id, spec.g, spec.gt


def _small_corpus(n, seed):
    g, hs = corpus_pairs(n, random.Random(seed), raw=3, killing=2, family=2, constant=1)
    return [(f"corpus-n{n}-{k}", g, h) for k, h in enumerate(hs)]


def test_fp_kernel_is_q_kernel_mod_p():
    pairs = _small_corpus(2, 11) + _small_corpus(3, 12)
    pairs += [_catalog_pair(get_entry(i)) for i in ("mokhov-n3", "thm3-case1", "s22-case1")]
    for name, g, h in pairs:
        qpt = pc.sample_points(g.nvars, [g, h], seed=7, count=1)[0]
        fpt = _reduce(qpt)
        qg, qh = pc.PointFrame(g, qpt), pc.PointFrame(h, qpt)
        fg, fh = pc.PointFrame(g, fpt, pc.FP), pc.PointFrame(h, fpt, pc.FP)
        rng = range(g.n)
        for qf, ff in ((qg, fg), (qh, fh)):
            for jet in ("G", "Ginv", "Gamma"):
                assert getattr(ff, jet) == _reduce(getattr(qf, jet)), (name, jet)
            for idx in itertools.product(rng, repeat=4):
                assert ff.dgamma(*idx) == pc.FP.of(qf.dgamma(*idx)), (name, "dGamma", idx)
        # b and R whole, db and dR entry by entry; over Q, b and d_r b are
        # the symbolic b_upper and its partial at the point
        (qb, qR, qdb, qdR), (fb, fR, fdb, fdR) = pc.obstruction_at(qg, qh), pc.obstruction_at(fg, fh)
        b_upper = levi_civita(h).b_upper
        assert qb == [[[x.eval(qpt) for x in row] for row in plane] for plane in b_upper], name
        assert fb == _reduce(qb), (name, "b")
        assert fR == _reduce(qR), (name, "raised")
        for r, i, j, k in itertools.product(rng, repeat=4):
            assert qdb(r, i, j, k) == b_upper[i][j][k].partial(r + 1).eval(qpt), (name, "db")
            assert fdb(r, i, j, k) == pc.FP.of(qdb(r, i, j, k)), (name, "db")
            assert fdR(r, i, j, k) == pc.FP.of(qdR(r, i, j, k)), (name, "dRaised")


def test_mokhov_kernel_reads_first_jets_only(monkeypatch):
    # b, R and their derivatives come from G, A, G^-1 and d G^-1 of h; the
    # second jets of either frame are never read
    def refuse(*args):
        raise AssertionError("second jet read")

    monkeypatch.setattr(pc.PointFrame, "dgamma", refuse)
    monkeypatch.setattr(pc.PointFrame, "ddGinv", refuse)
    hits = set()
    for name, g, h in _small_corpus(2, 11) + _small_corpus(3, 12):
        qpt = pc.sample_points(g.nvars, [g, h], seed=7, count=1)[0]
        for field, pt in ((pc.Q, qpt), (pc.FP, _reduce(qpt))):
            fg, fh = pc.PointFrame(g, pt, field), pc.PointFrame(h, pt, field)
            _, _, db, dR = pc.obstruction_at(fg, fh)
            for idx in itertools.product(range(g.n), repeat=4):
                db(*idx), dR(*idx)
            hits |= {t for t, thunk in pc.mokhov_at(fg, fh) if thunk() is not None}
    assert hits == set(T_NAMES)


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
    ref = verify_operator(OperatorSpec([g, h]))
    rep = verify_operator(OperatorSpec([g, hp]))
    assert rep.verdict == ref.verdict == (not failing)
    assert rep.failed_names() == ref.failed_names()


def _sampled_both_ways(g, h, points=None):
    """Conditions of both criteria, scanned on F_p frames and on Q frames."""
    runs = []
    for cache in (None, pc.FrameCache(pc.Q)):
        mok = mokhov_conditions(g, h, points=points, cache=cache)
        th2 = theorem2_conditions(g, h, points=points, cache=cache)
        runs.append(mok.conditions + th2.conditions)
    return runs


def test_sampled_fp_matches_q():
    # equal ConditionResults, witnesses (index tuple, exact residual, point)
    # included; the catalog pairs pass at every point, so four points each
    # keep the Q reference affordable
    verdicts = set()
    for e in catalog():
        if e.n <= 4 and e.spec.d == 2:
            _, g, h = _catalog_pair(e)
            points = pc.sample_points(g.nvars, [g, h], seed=0, count=4)
            fp, q = _sampled_both_ways(g, h, points)
            assert fp == q, e.id
            verdicts.add(all(c.passed for c in fp))
    for name, g, h in _small_corpus(2, 31) + _small_corpus(3, 32):
        fp, q = _sampled_both_ways(g, h)
        assert fp == q, name
        verdicts.add(all(c.passed for c in fp))
    assert verdicts == {True, False}


def test_sampled_fp_matches_q_pairwise():
    # d = 3: flat(g1) plus linearity / Nijenhuis / Killing per unordered pair,
    # against a constant and against a non-constant reference metric; the
    # second spec swaps in a random (failing) third metric
    base = _catalog_spec(get_entry("thm5-3d-1"))
    _, (raw,) = corpus_pairs(3, random.Random(33), raw=1, killing=0, family=0, constant=0)
    verdicts = []
    for spec in (base, OperatorSpec([*base.metrics[:2], raw])):
        points = pc.sample_points(spec.nvars, spec.metrics, seed=0, count=4)
        fp = _check_operator(spec, 0, points, pc.FrameCache(pc.FP))
        q = _check_operator(spec, 0, points, pc.FrameCache(pc.Q))
        assert fp.conditions == q.conditions
        verdicts.append(fp.verdict)
    assert verdicts == [True, False]


@pytest.mark.parametrize("failing", [False, True])
def test_sampled_non_unit_denominator_runs_on_q(failing):
    # a coefficient 1/p cannot be mapped into F_p, so the whole report runs
    # on Q; scaling h by a constant keeps every condition's zero pattern, so
    # the report matches the unscaled pencil's (exactly, when it passes)
    g, h = operator5_pair()
    if failing:
        u1, _ = u_vars(2)
        z = MultiPoly.zero(2)
        h = LinearMetric(2, PolyMatrix([[u1, z], [z, u1]]))
    hp = LinearMetric(2, h.mat.scale(Fraction(1, pc.P)))
    assert pc.FrameCache(pc.FP).frame(hp, [Fraction(1), Fraction(2)]).F is pc.Q
    fp, q = _sampled_both_ways(g, hp)
    assert fp == q
    rep = verify_operator(OperatorSpec([g, hp]))
    ref = verify_operator(OperatorSpec([g, h]))
    assert rep.verdict == ref.verdict == (not failing)
    if failing:
        def shape(r):
            return [(c.name, c.witness.indices, c.witness.point)
                    for c in r.conditions if not c.passed]
        assert shape(rep) == shape(ref)
    else:
        assert rep.to_dict() == ref.to_dict()


@pytest.mark.parametrize("h22", ["one", "u1"])
def test_point_singular_mod_p_runs_on_q(h22):
    # det diag(u1, *) is 0 mod p at u1 = p but not over Q: every frame at
    # that point is built over Q, the other point stays on F_p, and the
    # report equals the Q report, witnesses at the first point included
    # (both pencils fail there)
    u1, _ = u_vars(2)
    z = MultiPoly.zero(2)
    second = MultiPoly.const(2, 1) if h22 == "one" else u1
    g = LinearMetric.antidiagonal(2)
    h = LinearMetric(2, PolyMatrix([[u1, z], [z, second]]))
    points = [[Fraction(pc.P), Fraction(1)], [Fraction(3), Fraction(5)]]
    runs = []
    for cache in (pc.FrameCache(pc.FP), pc.FrameCache(pc.Q)):
        mok = mokhov_conditions(g, h, points=points, cache=cache)
        th2 = theorem2_conditions(g, h, points=points, cache=cache)
        runs.append((mok.conditions + th2.conditions, cache))
    (fp, cache), (q, _) = runs
    assert fp == q
    assert cache.frame(g, points[0]).F is cache.frame(h, points[0]).F is pc.Q
    assert cache.frame(g, points[1]).F is cache.frame(h, points[1]).F is pc.FP
    failed = [c for c in fp if not c.passed]
    assert failed
    assert all(c.witness.point == (f"{pc.P}/1", "1/1") for c in failed)


def test_fp_hit_without_q_hit_is_an_internal_error():
    # a nonzero residue mod p proves a nonzero rational value, so an F_p hit
    # that the Q recomputation at the same point does not reproduce is a
    # defect and must raise, not pass or report an F_p residue
    g = LinearMetric.antidiagonal(2)
    points = [[Fraction(3), Fraction(5)]]

    def fp_only(f):
        yield "probe", lambda: ((1,), f.G[0][1]) if f.F is pc.FP else None

    proofs = {"probe": list}
    with pytest.raises(DisagreementBug, match=r"zero over Q at \(3/1, 5/1\)"):
        _scan_points(proofs, fp_only, (g,), points, pc.FrameCache(pc.FP))
    (result,) = _scan_points(proofs, fp_only, (g,), points, pc.FrameCache(pc.Q))
    assert result.passed


def test_q_witness_of_a_flatness_hit_reads_only_its_jets(monkeypatch):
    # the Q recomputation of a certified flat(g2) hit builds d_r Gamma entry
    # by entry, as the curvature components up to the first failing one read
    # them, not all n^4; the witness is still the numerator oracle's
    g, (h,) = corpus_pairs(4, random.Random(43), raw=1, killing=0, family=0, constant=0)
    entries = []
    entry = pc.PointFrame._dgamma_entry

    def counted(f, *idx):
        if f.F is pc.Q:
            entries.append(idx)
        return entry(f, *idx)

    monkeypatch.setattr(pc.PointFrame, "_dgamma_entry", counted)
    points = pc.sample_points(g.nvars, [g, h], seed=0, count=SCAN_POINTS)
    (flat,) = _scan_points(
        {"flat(g2)": list}, _mokhov_at, (g, h), points, pc.FrameCache(pc.FP)
    )
    assert not flat.passed
    assert 0 < len(entries) < g.n**4
    idx, value = _riemann_numerator_hit(h, [Fraction(x) for x in flat.witness.point])
    assert flat.witness.indices == idx
    assert flat.witness.residual == f"{value.numerator}/{value.denominator}"


def test_q_pass_runs_only_the_conditions_that_hit(monkeypatch):
    # h = diag(u1, 1) is flat, and against the antidiagonal metric T1, T2
    # and T5 fail at the first scan point.  Its contravariant connection is
    # constant (b^{11}_1 = 1/2), so mokhov_conditions proves flat(g2) on it
    # and never runs the flatness kernel; a scan of every Mokhov condition
    # runs it over F_p without a hit, and the Q passes that recompute the
    # T hits never run it over Q
    u1, _ = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    h = LinearMetric(2, PolyMatrix([[u1, z], [z, MultiPoly.const(2, 1)]]))
    fields = []
    flat_at = pc.flat_at

    def counted(f):
        fields.append(f.F)
        return flat_at(f)

    monkeypatch.setattr(pc, "flat_at", counted)
    rep = mokhov_conditions(g, h)
    assert rep.failed_names() == ["T1", "T2", "T5"]
    assert all(c.witness.point for c in rep.conditions if not c.passed)
    assert fields == []
    points = pc.sample_points(g.nvars, [g, h], seed=0, count=SCAN_POINTS)
    scanned = _scan_points(
        dict.fromkeys(("flat(g2)", *T_NAMES), list), _mokhov_at, (g, h), points,
        pc.FrameCache(pc.FP),
    )
    assert [c.to_dict() for c in scanned] == [c.to_dict() for c in rep.conditions[1:]]
    assert pc.FP in fields and pc.Q not in fields


def _first_hit(stream, value):
    """(1-based indices, value(residual)) of the first component of a lazy
    (indices, residual) stream whose value is nonzero, or None."""
    return next(((idx, value(r)) for idx, r in stream if r and value(r)), None)


def _riemann_numerator_hit(h, point):
    """First (1-based indices, value) of R^i_{jkl} = N_{ijkl} / det^4 nonzero
    at ``point``, N assembled lazily from the Christoffel numerators
    P = det^2 Gamma of h (det = det h)."""
    conn = levi_civita(h)
    if conn.det is None:
        return None
    n, P, det = h.n, conn.gamma_num, conn.det
    dd = [det.partial(m + 1) for m in range(n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        a = P[i][l][j].partial(k + 1) * det - P[i][l][j] * (2 * dd[k])
        b = P[i][k][j].partial(l + 1) * det - P[i][k][j] * (2 * dd[l])
        num = (a - b) * det
        for s in range(n):
            num = num + P[i][k][s] * P[s][l][j] - P[i][l][s] * P[s][k][j]
        value = num.eval(point)
        if value:
            return (i + 1, j + 1, k + 1, l + 1), value / det.eval(point) ** 4
    return None


def test_symbolic_tensors_match_point_hits():
    # component-level link between the symbolic and the point feeds: at one
    # Q point per ordered (reference g, other h) pair, the first component of
    # each symbolic residual stream that is nonzero there is the point hit
    # over Q, and over F_p it is the same index tuple with the value reduced
    # mod p.  The curvature is the Riemann numerator over det^4, and the
    # symbolic flatness witness is the first curvature component that is
    # nonzero at the point
    pairs = _small_corpus(2, 41) + _small_corpus(3, 42)
    spec = _catalog_spec(get_entry("thm5-3d-1"))
    pairs += [(f"thm5-3d-1[{b}|{c}]", gc, gb)
              for b, gb in enumerate(spec.metrics, 1)
              for c, gc in enumerate(spec.metrics, 1) if b != c]
    verdicts = set()
    for name, g, h in pairs:
        n = g.n
        qpt = pc.sample_points(g.nvars, [g, h], seed=5, count=1)[0]

        def at(e):
            return e.eval(qpt)

        L = h.mat @ (constant_inverse(g) if g.is_constant() else g.inverse())
        sym = {
            "flat": _riemann_numerator_hit(h, qpt),
            "nijenhuis": _first_hit(nijenhuis_stream(L, n), at),
            "killing": _first_hit(killing_stream(g, h, n), at),
            "linearity": _first_hit(covariant_hessian(h.mat, n, g), at),
        }
        point = {}
        for field, pt in ((pc.Q, qpt), (pc.FP, _reduce(qpt))):
            fg, fh = pc.PointFrame(g, pt, field), pc.PointFrame(h, pt, field)
            point[field] = {
                "flat": pc.flat_at(fh),
                "nijenhuis": pc.nijenhuis_at(fh, fg),
                "killing": pc.killing_at(fg, fh),
                "linearity": pc.linearity_at(fg, fh),
            }
        assert point[pc.Q] == sym, name
        reduced = {k: hit and (hit[0], pc.FP.of(hit[1])) for k, hit in sym.items()}
        assert point[pc.FP] == reduced, name
        w = flatness_witness(h)
        assert (w is None) == (sym["flat"] is None), name
        if w is not None:
            assert w[0] == sym["flat"][0] and at(w[1]) == sym["flat"][1], name
        verdicts.add(all(hit is None for hit in sym.values()))
    assert verdicts == {True, False}
