"""The integer point kernel and the point scans of verify.

At a seeded integer point every jet of a ``PointFrame``, an int numerator
over its stated denominator, and every obstruction component is the value
of its symbolic counterpart there; the symbolic residual streams are pinned
to the point hits, and to the witnesses of the coefficient arrays,
component by component; a scan evaluates each pending condition once per
point, in int arithmetic, and builds one Fraction per hit.
"""

import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hamop import pointcheck as pc
from hamop.catalog import catalog, get_entry
from hamop.geometry import (
    T_NAMES,
    covariant_hessian,
    flatness_witness,
    killing_stream,
    levi_civita,
    mokhov_identities,
    nijenhuis_stream,
    raised_obstruction,
)
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec, identically_degenerate
from hamop.poly import MultiPoly, divide_exact
from hamop.scalars import format_rational
from hamop.specfile import default_param_values, load_operator_spec, specialize_spec
from hamop.verify import (
    SCAN_POINTS,
    _mokhov_at,
    _scan_points,
    _sample,
    _scan,
    _t_streams,
    _triple_proofs,
    constant_inverse,
    mokhov_conditions,
    pair_conditions,
    theorem2_conditions,
    verify_operator,
)

from conftest import corpus_pairs, operator5_pair, u_vars
from test_spectral import FRACTION_ARITHMETIC

# the Mersenne prime 2^61 - 1: a coefficient denominator and a scan point
# coordinate far outside the seeded sample range
P = 2**61 - 1


def _value(x, pt):
    """Value at ``pt`` of a symbolic entry; a symbolic tensor may hold an
    int 0 for a zero entry."""
    return x.eval(pt) if x else 0


def _partial(x, r):
    """d_r of a symbolic entry, int 0 for a zero entry."""
    return x.partial(r + 1) if x else 0


def _at(t, pt):
    """Values at ``pt`` of a nested list of symbolic entries."""
    return [_at(x, pt) for x in t] if isinstance(t, list) else _value(t, pt)


def _over(t, den):
    """Nested list of int numerators over ``den``, as Fractions."""
    return [_over(x, den) for x in t] if isinstance(t, list) else Fraction(t, den)


def _catalog_spec(e):
    values = default_param_values(e.spec)
    return specialize_spec(e.spec, values) if values else e.spec


def _catalog_pair(e):
    spec = _catalog_spec(e)
    return e.id, spec.g, spec.gt


def _small_corpus(n, seed):
    g, hs = corpus_pairs(n, random.Random(seed), raw=3, killing=2, family=2, constant=1)
    return [(f"corpus-n{n}-{k}", g, h) for k, h in enumerate(hs)]


def test_q_kernel_is_symbolic():
    # every jet of a frame is an int numerator over its stated denominator,
    # and that quotient is its symbolic counterpart at the point: G / D the
    # metric, D adj / det the inverse metric, gamma / (2 det^2) and
    # dgamma / (2 det^3) the Levi-Civita symbols and their partials,
    # c / (2 det D) and db / (2 det^2 D) the contravariant b_upper of h and
    # its partials, R / (2 det D Dg) and dR / (2 det^2 D Dg) the raised
    # obstruction on b_upper and its partials
    pairs = _small_corpus(2, 11) + _small_corpus(3, 12)
    pairs += [_catalog_pair(get_entry(i)) for i in ("mokhov-n3", "thm3-case1", "s22-case1")]
    for name, g, h in pairs:
        qpt = pc.sample_points(g.nvars, [g, h], seed=7, count=1)[0]
        qg, qh = pc.PointFrame(g, qpt), pc.PointFrame(h, qpt)
        rng = range(g.n)
        for m, f in ((g, qg), (h, qh)):
            D, det = f.D, f.det
            assert all(isinstance(x, int) for row in f.G + f.adj for x in row), name
            gamma = levi_civita(m).gamma
            inv = constant_inverse(m) if m.is_constant() else m.inverse()
            assert _over(f.G, D) == _at(m.mat.entries, qpt), name
            assert _over(f.adj, Fraction(det, D)) == _at(inv.entries, qpt), name
            assert [[_over(f.gamma[i][j], 2 * det**2) for j in rng] for i in rng] == _at(
                gamma, qpt), (name, "Gamma")
            for r, i, j, k in itertools.product(rng, repeat=4):
                want = _value(_partial(gamma[i][j][k], r), qpt)
                assert Fraction(f.dgamma(r, i, j, k), 2 * det**3) == want, (name, "dGamma")
        R, dR = pc.obstruction_at(qg, qh)
        D, det = qh.D, qh.det
        b_upper = levi_civita(h).b_upper
        raised = raised_obstruction(g.mat.entries, b_upper, g.n)
        assert _over(qh.c, 2 * det * D) == _at(b_upper, qpt), name
        assert _over(R, 2 * det * D * qg.D) == _at(raised, qpt), name
        for r, i, j, k in itertools.product(rng, repeat=4):
            want = b_upper[i][j][k].partial(r + 1).eval(qpt)
            assert Fraction(qh.db(r, i, j, k), 2 * det**2 * D) == want, (name, "db")
            want = _value(_partial(raised[i][j][k], r), qpt)
            assert Fraction(dR(r, i, j, k), 2 * det**2 * D * qg.D) == want, (name, "dR")


def test_mokhov_kernel_reads_first_jets_only(monkeypatch):
    # c, R and their derivatives come from G, A and adj G of h; neither
    # frame's Christoffel symbols gamma nor their derivatives are read
    def refuse(*args):
        raise AssertionError("Christoffel symbols read")

    monkeypatch.setattr(pc.PointFrame, "dgamma", refuse)
    monkeypatch.setattr(pc.PointFrame, "gamma", property(refuse))
    hits = set()
    for name, g, h in _small_corpus(2, 11) + _small_corpus(3, 12):
        qpt = pc.sample_points(g.nvars, [g, h], seed=7, count=1)[0]
        fg, fh = pc.PointFrame(g, qpt), pc.PointFrame(h, qpt)
        _, dR = pc.obstruction_at(fg, fh)
        for idx in itertools.product(range(g.n), repeat=4):
            fh.db(*idx), dR(*idx)
        hits |= {t for t, thunk in pc.mokhov_at(fg, fh) if thunk() is not None}
    assert hits == set(T_NAMES)


@pytest.mark.parametrize("failing", [False, True])
def test_non_unit_denominator_keeps_verdict(failing):
    # scaling h by a constant preserves every condition's truth value, so
    # the pencil with h / P must give the verdict of the pencil with h
    g, h = operator5_pair()
    if failing:
        u1, _ = u_vars(2)
        z = MultiPoly.zero(2)
        h = LinearMetric(2, PolyMatrix([[u1, z], [z, u1]]))
    hp = LinearMetric(2, h.mat.scale(Fraction(1, P)))
    ref = verify_operator(OperatorSpec([g, h]))
    rep = verify_operator(OperatorSpec([g, hp]))
    assert rep.verdict == ref.verdict == (not failing)
    assert rep.failed_names() == ref.failed_names()


@pytest.mark.parametrize("failing", [False, True])
def test_non_unit_denominator_keeps_the_report(failing):
    # a coefficient 1/P: scaling h by a constant keeps every condition's
    # zero pattern, so the report matches the unscaled pencil's (exactly,
    # when it passes)
    g, h = operator5_pair()
    if failing:
        u1, _ = u_vars(2)
        z = MultiPoly.zero(2)
        h = LinearMetric(2, PolyMatrix([[u1, z], [z, u1]]))
    hp = LinearMetric(2, h.mat.scale(Fraction(1, P)))
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
def test_scan_point_with_a_large_coordinate(h22):
    # a scan point with u1 = P, far outside the sample range: both pencils
    # fail there, and every witness is at that first point
    u1, _ = u_vars(2)
    z = MultiPoly.zero(2)
    second = MultiPoly.const(2, 1) if h22 == "one" else u1
    g = LinearMetric.antidiagonal(2)
    h = LinearMetric(2, PolyMatrix([[u1, z], [z, second]]))
    points = [[Fraction(P), Fraction(1)], [Fraction(3), Fraction(5)]]
    mok = mokhov_conditions(g, h, points=points)
    th2 = theorem2_conditions(g, h, points=points)
    failed = [c for c in mok.conditions + th2.conditions if not c.passed]
    assert failed
    assert all(c.witness.point == (f"{P}/1", "1/1") for c in failed)


def test_q_witness_of_a_flatness_hit_reads_only_its_jets(monkeypatch):
    # a flat(g2) hit builds the rows of Gamma and the entries of d_r Gamma
    # and d_r b that it reads, as the curvature components up to the first
    # failing one read them, not all of them; the witness is the numerator
    # oracle's.  h's connection is built once at the point: by flat(g2), and
    # T1-T5 read the same c
    g, (h,) = corpus_pairs(4, random.Random(43), raw=1, killing=0, family=0, constant=0)
    built = []
    numerators = pc.connection_numerators

    def counted(*args):
        built.append(args)
        return numerators(*args)

    monkeypatch.setattr(pc, "connection_numerators", counted)
    points = pc.sample_points(g.nvars, [g, h], seed=0, count=SCAN_POINTS)
    cache = pc.FrameCache()
    (flat,) = _scan_points(("flat(g2)",), _mokhov_at, (g, h), points, cache)
    assert not flat.passed
    assert flat.witness.point == tuple(f"{x}/1" for x in points[0])
    fh = cache.frame(h, points[0])
    assert 0 < len(fh._dgamma) < g.n**4 and 0 < len(fh._db) < g.n**4
    rows = sum(len(plane._items) for plane in fh.gamma._items.values())
    assert 0 < rows < g.n**2
    idx, value = _riemann_numerator_hit(h, [Fraction(x) for x in flat.witness.point])
    assert flat.witness.indices == idx
    assert flat.witness.residual == f"{value.numerator}/{value.denominator}"
    assert len(built) == 1
    mokhov = _scan_points(T_NAMES, _mokhov_at, (g, h), points[:1], cache)
    assert not any(c.passed for c in mokhov)
    assert len(built) == 1


@pytest.mark.parametrize("n, seed", [(3, 44), (4, 43)])
def test_a_t5_hit_reads_only_its_jets(n, seed):
    # T5's derivative term h^{mr} d_r R is read one component at a time, as
    # the stream reaches it, not a block of them: a hit at a point reads the
    # d_r R^{ijk} of the components (m, i, j, k) up to it with h^{mr} != 0,
    # and no more
    g, (h,) = corpus_pairs(n, random.Random(seed), raw=1, killing=0, family=0, constant=0)
    (point, _) = pc.sample_points(g.nvars, [g, h], seed=0, count=SCAN_POINTS)
    fg, fh = pc.PointFrame(g, point), pc.PointFrame(h, point)
    R, dR = pc.obstruction_at(fg, fh)
    streams = dict(mokhov_identities(R, dR, fh.c, fh.G, n))
    idx, _ = next(streams["T5"])
    upto = itertools.takewhile(lambda c: c <= tuple(x - 1 for x in idx),
                               itertools.product(range(n), repeat=4))
    read = {(r, i, j, k) for m, i, j, k in upto for r in range(n) if fh.G[m][r]}
    assert 0 < dR.cache_info().currsize == len(read) < n**4


def test_each_pending_condition_is_evaluated_once_per_point(monkeypatch):
    # h = diag(u1, 1) is flat, and against the antidiagonal metric T1, T2
    # and T5 fail at the first scan point.  Its contravariant connection is
    # constant (b^{11}_1 = 1/2), so mokhov_conditions proves flat(g2), T3
    # and T4 on it and runs only the kernels of T1, T2 and T5, once each, at
    # the first point.  A scan of every Mokhov condition
    # evaluates each of them once at the first point, where a hit is the
    # witness, and only the undecided flat(g2), T3 and T4 at the second and
    # at the generic point
    u1, _ = u_vars(2)
    z = MultiPoly.zero(2)
    g = LinearMetric.antidiagonal(2)
    h = LinearMetric(2, PolyMatrix([[u1, z], [z, MultiPoly.const(2, 1)]]))
    calls = []
    flat_at, mokhov_at = pc.flat_at, pc.mokhov_at

    def counted_flat(f):
        calls.append(("flat(g2)", id(f.point)))
        return flat_at(f)

    def counted_mokhov(fg, fh):
        for name, thunk in mokhov_at(fg, fh):
            yield name, lambda name=name, thunk=thunk: (
                calls.append((name, id(fg.point))), thunk())[1]

    monkeypatch.setattr(pc, "flat_at", counted_flat)
    monkeypatch.setattr(pc, "mokhov_at", counted_mokhov)
    rep = mokhov_conditions(g, h)
    assert rep.failed_names() == ["T1", "T2", "T5"]
    assert all(c.witness.point for c in rep.conditions if not c.passed)
    assert [name for name, _ in calls] == ["T1", "T2", "T5"]
    calls.clear()
    points = pc.sample_points(g.nvars, [g, h], seed=0, count=SCAN_POINTS)
    names = ("flat(g2)", *T_NAMES)
    scanned = _scan_points(names, _mokhov_at, (g, h), points, pc.FrameCache())
    assert [c.to_dict() for c in scanned] == [c.to_dict() for c in rep.conditions[1:]]
    first, second = (id(pt) for pt in points)
    undecided = ("flat(g2)", "T3", "T4")
    assert sorted(calls) == sorted([(name, first) for name in names] + [
        (name, pt) for pt in (second, id(None)) for name in undecided])
    # verify_operator on failing pencils: no condition runs twice at a point
    for spec in (OperatorSpec([g, h]), OperatorSpec(_small_corpus(3, 12)[0][1:])):
        calls.clear()
        verify_operator(spec)
        assert calls and len(calls) == len(set(calls))


def _first_hit(stream, value):
    """(1-based indices, value(residual)) of the first component of a lazy
    (indices, residual) stream whose value is nonzero, or None."""
    return next(((idx, value(r)) for idx, r in stream if r and value(r)), None)


def _riemann_numerators(h):
    """Lazy (1-based indices, N) of R^i_{jkl} = N / det^4 for k < l, N
    assembled from the Christoffel numerators P = det^2 Gamma of a
    non-constant h (det = det h), read off levi_civita's reduced rational
    Gamma."""
    conn = levi_civita(h)
    n, det = h.n, conn.det
    det2 = det * det
    P = [[[x.num * divide_exact(det2, x.den) for x in row] for row in plane]
         for plane in conn.gamma]
    dd = [det.partial(m + 1) for m in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        for l in range(k + 1, n):
            a = P[i][l][j].partial(k + 1) * det - P[i][l][j] * (2 * dd[k])
            b = P[i][k][j].partial(l + 1) * det - P[i][k][j] * (2 * dd[l])
            num = (a - b) * det
            for s in range(n):
                num = num + P[i][k][s] * P[s][l][j] - P[i][l][s] * P[s][k][j]
            yield (i + 1, j + 1, k + 1, l + 1), num


def _riemann_numerator_hit(h, point):
    """First (1-based indices, value) of R^i_{jkl} nonzero at ``point``
    (``_riemann_numerators`` over det^4), or None."""
    if h.is_constant():
        return None
    det = levi_civita(h).det.eval(point)
    return next(((idx, value / det**4) for idx, num in _riemann_numerators(h)
                 if (value := num.eval(point))), None)


def test_symbolic_tensors_match_point_hits():
    # component-level link between the symbolic and the point feeds: at one
    # Q point per ordered (reference g, other h) pair, the first component of
    # each symbolic residual stream that is nonzero there is the point hit,
    # and, for the conditions the coefficient arrays decide (Killing always),
    # their witness of a scan at that point.
    # The curvature is the Riemann numerator over det^4, and the
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
        fg, fh = pc.PointFrame(g, qpt), pc.PointFrame(h, qpt)
        point = {
            "flat": pc.flat_at(fh),
            "nijenhuis": pc.nijenhuis_at(fh, fg),
            "linearity": pc.linearity_at(fg, fh),
        }
        assert point == {k: sym[k] for k in point}, name
        # the arrays decide Killing for every pair, with a scan's witness at qpt
        arrays = {c.name: _point_hit(c) for c in _triple_proofs(g, h, [qpt])}
        assert "killing" in arrays and all(arrays[k] == sym[k] for k in arrays), name
        w = flatness_witness(h)
        assert (w is None) == (sym["flat"] is None), name
        if w is not None:
            assert w[0] == sym["flat"][0] and at(w[1]) == sym["flat"][1], name
        verdicts.add(all(hit is None for hit in sym.values()))
    assert verdicts == {True, False}


def _point_hit(c):
    """(indices, residual) of a condition's witness at a point, or None."""
    w = c.witness
    return (w.indices, Fraction(w.residual)) if w and w.point else None


def test_point_scan_builds_one_fraction_per_hit(monkeypatch):
    # between the integer points and the hits every jet and every value of
    # a coefficient array is an int numerator.  With Fraction's arithmetic
    # refused, flat(g2) and T1-T5 are scanned, and the triple of both orders
    # is decided by pair_conditions (on the arrays for the constant
    # reference; linearity and Nijenhuis scanned on the non-constant one),
    # at the seed's points of two failing pencils, and the only Fraction
    # built is each hit's residual, one per hit
    golden = Path(__file__).parent / "golden" / "pencil-n3-raw.spec.json"
    spec = load_operator_spec(golden.read_text())
    g4, (h4,) = corpus_pairs(4, random.Random(43), raw=1, killing=0, family=0, constant=0)
    cases = []
    for g, h in ((spec.g, spec.gt), (g4, h4)):
        points = pc.sample_points(g.nvars, [g, h], seed=0, count=SCAN_POINTS)
        cases.append((g, h, points, [m.derivative_matrices() for m in (g, h)]))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a point scan")

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    scanned = []
    for g, h, points, _ in cases:
        cache = pc.FrameCache()
        scanned += _scan_points(("flat(g2)", *T_NAMES), _mokhov_at, (g, h), points, cache)
        scanned += pair_conditions(g, h, points, cache)
        scanned += pair_conditions(h, g, points, cache)
    monkeypatch.undo()
    hits = [c for c in scanned if not c.passed]
    assert all(c.witness.point for c in hits)
    assert len(built) == len(hits) >= 20
    assert {c.name for c in hits} == {"flat(g2)", *T_NAMES, "nijenhuis", "killing", "linearity"}


@pytest.mark.parametrize("n, seeds", [(2, (1, 2, 3)), (3, (1, 2, 3)), (4, (1,)),
                                      (5, (1, 2, 3)), (6, (1, 2, 3)), (7, (1,)), (8, (1, 2))])
def test_scan_witnesses_are_the_symbolic_streams_at_their_points(n, seeds):
    # differential test of the integer frame and of the coefficient arrays
    # on raw and Killing-space pencils: each witness of verify's point scan
    # is the first component of the symbolic stream that is nonzero at the
    # witness point, with its value there.  Nijenhuis and Killing, which
    # the arrays decide, are checked at every n; flat(g2)
    # (the Riemann numerators over det^4) and T1-T5 (the rational streams of
    # the proofs, ``_t_streams``) up to n = 4, as levi_civita's rational
    # connection of a dense n = 5 pencil alone takes seconds
    witnessed = set()
    for seed in seeds:
        g, hs = corpus_pairs(n, random.Random(seed), raw=1, killing=1, family=0, constant=0)
        for h in hs:
            L = h.mat @ constant_inverse(g)
            t_streams = functools.cache(lambda h=h: _t_streams(g, h))
            streams = {"nijenhuis": lambda: nijenhuis_stream(L, n),
                       "killing": lambda h=h: killing_stream(g, h, n)}
            if n <= 4:
                streams.update({t: lambda t=t: t_streams()[t] for t in T_NAMES})
            for c in verify_operator(OperatorSpec([g, h])).conditions:
                if c.passed or c.witness.point is None:
                    continue
                pt = [Fraction(x) for x in c.witness.point]
                if c.name == "flat(g2)" and n <= 4:
                    hit = _riemann_numerator_hit(h, pt)
                elif c.name in streams:
                    hit = _first_hit(streams[c.name](), lambda r: r.eval(pt))
                else:
                    continue
                assert (c.witness.indices, c.witness.residual) == (
                    hit[0], format_rational(hit[1])), (n, seed, c.name)
                witnessed.add(c.name)
    expected = {"nijenhuis", "killing"} | ({"flat(g2)", *T_NAMES} if n <= 4 else set())
    assert witnessed == expected


def _near_miss_mutants():
    """(name, spec) of one-coefficient mutants of the d = 2 catalog entries
    with n <= 6, formal parameters kept: one entry h^{ij} = h^{ji} raised by
    1 or by a u_k, four seeded draws per entry; a draw that makes h
    identically degenerate is skipped."""
    rng = random.Random(171)
    out = []
    for e in catalog():
        if e.spec.d != 2 or e.n > 6:
            continue
        n, nvars, g, h = e.n, e.spec.nvars, e.spec.g, e.spec.gt
        for _ in range(4):
            i, j = sorted((rng.randrange(n), rng.randrange(n)))
            k = rng.randrange(n + 1)
            bump = MultiPoly.variable(nvars, k) if k else MultiPoly.const(nvars, 1)
            z = MultiPoly.zero(nvars)
            mat = h.mat + PolyMatrix([[bump if {a, b} == {i, j} else z for b in range(n)]
                                      for a in range(n)])
            if not identically_degenerate(mat):
                spec = OperatorSpec([g, LinearMetric(n, mat)])
                out.append((f"{e.id}+{bump}@{i + 1}{j + 1}", spec))
    return out


def _check_triple_witnesses(g, h, points, conditions) -> set:
    """Check each failing Nijenhuis or Killing condition of the pencil
    (g, h) scanned at ``points`` against its symbolic stream: a witness at a
    point is the stream's first component nonzero there, with its value
    there, and no earlier scan point has one; a witness with no point is the
    stream's first nonzero component, nonzero at no scan point.  Returns
    the (name, has a point) of the witnesses checked."""
    n = g.n
    streams = {"nijenhuis": lambda: nijenhuis_stream(h.mat @ constant_inverse(g), n),
               "killing": lambda: killing_stream(g, h, n)}
    seen = set()
    for c in conditions:
        if c.passed or c.name not in streams:
            continue
        w = c.witness
        scanned = points[:points.index([Fraction(x) for x in w.point])] if w.point else points
        for pt in scanned:
            assert _first_hit(streams[c.name](), lambda r: r.eval(pt)) is None, c.name
        if w.point:
            pt = points[len(scanned)]
            hit = _first_hit(streams[c.name](), lambda r: r.eval(pt))
            assert (w.indices, w.residual) == (hit[0], format_rational(hit[1])), c.name
        else:
            assert c == _scan(c.name, streams[c.name]()), c.name
        seen.add((c.name, w.point is not None))
    return seen


def test_near_miss_witnesses_are_the_symbolic_streams_at_their_points():
    # the refuting direction of the coefficient arrays on pencils one
    # coefficient away from a catalogued Hamiltonian one, some with formal
    # parameters: every Nijenhuis and Killing witness is its stream's
    mutants = _near_miss_mutants()
    failing, witnessed = 0, set()
    for name, spec in mutants:
        rep = verify_operator(spec)
        failing += not rep.verdict
        points = _sample(spec.nvars, spec.metrics, 0)
        witnessed |= _check_triple_witnesses(spec.g, spec.gt, points, rep.conditions)
    assert len(mutants) >= 150 and failing > len(mutants) // 2
    assert {"nijenhuis", "killing"} == {c for c, _ in witnessed}
    assert any(spec.nvars > spec.n for _, spec in mutants)


def test_array_witnesses_carry_the_denominators():
    # a witness residual is the value of the residual, whatever the metrics'
    # coefficient denominators: failing corpus pencils with g scaled by 2/3
    # and h by 7/5 (which keeps each condition's zero pattern), scanned at
    # the seed's points and with none, have their streams' witnesses
    witnessed = set()
    for n in (2, 3, 4):
        g, hs = corpus_pairs(n, random.Random(n), raw=2, killing=2, family=0, constant=0)
        g = LinearMetric(n, g.mat.scale(Fraction(2, 3)))
        for h in hs:
            h = LinearMetric(n, h.mat.scale(Fraction(7, 5)))
            for points in (_sample(g.nvars, [g, h], 0), []):
                rep = theorem2_conditions(g, h, points=points)
                witnessed |= _check_triple_witnesses(g, h, points, rep.conditions)
    assert witnessed == {(c, p) for c in ("nijenhuis", "killing") for p in (True, False)}
