"""The integer form of a metric: its coefficient arrays D g = M0 + u_s M_s,
built once and read by every point value, proof and Segre affinor.

* A tripwire: ``hamop verify`` on a spec file splits no metric entry into
  affine parts more than once and evaluates no entry of a parameter-free
  metric at a point; the loader builds the arrays, and every later reader
  reads them.
* A differential test of the arrays against the polynomial matrix they
  come from: the loader's arrays, point values, ``is_constant`` and
  ``degenerate_at``, and the point spectra of the integer affinor against
  those of the polynomial affinor h g^-1.
* Properties of the zero-skipping integer kernels (``linsolve.mat_mul``
  and its entry types, ``matrices.adjugate_det``, the T1..T5, curvature,
  Nijenhuis and Killing streams, the torsion decision of
  ``geometry.constant_connection``) against the dense formulas written out
  here (cofactors for the adjugate).  The T1..T5 and curvature streams list
  only their nonzero components, so they are compared with the nonzero
  components of the dense formulas, in order; entries of +-1 make products
  that cancel to 0 inside a block, and such a component is left out.
"""

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hamop import cli
from hamop.catalog import catalog, get_entry
from hamop.errors import DegenerateEverywhere
from hamop.geometry import (
    T_NAMES,
    constant_connection,
    killing_components,
    mokhov_identities,
    nijenhuis_components,
    riemann_components,
)
from hamop.linsolve import mat_mul
from hamop.matrices import PolyMatrix, adjugate_det
from hamop.metrics import LinearMetric, OperatorSpec, coefficient_arrays, degenerate_at
from hamop.pointcheck import sample_points
from hamop.poly import MultiPoly
from hamop.specfile import (
    default_param_values,
    dump_operator_spec,
    load_operator_spec,
    specialize_spec,
)
from hamop.spectral import (
    SEGRE_POINTS,
    SEGRE_RANGE,
    affinor,
    integer_affinor,
    spectrum_at_point,
)
from hamop.verify import constant_inverse

from conftest import corpus_pairs

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# tripwire
# ---------------------------------------------------------------------------


def _catalog_spec_file(tmp_path, entry_id):
    e = get_entry(entry_id)
    values = default_param_values(e.spec)
    spec = specialize_spec(e.spec, values) if values else e.spec
    path = tmp_path / f"{entry_id}.json"
    path.write_text(json.dumps(dump_operator_spec(spec)))
    return path


@pytest.mark.parametrize("source, code", [("mokhov-n5", 0), ("pencil-n3-raw", 1)])
def test_verify_reads_each_metric_entry_once(tmp_path, monkeypatch, source, code):
    # a passing catalog spec, proven on the arrays, and a failing raw corpus
    # pencil, scanned at points: the loader builds each metric's arrays from
    # the file, so no entry is split again, and every point value (sample
    # rejection, frames, Segre points) is read off the arrays
    if source.startswith("pencil"):
        path = GOLDEN / f"{source}.spec.json"
    else:
        path = _catalog_spec_file(tmp_path, source)
    loaded, split, evaluated = [], [], []
    load, affine_parts, int_eval = cli.load_operator_spec, MultiPoly.affine_parts, MultiPoly.int_eval

    def counted_load(raw):
        loaded.append(load(raw))
        return loaded[-1]

    def counted_split(self, nblock):
        split.append(id(self))
        return affine_parts(self, nblock)

    def counted_eval(self, point):
        evaluated.append(id(self))
        return int_eval(self, point)

    monkeypatch.setattr(cli, "load_operator_spec", counted_load)
    monkeypatch.setattr(MultiPoly, "affine_parts", counted_split)
    monkeypatch.setattr(MultiPoly, "int_eval", counted_eval)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(path), "--output", "json"]) == code
    monkeypatch.undo()
    (spec,) = loaded
    assert spec.nvars == spec.n  # parameter-free
    entries = {id(p) for m in spec.metrics for row in m.mat.entries for p in row}
    splits = Counter(split)
    assert all(splits[e] <= 1 for e in entries)
    assert not entries & set(evaluated)
    report = json.loads(out.getvalue())
    if code:  # the failing pencil was scanned at points
        assert any("point" in c.get("witness", {}) for c in report["conditions"])
    assert report["segre"]  # the Segre points were evaluated too


# ---------------------------------------------------------------------------
# differential test of the arrays
# ---------------------------------------------------------------------------


def _specs():
    """(name, spec) of every catalog entry, with its formal parameters and
    specialized, and of raw, Killing-space and family corpus pencils at
    n = 2..5."""
    out = []
    for e in catalog():
        out.append((e.id, e.spec))
        values = default_param_values(e.spec)
        if values:
            out.append((f"{e.id}@{values}", specialize_spec(e.spec, values)))
    for n in (2, 3, 4, 5):
        g, hs = corpus_pairs(n, random.Random(250 + n), raw=2, killing=2, family=2, constant=0)
        out += [(f"corpus-n{n}-{t}", OperatorSpec([g, h])) for t, h in enumerate(hs)]
    return out


SPECS = _specs()


def _jets_of_matrix(m, point):
    """(D, G, A) of a metric from its polynomial matrix: PolyMatrix.int_at
    of the matrix and of its partials, over the matrix's scale D."""
    G, D = m.mat.int_at(point)
    A = []
    for d in m.derivative_matrices():
        a, e = d.int_at(point)
        A.append([[x * (D // e) for x in row] for row in a])
    return D, G, A


@pytest.mark.parametrize("name, spec", SPECS, ids=[name for name, _ in SPECS])
def test_arrays_are_the_matrix(name, spec):
    n, rng = spec.n, random.Random(name)
    if spec.nvars == n:
        reloaded = load_operator_spec(dump_operator_spec(spec))
        for m, r in zip(spec.metrics, reloaded.metrics):
            assert r.mat == m.mat
            assert r.arrays == coefficient_arrays(r.mat, n) == m.arrays
    points = [[Fraction(rng.randint(-30, 30)) for _ in range(spec.nvars)] for _ in range(4)]
    for m in spec.metrics:
        partials = [p.partial(k) for row in m.mat.entries for p in row for k in range(1, n + 1)]
        assert m.is_constant() == (not any(partials))
        for pt in points:
            assert m.jets_at(pt) == _jets_of_matrix(m, pt)
            assert degenerate_at(m, pt) == degenerate_at(m.mat, pt)
    if spec.d < 2:
        return
    g, h = spec.metrics[:2]
    old = h.mat @ constant_inverse(g)
    assert affinor(g, h) == old
    L = integer_affinor(g, h)
    try:
        points = sample_points(spec.nvars, spec.metrics, 0, SEGRE_POINTS, SEGRE_RANGE)
    except DegenerateEverywhere:
        return
    for pt in points:
        assert spectrum_at_point(L, pt, n) == spectrum_at_point(old, pt, n), (name, pt)


# ---------------------------------------------------------------------------
# zero-skipping kernels against their dense formulas
# ---------------------------------------------------------------------------

PROPERTY = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_U1, _U2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
# mostly zeros, both the int 0 and the zero polynomial
_INTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5])
_POLYS = st.sampled_from([0, 0, 0, MultiPoly.zero(2), 1, -2, _U1, _U2 - 1, 3 * _U1 * _U2])
# mostly zeros and +-1, so that products cancel
_UNITS = st.sampled_from([0, 0, 0, 0, 1, -1])
_FRACS = st.sampled_from([0, 0, 0, Fraction(0), 1, -2, Fraction(1, 2), Fraction(-3, 4)])


def _arrays(entries, *shape):
    if not shape:
        return entries
    size, *rest = shape
    return st.lists(_arrays(entries, *rest), min_size=size, max_size=size)


def _dense_mat_mul(a, b):
    return [[sum(a[i][s] * b[s][j] for s in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _product_type(terms):
    """The type of a sum of products: MultiPoly if any term is one, else
    Fraction if any term is one, else int."""
    for t in (MultiPoly, Fraction):
        if any(isinstance(x, t) for x in terms):
            return t
    return int


@PROPERTY
@given(st.sampled_from([_INTS, _FRACS, _POLYS]).flatmap(
    lambda e: st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda s: st.tuples(_arrays(e, s[0], s[1]), _arrays(e, s[1], s[2])))))
def test_mat_mul_is_the_dense_product(ab):
    # the values of the dense product; each entry is int 0 exactly where no
    # product of two nonzero entries exists, and otherwise of their ring's type
    a, b = ab
    got = mat_mul(a, b)
    assert got == _dense_mat_mul(a, b)
    for i, row in enumerate(got):
        for j, x in enumerate(row):
            terms = [a[i][s] * b[s][j] for s in range(len(b)) if a[i][s] and b[s][j]]
            want = _product_type(terms) if terms else int
            assert type(x) is want and (terms or x == 0), (i, j, x, terms)


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def _cofactor_adjugate(m):
    """adj(m)[i][j] = (-1)^(i+j) det of m without row j and column i."""
    n = len(m)
    return [[(-1) ** (i + j) * _leibniz_det([[x for c, x in enumerate(row) if c != i]
                                             for r, row in enumerate(m) if r != j])
             for j in range(n)] for i in range(n)]


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: _arrays(st.integers(-4, 4), n, n)))
def test_adjugate_det_is_the_cofactor_adjugate_over_ints(m):
    adj, det = adjugate_det(m)
    assert (adj, det) == (_cofactor_adjugate(m), _leibniz_det(m))
    assert all(type(x) is int for row in adj for x in row)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: _arrays(_POLYS, n, n)))
def test_adjugate_det_is_the_cofactor_adjugate_over_polynomials(m):
    # a PolyMatrix gets MultiPoly entries only, the zero polynomial included
    pm = PolyMatrix([[MultiPoly.zero(2) + x for x in row] for row in m])
    adj, det = adjugate_det(pm)
    assert isinstance(adj, PolyMatrix) and isinstance(det, MultiPoly)
    assert all(type(x) is MultiPoly for row in adj.entries for x in row)
    want = _cofactor_adjugate(pm.entries)
    assert adj.entries == want and det == _leibniz_det(pm.entries)


def _dense_t1(R, n):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                yield (i + 1, j + 1, k + 1), R[i][j][k] - R[k][j][i]


def _dense_t2(R, n):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                yield (i + 1, j + 1, k + 1), R[i][j][k] + R[j][k][i] + R[k][i][j]


def _dense_t3(R, b, n):
    rng = range(n)
    for i in rng:
        for j in rng:
            for r in rng:
                for m in rng:
                    yield (i + 1, j + 1, r + 1, m + 1), sum(
                        R[i][r][s] * b[m][j][s] - R[i][j][s] * b[m][r][s] for s in rng)


def _dense_t4(dR, n):
    rng = range(n)
    for r in rng:
        for i in rng:
            for j in rng:
                for k in rng:
                    yield (r + 1, i + 1, j + 1, k + 1), 0 if dR is None else dR[r][i][j][k]


def _dense_t5(R, dR, b, h, n):
    rng = range(n)
    for m in rng:
        for i in rng:
            for j in rng:
                for k in rng:
                    d = 0 if dR is None else sum(h[m][r] * dR[r][i][j][k] for r in rng)
                    yield (m + 1, i + 1, j + 1, k + 1), d - sum(
                        b[m][i][l] * R[l][j][k] + b[m][j][l] * R[i][l][k]
                        + b[m][k][l] * R[i][j][l] for l in rng)


def _dense_riemann(gamma, d_gamma, n):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in range(k + 1, n):
                    d = 0 if d_gamma is None else d_gamma[k][i][l][j] - d_gamma[l][i][k][j]
                    yield (i + 1, j + 1, k + 1, l + 1), d + sum(
                        gamma[i][k][s] * gamma[s][l][j] - gamma[i][l][s] * gamma[s][k][j]
                        for s in rng)


def _nonzero(stream):
    return [(idx, v) for idx, v in stream if v]


def _dense_nijenhuis(L, dL, n):
    rng = range(n)
    for k in rng:
        for i in rng:
            for j in range(i + 1, n):
                yield (k + 1, i + 1, j + 1), sum(
                    L[s][i] * dL[s][k][j] - L[s][j] * dL[s][k][i]
                    + L[k][s] * (dL[j][s][i] - dL[i][s][j]) for s in rng)


def _dense_killing(g, dg, h, dh, n):
    rng = range(n)
    for i in rng:
        for j in range(i, n):
            for k in range(j, n):
                yield (i + 1, j + 1, k + 1), sum(
                    g[a][s] * dh[s][b][c] - h[a][s] * dg[s][b][c]
                    for a, b, c in ((i, j, k), (j, i, k), (k, i, j)) for s in rng)


def _stream_inputs(entries):
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), _arrays(entries, n, n, n), _arrays(entries, n, n, n),
        _arrays(entries, n, n), st.one_of(st.none(), _arrays(entries, n, n, n, n))))


@PROPERTY
@given(st.sampled_from([_INTS, _UNITS, _POLYS]).flatmap(_stream_inputs))
def test_mokhov_streams_are_the_dense_formulas(inputs):
    # each stream is the nonzero components of its dense formula, in order
    n, R, b, h, dR = inputs
    streams = dict(mokhov_identities(R, dR and (lambda r, i, j, k: dR[r][i][j][k]), b, h, n))
    assert list(streams) == list(T_NAMES)
    assert list(streams["T1"]) == _nonzero(_dense_t1(R, n))
    assert list(streams["T2"]) == _nonzero(_dense_t2(R, n))
    assert list(streams["T3"]) == _nonzero(_dense_t3(R, b, n))
    assert list(streams["T4"]) == _nonzero(_dense_t4(dR, n))
    assert list(streams["T5"]) == _nonzero(_dense_t5(R, dR, b, h, n))


@PROPERTY
@given(st.sampled_from([_INTS, _UNITS, _POLYS]).flatmap(lambda e: st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), _arrays(e, n, n, n),
                        st.one_of(st.none(), _arrays(e, n, n, n, n))))))
def test_riemann_stream_is_the_dense_formula(inputs):
    # with and without a derivative term: the nonzero components, in order
    n, gamma, dg = inputs
    stream = riemann_components(gamma, dg and (lambda r, i, j, k: dg[r][i][j][k]), n)
    assert list(stream) == _nonzero(_dense_riemann(gamma, dg, n))


def test_products_that_cancel_leave_no_component():
    # every product below is nonzero, and each block sums them to 0
    one = [[[1]]]
    assert list(dict(mokhov_identities(one, None, one, None, 1))["T3"]) == []
    gamma = [[[1] * 2 for _ in range(2)] for _ in range(2)]
    assert list(riemann_components(gamma, None, 2)) == []
    streams = dict(mokhov_identities(one, lambda *idx: 1, one, [[3]], 1))
    assert list(streams["T4"]) == [((1, 1, 1, 1), 1)]
    assert list(streams["T5"]) == []


@PROPERTY
@given(st.sampled_from([_INTS, _POLYS]).flatmap(lambda e: st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), _arrays(e, n, n), _arrays(e, n, n, n)))))
def test_nijenhuis_stream_is_the_dense_formula(inputs):
    n, L, dL = inputs
    assert list(nijenhuis_components(L, dL, n)) == list(_dense_nijenhuis(L, dL, n))


@PROPERTY
@given(st.sampled_from([_INTS, _UNITS, _POLYS]).flatmap(lambda e: st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), _arrays(e, n, n), _arrays(e, n, n, n), _arrays(e, n, n),
                        _arrays(e, n, n, n), st.booleans()))))
def test_killing_stream_is_the_dense_formula(inputs):
    # every component, zero ones included, in order: verify._decide reads the
    # streams in lockstep; ``families`` passes h = 0 and dg = 0
    n, g, dg, h, dh, families = inputs
    if families:
        h, dg = [[0] * n for _ in range(n)], [[[0] * n for _ in range(n)]] * n
    got = list(killing_components(g, dg, h, dh, n))
    assert len(got) == n * (n + 1) * (n + 2) // 6
    assert got == list(_dense_killing(g, dg, h, dh, n))


def _dense_constant_connection(h, u):
    """geometry.constant_connection written out densely on the arrays."""
    n, rng = h.n, range(h.n)
    D, (H0, *dH) = h.arrays
    h0 = [[H0[i][j] + sum(u[s] * dH[s][i][j] for s in rng) for j in rng] for i in rng]
    adj, det = adjugate_det(h0)
    if not det:
        return None
    f = [_dense_mat_mul(m, adj) for m in dH]
    c = [[[det * dH[k][i][j] + sum(h0[i][s] * f[s][j][k] - h0[j][s] * f[s][i][k] for s in rng)
           for k in rng] for j in rng] for i in rng]
    for m in (H0, *dH):
        for i in rng:
            for j in rng:
                for k in rng:
                    if sum(m[i][s] * c[j][k][s] for s in rng) != sum(m[j][s] * c[i][k][s]
                                                                      for s in rng):
                        return None
    return c, 2 * det * D


def _symmetric(rows):
    return [[rows[min(i, j)][max(i, j)] for j in range(len(rows))] for i in range(len(rows))]


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _arrays(_INTS, n + 1, n, n), st.sampled_from([1, 2, 6]), st.booleans(),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
def test_torsion_decision_is_the_dense_formula(inputs):
    arrays, D, constant, u = inputs
    n = len(arrays[0])
    H0, *dH = (_symmetric(m) for m in arrays)
    if constant:
        dH = [[[0] * n for _ in range(n)] for _ in range(n)]
    g0 = [[(x, D) for x in row] for row in H0]
    c = [[[(dH[k][i][j], D) for k in range(n)] for j in range(n)] for i in range(n)]
    try:
        h = LinearMetric.from_g0_c(g0, c)
    except ValueError:  # identically degenerate
        assume(False)
    assert constant_connection(h, [Fraction(x) for x in u]) == _dense_constant_connection(h, u)


def test_torsion_decision_takes_both_outcomes_on_real_metrics():
    # the second metrics of the catalog have a constant connection (T4);
    # raw corpus pencils do not
    outcomes = set()
    metrics = [e.spec.metrics[1] for e in catalog() if e.n <= 4 and e.spec.nvars == e.n]
    for n in (2, 3):
        metrics += corpus_pairs(n, random.Random(n), raw=2, killing=1, family=1, constant=1)[1]
    for h in metrics:
        u = [random.Random(h.n).randint(-5, 5) for _ in range(h.n)]
        got = constant_connection(h, [Fraction(x) for x in u] + [Fraction(0)] * (h.nvars - h.n))
        assert got == _dense_constant_connection(h, u)
        outcomes.add(got is None)
    assert outcomes == {True, False}
