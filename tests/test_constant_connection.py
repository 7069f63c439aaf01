"""The proofs on integer coefficient arrays for a constant reference metric.

``geometry.constant_connection`` is checked against the symbolic reference
``levi_civita(h).b_upper``.  ``geometry.mokhov_identities`` states T3 and T5
contracted with h, on b; its rational feed (``verify._t_streams``, the
witness of a failure that no scan point shows; the numerators at the generic
point that decide T1..T5 are pinned to it in ``test_generic_point.py``) and
``verify``'s proofs on the constant connection are checked, condition by
condition, against Mokhov's identities as the paper states them, written
here from ``obstruction_tensor`` and the Christoffel symbols of h, and
against ``flatness_witness``.  ``verify._triple_proofs`` (linearity,
Nijenhuis and Killing on the arrays, a failure with its witness) is
checked against the symbolic streams ``covariant_hessian``,
``nijenhuis_stream`` (of h times the symbolic inverse of g) and
``killing_stream``, for constant reference metrics and for the linear g2
of the d >= 3 entries, whose contravariant connection is constant.
"""

import functools
import itertools
import random

from hamop import pointcheck as pc
from hamop import verify as vf
from hamop.catalog import catalog
from hamop.geometry import (
    T_NAMES,
    constant_connection,
    covariant_hessian,
    flatness_witness,
    killing_stream,
    levi_civita,
    nijenhuis_stream,
    obstruction_tensor,
)
from hamop.linsolve import nullspace
from hamop.matrices import PolyMatrix, determinant
from hamop.metrics import LinearMetric
from hamop.poly import MultiPoly, RationalFunction
from hamop.specfile import default_param_values, specialize_spec

from conftest import corpus_pairs, operator5_pair, random_linear_bivector, random_rational, u_vars


def _u0(g, h):
    return pc.sample_points(g.nvars, [g, h], 0, 1)[0]


def _catalog_pairs(max_n, dims=(2,)):
    """(name, g, h) of the pairs (g1, g_b), b >= 2, of every catalog entry
    with d in ``dims`` and n <= max_n, formal and with its parameters
    specialized."""
    out = []
    for e in catalog():
        if e.spec.d in dims and e.n <= max_n:
            values = default_param_values(e.spec)
            specs = [(e.id, e.spec)]
            if values:
                specs.append((f"{e.id}@{values}", specialize_spec(e.spec, values)))
            for name, spec in specs:
                out += [(f"{name}/g{b}", spec.g, h) for b, h in enumerate(spec.metrics[1:], 2)]
    return out


def _random_constant_metric(n, nvars, rng):
    while True:
        vals = [[random_rational(rng, bound=4) for _ in range(n)] for _ in range(n)]
        mat = PolyMatrix.from_scalars(nvars, [[vals[min(i, j)][max(i, j)] for j in range(n)]
                                              for i in range(n)])
        if not determinant(mat).is_zero():
            return LinearMetric(n, mat)


def _corpus_pencils():
    out = []
    for n, seed in ((2, 81), (3, 82)):
        g, hs = corpus_pairs(n, random.Random(seed), raw=2, killing=2, family=1, constant=1)
        out += [(f"corpus-n{n}-{k}", g, h) for k, h in enumerate(hs)]
    return out


def _conformal_pencil():
    """h = (u2 - 1) I: not flat, with constant contravariant connection."""
    _, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    e = u2 - 1
    h = LinearMetric(2, PolyMatrix([[e, z], [z, e]]))
    return "conformal-u2", LinearMetric.antidiagonal(2), h


def _b_depends_on_u(h):
    b = levi_civita(h).b_upper
    n = h.n
    return any(
        x.num.partial(s + 1) or x.den.partial(s + 1)
        for plane in b for row in plane for x in row for s in range(n)
    )


def test_constant_connection_is_the_levi_civita_connection():
    for name, g, h in _catalog_pairs(6):
        c, den = constant_connection(h, _u0(g, h))
        b = levi_civita(h).b_upper
        n, nvars = h.n, h.nvars

        def poly(x):
            return x if isinstance(x, MultiPoly) else MultiPoly.const(nvars, x)

        assert all(
            RationalFunction(poly(c[i][j][k]), poly(den)) == b[i][j][k]
            for i in range(n) for j in range(n) for k in range(n)
        ), name


def test_constant_connection_is_none_exactly_when_b_depends_on_u():
    kinds = set()
    for name, g, h in _corpus_pencils() + [_conformal_pencil()]:
        none = constant_connection(h, _u0(g, h)) is None
        assert none == _b_depends_on_u(h), name
        kinds.add(none)
    assert kinds == {True, False}


def _catalog_h_against_constant_g(max_n):
    rng = random.Random(91)
    out = []
    for name, _, h in _catalog_pairs(max_n):
        for k in range(2):
            out.append((f"{name}/g{k}", _random_constant_metric(h.n, h.nvars, rng), h))
    return out


def _uncontracted(g, h) -> dict:
    """name -> Mokhov's T1..T5 for constant g as the paper states them, as a
    lazy (1-based indices, residual) stream: on T = Gamma~ - Gamma (Gamma = 0)
    and R^{ijk} = g^{ir} h^{ks} T^j_{rs} of ``obstruction_tensor``, with
    nabla R = d R for g and nabla~ R from the Christoffel symbols of h."""
    obt = obstruction_tensor(g, h)
    R, T, G = obt.t_raised, obt.t, levi_civita(h).gamma
    rng = range(g.n)

    @functools.cache
    def dR(r, i, j, k):
        return R[i][j][k].partial(r + 1)

    def stream(rank, residual):
        for idx in itertools.product(rng, repeat=rank):
            yield tuple(x + 1 for x in idx), residual(*idx)

    return {
        "T1": stream(3, lambda i, j, k: R[i][j][k] - R[k][j][i]),
        "T2": stream(3, lambda i, j, k: R[i][j][k] + R[j][k][i] + R[k][i][j]),
        "T3": stream(4, lambda i, j, r, t: sum(
            R[i][j][s] * T[r][s][t] - R[i][r][s] * T[j][s][t] for s in rng)),
        "T4": stream(4, dR),
        "T5": stream(4, lambda r, i, j, k: dR(r, i, j, k) + sum(
            G[i][r][l] * R[l][j][k] + G[j][r][l] * R[i][l][k] + G[k][r][l] * R[i][j][l]
            for l in rng)),
    }


def _first(stream):
    return next(((idx, str(r)) for idx, r in stream if r), None)


def _stream_passes(g, h) -> set:
    """The conditions among flat(g2), T1..T5 that their streams prove;
    ``test_b_form_agrees_with_the_uncontracted_identities`` pins the
    T-streams to the identities as the paper states them."""
    passing = {name for name, stream in vf._t_streams(g, h).items()
               if not any(r for _, r in stream)}
    return passing | ({"flat(g2)"} if flatness_witness(h) is None else set())


def test_b_form_agrees_with_the_uncontracted_identities():
    # per condition the same pass / fail, and for T1, T2 and T4, which the
    # contraction leaves alone, the same first witness; T3 and T5 are
    # contracted with h, so only their outcome is compared
    pairs = (_catalog_pairs(4) + _catalog_h_against_constant_g(3)
             + _corpus_pencils() + [_conformal_pencil()])
    outcomes, kinds = set(), set()
    for name, g, h in pairs:
        b_form = vf._t_streams(g, h)
        reference = _uncontracted(g, h)
        for t in T_NAMES:
            got, want = _first(b_form[t]), _first(reference[t])
            assert (got is None) == (want is None), (name, t)
            if t in ("T1", "T2", "T4"):
                assert got == want, (name, t)
            outcomes.add((t, got is None))
        kinds.add(_b_depends_on_u(h))
    assert outcomes == {(t, passed) for t in T_NAMES for passed in (True, False)}
    assert kinds == {True, False}


def test_constant_connection_proofs_agree_with_the_streams():
    # the proofs claim only passes; where the connection is constant they
    # decide every condition, and each agrees with its stream
    pairs = (_catalog_pairs(5) + _catalog_h_against_constant_g(3)
             + _corpus_pencils() + [_conformal_pencil()])
    branches, failing = set(), 0
    for name, g, h in pairs:
        u0 = _u0(g, h)
        proven = vf._constant_connection_proofs(g, h, u0)
        passing = _stream_passes(g, h)
        constant = constant_connection(h, u0) is not None
        assert proven == (passing if constant else set()), name
        branches.add(constant)
        failing += constant and 1 + len(vf.T_NAMES) - len(passing)
    assert branches == {True, False} and failing


def _quadratic_bivector():
    """A bivector of degree 2 in u: linearity fails, so nothing is proven."""
    u1, u2 = u_vars(2)
    z = MultiPoly.zero(2)
    return "quadratic", LinearMetric.antidiagonal(2), PolyMatrix([[u1 * u1 - 2 * u1, u2], [u2, z]])


def _shifted_operator5():
    """operator5's h plus a constant: its Nijenhuis torsion is the nonzero
    constant N^2_{12} = 4, so only the u-free array L0 shows the failure."""
    g, h = operator5_pair()
    return "operator5+diag(0,1)", g, h.mat + PolyMatrix.from_scalars(2, [[0, 0], [0, 1]])


def _triple_streams(g, hm) -> dict:
    """name -> the condition decided by its symbolic stream alone."""
    n = g.n
    streams = {
        "linearity": covariant_hessian(hm, n, None if g.is_constant() else g),
        "nijenhuis": nijenhuis_stream(hm @ g.inverse(), n),
        "killing": killing_stream(g, hm, n),
    }
    return {name: vf._scan(name, stream) for name, stream in streams.items()}


def _triple_stream_passes(g, hm) -> set:
    return {name for name, c in _triple_streams(g, hm).items() if c.passed}


def test_triple_proofs_agree_with_the_streams():
    # the arrays decide exactly as the streams do, for every pencil linear
    # in u against a constant g, and a failure, without scan points, has
    # the stream's witness (its first nonzero component, as a polynomial);
    # for a pencil not linear in u they decide nothing, and its linearity
    # stream fails
    pairs = (_catalog_pairs(5, dims=(2, 3, 4, 5)) + _corpus_pencils()
             + _catalog_h_against_constant_g(3))
    pairs = [(name, g, h.mat) for name, g, h in pairs] + [_shifted_operator5(), _quadratic_bivector()]
    outcomes = set()
    for name, g, hm in pairs:
        decided = vf._triple_proofs(g, hm)
        streams = _triple_streams(g, hm)
        passing = {c for c, r in streams.items() if r.passed}
        linear = all(p.degree_in_block(g.n) <= 1 for row in hm.entries for p in row)
        assert len(decided) == (3 if linear else 0), name
        assert all(c == streams[c.name] for c in decided), name
        assert linear == ("linearity" in passing), name
        assert vf.constant_inverse(g) == g.inverse(), name
        outcomes |= {(c, c in passing) for c in ("linearity", "nijenhuis", "killing")}
    assert outcomes == {(c, passed) for c in ("linearity", "nijenhuis", "killing")
                        for passed in (True, False)}


def _linear_references():
    """(name, spec) of the d >= 3 entries whose second metric is linear
    with a constant contravariant connection, formal and specialized."""
    out = []
    for e in catalog():
        if e.id in ("thm5-3d-1", "thm5-3d-2", "exampleN-N3", "exampleN-N4"):
            values = default_param_values(e.spec)
            out.append((e.id, e.spec))
            if values:
                out.append((f"{e.id}@{values}", specialize_spec(e.spec, values)))
    return out


def _singular_constant(n, nvars, rng):
    """A seeded constant bivector of rank 1, so adj = 0 for n >= 3."""
    v = [random_rational(rng, bound=4) or 1 for _ in range(n)]
    return PolyMatrix.from_scalars(nvars, [[x * y for y in v] for x in v])


def _inputs_against(spec, rng):
    """Bivectors to pair with the reference g2: seeded constant ones (one
    singular), a seeded linear one, sums of the spec's own metrics, and the
    unit bivectors E_ij + E_ji with g1 + g3 + E_ij + E_ji, which pass some
    conditions and fail others."""
    n, nvars = spec.n, spec.nvars
    g1, g2, g3 = (m.mat for m in spec.metrics[:3])
    units = [PolyMatrix.from_scalars(nvars, [[int({a, b} == {i, j}) for b in range(n)]
                                             for a in range(n)])
             for i in range(n) for j in range(i, n)]
    return [
        _random_constant_metric(n, nvars, rng).mat,
        _singular_constant(n, nvars, rng),
        random_linear_bivector(rng, n, nvars=nvars),
        g3, g1 + g3, g2 + g3, g1 + g2.scale(2),
        *units, *(g1 + g3 + e for e in units),
    ]


def _vanishing_at_origin(g, stream):
    """Bivectors linear in u whose residual ``stream(g, hm)`` vanishes at
    u = 0 but not identically, from the nullspace of the residual at 0 on
    the unit bivectors u_s (E_ij + E_ji), u_0 = 1.  Only the arrays of u^0
    see them fail."""
    n, nvars = g.n, g.nvars
    origin = [0] * nvars
    z = MultiPoly.zero(nvars)
    units = [PolyMatrix([[MultiPoly.variable(nvars, s) if s and {a, b} == {i, j}
                          else MultiPoly.const(nvars, int(not s and {a, b} == {i, j}))
                          for b in range(n)] for a in range(n)])
             for s in range(n + 1) for i in range(n) for j in range(i, n)]
    at_origin = [[r.eval(origin) if r else 0 for _, r in stream(g, hm)] for hm in units]
    out = []
    for v in nullspace([list(row) for row in zip(*at_origin)], len(units)):
        hm = PolyMatrix([[z] * n for _ in range(n)])
        for x, e in zip(v, units):
            if x:
                hm = hm + e.scale(x)
        if any(r for _, r in stream(g, hm)):
            out.append(hm)
    return out


def test_linear_reference_proofs_agree_with_the_streams():
    # against a linear g with a constant contravariant connection, the
    # arrays decide linearity and Killing for every linear h, and Nijenhuis
    # for every constant h with det h != 0; a singular constant h is never
    # proven Nijenhuis, and a proof is only ever a pass of its stream
    rng = random.Random(93)
    conditions = {"linearity", "nijenhuis", "killing"}
    proven_once, failing_once, singular = set(), set(), 0
    for name, spec in _linear_references():
        g = spec.metrics[1]
        u0 = pc.sample_points(g.nvars, [g], 0, 1)[0]
        assert constant_connection(g, u0) is not None, name
        hms = _inputs_against(spec, rng)
        if spec.nvars == spec.n == 3:
            hms += _vanishing_at_origin(g, lambda g, hm: killing_stream(g, hm, g.n))
            hms += _vanishing_at_origin(g, lambda g, hm: covariant_hessian(hm, g.n, g))
        for hm in hms:
            results = vf._triple_proofs(g, hm, [u0])
            proven = {c.name for c in results if c.passed}
            passing = _triple_stream_passes(g, hm)
            constant = all(p.is_constant() for row in hm.entries for p in row)
            invertible = constant and not determinant(hm).is_zero()
            decided = conditions - ({"nijenhuis"} if not invertible else set())
            assert proven <= passing, (name, hm)
            assert proven & decided == passing & decided, (name, hm)
            # of the conditions the arrays refute against a linear g, Killing is the one
            assert {c.name for c in results if not c.passed} == {"killing"} - passing
            if constant and not invertible:
                assert "nijenhuis" not in proven, (name, hm)
                singular += "nijenhuis" not in passing
            proven_once |= proven
            failing_once |= conditions - passing
    assert proven_once == failing_once == conditions
    assert singular
