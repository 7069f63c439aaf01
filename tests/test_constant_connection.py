"""The contravariant connection b of h and the Mokhov identities stated on it.

``geometry.constant_connection`` is checked against the symbolic reference
``levi_civita(h).b_upper``.  ``geometry.mokhov_identities`` states T3 and T5
contracted with h, on b; its symbolic feed (``verify._t_streams``) and
``verify``'s proofs on the constant connection are checked, condition by
condition, against Mokhov's identities as the paper states them, written
here from ``obstruction_tensor`` and the Christoffel symbols of h, and
against ``flatness_witness``.
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
    flatness_witness,
    levi_civita,
    obstruction_tensor,
)
from hamop.matrices import PolyMatrix, determinant
from hamop.metrics import LinearMetric
from hamop.poly import MultiPoly, RationalFunction
from hamop.specfile import default_param_values, specialize_spec

from conftest import corpus_pairs, random_rational, u_vars


def _u0(g, h):
    return pc.sample_points(g.nvars, [g, h], 0, 1)[0]


def _catalog_pairs(max_n):
    """(name, g, h) of every d = 2 catalog entry with n <= max_n, formal
    and with its parameters specialized."""
    out = []
    for e in catalog():
        if e.spec.d == 2 and e.n <= max_n:
            out.append((e.id, e.spec.g, e.spec.gt))
            values = default_param_values(e.spec)
            if values:
                spec = specialize_spec(e.spec, values)
                out.append((f"{e.id}@{values}", spec.g, spec.gt))
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
