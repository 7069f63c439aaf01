"""The generic point, the last point of every scan.

A ``PointFrame`` at the generic point (point None) runs the point kernels'
formulas on the integer-coefficient polynomials D h = M0 + u_s M_s.  Each of
T1..T5 is homogeneous in the contravariant connection b of h, so it holds
iff its numerators on c = 2 det(D h) b are zero polynomials; likewise
flatness, and linearity and Nijenhuis against a non-constant reference.
That is how ``verify`` decides a condition that has no hit at an integer
point.  Here the numerator streams (``pointcheck.mokhov_streams``) are
pinned component by component to the rational streams on
``levi_civita(h).b_upper`` (``verify._t_streams``), the curvature witness of
``flatness_witness`` to the Riemann numerators read off ``levi_civita``'s
reduced Gamma, and the generic triple against a non-constant reference to
the rational streams on ``levi_civita(g)`` and ``LinearMetric.inverse``,
witnesses included.  Tripwires check that failing Killing-space pencils,
whose T2 has no scan hit, are verified without a single
``RationalFunction``, and that the generic triple builds no rational
connection or inverse.  A T failure first seen at the generic point prints
the rational stream's witness, which is pinned on a case where the
numerator's quotient prints differently.
"""

import random
import sys
from fractions import Fraction

from hamop import geometry
from hamop import pointcheck as pc
from hamop.geometry import (
    T_NAMES,
    covariant_hessian,
    flatness_witness,
    killing_stream,
    levi_civita,
    nijenhuis_stream,
)
from hamop.matrices import matrix_inverse
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import RationalFunction
from hamop.verify import _scan, _t_streams, mokhov_conditions, pair_conditions, verify_operator

from conftest import corpus_pairs, one_coefficient_mutants, specialized_catalog
from test_pointcheck import _near_miss_mutants, _riemann_numerators


def _pairs():
    """(name, g, h): corpus pencils at n = 2 (raw, Killing, family) and
    n = 3 (Killing, family), the n = 2 ones again with g scaled by 2/3 and h
    by 7/5, so that neither D is 1, and the near-miss mutants with n <= 3,
    formal parameters kept.  (The rational streams of one dense n = 3
    pencil take 1.5-2 s.)"""
    out = []
    for n, raw, killing in ((2, 2, 2), (3, 0, 1)):
        g, hs = corpus_pairs(n, random.Random(70 + n), raw=raw, killing=killing, family=2,
                             constant=0)
        out += [(f"corpus-n{n}-{i}", g, h) for i, h in enumerate(hs)]
    g2 = LinearMetric(2, out[0][1].mat.scale(Fraction(2, 3)))
    out += [(f"{name}-scaled", g2, LinearMetric(2, h.mat.scale(Fraction(7, 5))))
            for name, g, h in out if g.n == 2]
    out += [(name, spec.g, spec.gt) for name, spec in _near_miss_mutants() if spec.n <= 3]
    return out


def test_generic_numerators_are_the_rational_streams():
    # every T-stream at the generic frames has the rational stream's zero
    # pattern, and each nonzero numerator x over mokhov_at's denominator is
    # the rational residual r: with B = 2 det D, T1 and T2 are over B Dg,
    # T3 and T5 over B^2 Dg, T4 over 2 B det Dg.  The quotients are compared
    # by cross-multiplication, as rf_equal compares unreduced ones
    outcomes, params = set(), False
    for name, g, h in _pairs():
        fg, fh = pc.PointFrame(g, None), pc.PointFrame(h, None)
        B, Dg, det = 2 * fh.det * fh.D, fg.D, fh.det
        dens = dict(zip(T_NAMES, (B * Dg, B * Dg, B * B * Dg, 2 * B * det * Dg, B * B * Dg)))
        numerators, rational = pc.mokhov_streams(fg, fh), _t_streams(g, h)
        for t in T_NAMES:
            failing = False
            for (idx, x), (ridx, r) in zip(numerators[t], rational[t], strict=True):
                assert idx == ridx and bool(x) == bool(r), (name, t, idx)
                if x:
                    failing = True
                    assert x * r.den == dens[t] * r.num, (name, t, idx)
            outcomes.add((t, failing))
        params |= h.nvars > h.n
    assert outcomes == {(t, f) for t in T_NAMES for f in (True, False)}
    assert params


def test_flatness_witness_is_the_riemann_numerator_over_det4():
    # flatness_witness reads the curvature numerators 4 det(D h)^4 R of the
    # generic frame; its witness is the first nonzero Riemann numerator
    # N = det^4 R of levi_civita's Gamma (det = det h), printed as
    # N / det^4 with det as its base, byte for byte
    flat, failing = 0, 0
    for name, _, h in _pairs():
        w = flatness_witness(h)
        want = None if h.is_constant() else next(
            ((idx, N) for idx, N in _riemann_numerators(h) if N), None)
        if want is None:
            assert w is None, name
            flat += 1
            continue
        det = levi_civita(h).det
        assert w[0] == want[0], name
        assert str(w[1]) == str(RationalFunction(want[1], det**4, base=det)), name
        failing += 1
    assert flat and failing


def test_failing_killing_pencils_build_no_rational_function(monkeypatch):
    # n = 2 Killing-space pencils fail the triple, so the Mokhov side is
    # scanned, and T2 has no scan hit; its proof runs on the numerators at
    # the generic point, and flatness_witness builds a RationalFunction only
    # for a witness: no RationalFunction and no levi_civita
    specs = []
    for seed in (1, 2, 3):
        g, hs = corpus_pairs(2, random.Random(seed), raw=0, killing=3, family=0, constant=0)
        specs += [OperatorSpec([g, h]) for h in hs]

    def refuse(*args, **kwargs):
        raise AssertionError("rational geometry on a Killing-space pencil")

    monkeypatch.setattr(RationalFunction, "__init__", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("hamop") and getattr(module, "levi_civita", None) is levi_civita:
            monkeypatch.setattr(module, "levi_civita", refuse)
    assert geometry.levi_civita is refuse
    proven = 0
    for spec in specs:
        rep = verify_operator(spec)
        assert not rep.verdict and not rep.condition("nijenhuis").passed
        proven += rep.condition("T2").passed
    assert proven == len(specs)


def _rational_triple(g, h):
    """The triple of the pair (g, h) on the rational streams: the
    Levi-Civita connection of g and its inverse as RationalFunctions."""
    n, hm = g.n, h.mat
    return [_scan("linearity", covariant_hessian(hm, n, g)),
            _scan("nijenhuis", nijenhuis_stream(hm @ g.inverse(), n)),
            _scan("killing", killing_stream(g, hm, n))]


def _non_constant_references():
    """(name, g, h) with g linear and not constant: corpus pencils at n = 2
    and 3 against the antidiagonal metric and their neighbour, and the
    pair (g2, g3) of the one-coefficient mutants of g2 and of g3 of the
    d >= 3 catalog entries with n = 3.  (At n = 3 the rational connection of
    a raw or Killing pencil takes 0.4 s, so that corpus is small.)"""
    out = []
    for n, counts in ((2, {}), (3, dict(raw=1, killing=1, family=2, constant=1))):
        g, hs = corpus_pairs(n, random.Random(n), **counts)
        out += [(f"corpus-n{n}-{i}", h, x) for i, h in enumerate(hs) if not h.is_constant()
                for x in (g, *hs[i + 1:i + 2])]
    for eid, spec in specialized_catalog(d=3, max_n=3):
        for b in (1, 2):
            out += [(f"{eid}+{label}#{b + 1}", m.metrics[1], m.metrics[2])
                    for label, m in one_coefficient_mutants(spec, b)
                    if not m.metrics[1].is_constant()]
    return out


def test_generic_triple_is_the_rational_triple(monkeypatch):
    # against a non-constant reference with no integer point, linearity and
    # Nijenhuis are decided at the generic point, on the numerators of
    # pointcheck's kernels over powers of det(D g), and Killing on the
    # arrays: each result is the rational stream's, witness included.  While
    # pair_conditions runs, the rational connection and inverse are refused
    cases = [(name, g, h, _rational_triple(g, h)) for name, g, h in _non_constant_references()]

    def refuse(*args):
        raise AssertionError("rational geometry in the generic triple")

    monkeypatch.setattr(LinearMetric, "inverse", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("hamop"):
            for fn in (levi_civita, matrix_inverse, covariant_hessian, nijenhuis_stream):
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, refuse)
    outcomes = set()
    for name, g, h, want in cases:
        assert pair_conditions(g, h, []) == want, name
        outcomes |= {(c.name, c.passed) for c in want}
    assert len(cases) >= 150
    assert outcomes == {(c, p) for c in ("linearity", "nijenhuis", "killing") for p in (True, False)}


def test_a_t_failure_at_the_generic_point_prints_the_rational_witness():
    # mokhov-n3 with h^13 raised by 1: det(D h) is reducible, and T1's
    # first numerator over 2 det(D h) D Dg, reduced by powers of det(D h)
    # alone, keeps a factor that the reduced rational stream cancels.  The
    # report prints the rational stream's witness
    spec = dict(specialized_catalog(d=2, max_n=3))["mokhov-n3"]
    (mutant,) = [m for label, m in one_coefficient_mutants(spec, 1) if label == "1/1@13"]
    g, h = mutant.g, mutant.gt
    w = mokhov_conditions(g, h, points=[]).condition("T1").witness
    assert (w.indices, w.residual, w.point) == ((1, 1, 2), "(1/2*u2) / (2/1*u3^2 + 1/1*u3)", None)
    thunks = dict(pc.mokhov_at(pc.PointFrame(g, None), pc.PointFrame(h, None)))
    idx, quotient = thunks["T1"]()
    assert idx == w.indices
    assert str(quotient) == "(1/1*u2*u3 + 1/2*u2) / (4/1*u3^3 + 4/1*u3^2 + 1/1*u3)"
