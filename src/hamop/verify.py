"""Hamiltonianity verification for pairs of flat metrics and d-tuples.

Two independent criteria are implemented for d = 2:

* the five obstruction-tensor identities (T1..T5) on
  T^{ijk} = g^{ir} h^{ks} (Gamma~ - Gamma)^j_{rs}, together with flatness of
  both metrics;
* the equivalent triple: linearity of h in the flat coordinates of g,
  vanishing Nijenhuis torsion of L = h g^{-1}, and the Killing condition.

verify_operator runs both on 2D input and raises DisagreementBug if they ever
disagree (they cannot, unless the implementation is broken).  For d >= 3,
with the first metric constant, it checks one linearity / Nijenhuis /
Killing triple per unordered pair {g_b, g_c}, c < b, against the earlier
metric g_c, so every pair with g1 has the constant reference.  The other
order is redundant: if every pair with g1 passes, each g_b is flat (the 2D
operator (g1, g_b) is Hamiltonian), and for two flat metrics the paper's
theorem makes the triple of either order equivalent to the pair being
Hamiltonian; if a pair with g1 fails, the verdict fails either way.  One
function, pair_conditions, checks an ordered pair.

Every condition runs through one pipeline, and one function, _scan_points,
runs it for the conditions that share a set of frames (the Mokhov
conditions; the triple of a pair).  Each condition is first evaluated at
seeded integer points over F_p, p = 2^61 - 1 (see pointcheck).  A hit there
is certified, since a nonzero residue proves a nonzero rational value, and
its witness is recomputed over Q at that point.  A condition without a hit
is then decided by its exact identity: flatness_witness, the T1..T5 streams
of geometry.mokhov_identities on the reduced rational obstruction tensor,
and the lazy linearity / Nijenhuis / Killing streams of geometry.  A
failure found there carries a witness with no point.

The linearity / Nijenhuis / Killing triple is always proven, after a scan
of the first SCAN_POINTS points of the seed's sample.  flat(g1) of the
constant first metric is exact in every mode: flatness_witness decides it,
or a point scan of a metric whose derivatives all vanish.  The mode decides
only how the d = 2 Mokhov cross-check (flat(g2), T1..T5) runs.  In
symbolic mode (the default for n <= 8, where it is also the faster mode) it
runs like the triple.  In sampled mode (larger n) it scans all SAMPLE_COUNT
points and a pass is not proven: it means every tested value is 0 mod p,
which, besides the Schwartz-Zippel risk of sampling, errs only where a
nonzero rational value is divisible by p.  So the Mokhov point scan is the
one step of a verdict that is not exact, and the verdict itself always is:
when the triple fails and the sampled Mokhov side passes every point, that
side is rerun symbolically before the criteria are compared.

A point where a frame cannot be built mod p (a metric singular mod p there,
or a coefficient denominator that is not a unit mod p) is scanned over Q
instead; ``pointcheck.FrameCache`` makes that one fallback.  Witnesses
always report the lexicographically first failing index tuple, at the first
failing point when one is given.  Some inputs get no point scan and are
decided by their identities alone: a bivector passed to
theorem2_conditions that is not linear in u or is degenerate everywhere,
and callers that pass no points to pair_conditions, such as the formal
families of ``families``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import pointcheck as pc
from .errors import DegenerateEverywhere, DisagreementBug, FirstMetricNotConstant
from .geometry import (
    covariant_hessian,
    flatness_witness,
    killing_stream,
    levi_civita,
    lie_derivative_bivector,
    mokhov_identities,
    nijenhuis_stream,
    obstruction_tensor,
)
from .linsolve import identity
from .matrices import PolyMatrix
from .metrics import LinearMetric, OperatorSpec
from .poly import MultiPoly
from .scalars import format_rational

DEFAULT_SEED = 0
SYMBOLIC_MAX_N = 8
# points scanned before the exact identities
SCAN_POINTS = 2

MODE_SYMBOLIC = "symbolic"
MODE_SAMPLED = "sampled"

T_NAMES = ("T1", "T2", "T3", "T4", "T5")


@dataclass(frozen=True)
class Witness:
    """First failing index tuple with its nonzero residual."""

    indices: tuple
    residual: str
    point: tuple | None = None

    def to_dict(self):
        d = {"indices": list(self.indices), "residual": self.residual}
        if self.point is not None:
            d["point"] = list(self.point)
        return d


@dataclass
class ConditionResult:
    name: str
    passed: bool
    witness: Witness | None = None

    def to_dict(self):
        d = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        return d


@dataclass
class VerificationReport:
    n: int
    d: int
    mode: str
    seed: int
    conditions: list = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.conditions if not c.passed]

    def to_dict(self):
        return {
            "n": self.n,
            "d": self.d,
            "mode": self.mode,
            "seed": self.seed,
            "verdict": "pass" if self.verdict else "fail",
            "conditions": [c.to_dict() for c in self.conditions],
        }


def default_mode(n: int) -> str:
    return MODE_SYMBOLIC if n <= SYMBOLIC_MAX_N else MODE_SAMPLED


def _sample(nvars: int, metrics, mode: str, seed: int):
    """The scan points of a mode: the first SCAN_POINTS of the seed's sample
    in symbolic mode, all of it in sampled mode."""
    count = SCAN_POINTS if mode == MODE_SYMBOLIC else pc.SAMPLE_COUNT
    return pc.sample_points(nvars, metrics, seed, count)


def _wit(indices, residual, point=None) -> Witness:
    if point is not None:
        point = tuple(format_rational(x) for x in point)
    if hasattr(residual, "numerator"):
        residual = f"{residual.numerator}/{residual.denominator}"
    else:
        residual = str(residual)
    return Witness(tuple(indices), residual, point)


def _scan(name: str, gen) -> ConditionResult:
    """Symbolic condition from a generator of (indices, residual)."""
    for indices, residual in gen:
        if residual:
            return ConditionResult(name, False, _wit(indices, residual))
    return ConditionResult(name, True)


def _certified(name: str, pt, hit):
    """The Q hit at a point where F_p found one: a nonzero residue mod p
    proves a nonzero rational value, so a miss is a defect."""
    if hit is None:
        where = ", ".join(format_rational(x) for x in pt)
        raise DisagreementBug(f"{name} is nonzero mod p but zero over Q at ({where})")
    return hit


def _hits(pairs, names) -> dict:
    """name -> hit for each of ``names`` whose hit in the (name, hit)
    ``pairs`` is not None; reading stops once every name has been seen."""
    pending = set(names)
    hits = {}
    for name, hit in pairs:
        if name in pending:
            pending.discard(name)
            if hit is not None:
                hits[name] = hit
            if not pending:
                break
    return hits


def _scan_points(proofs: dict, fn, metrics, points, cache, prove: bool) -> list[ConditionResult]:
    """The conditions named by ``proofs``, in its order, scanned at points
    together: ``fn(*frames)`` on the frames of ``metrics`` at a point yields
    (name, hit) for them, a hit being (indices, value) or None.  A hit over
    F_p is recomputed over Q at the same point for the witness, and points
    are scanned until every condition has failed.  With ``prove`` (the
    triple, and the Mokhov conditions in symbolic mode) a condition without
    a hit is then decided by ``proofs[name]()``, its exact identity as a
    lazy (indices, residual) stream; otherwise it passes on the points.  A
    condition's first failing point and index tuple do not depend on which
    conditions share the scan."""
    decided = {}
    for pt in points:
        frames = cache.frames(pt, *metrics)
        hits = _hits(fn(*frames), proofs.keys() - decided.keys())
        if hits and frames[0].F is not pc.Q:
            exact = _hits(fn(*cache.frames(pt, *metrics, field=pc.Q)), hits)
            hits = {name: _certified(name, pt, exact.get(name)) for name in hits}
        for name, hit in hits.items():
            decided[name] = ConditionResult(name, False, _wit(*hit, pt))
        if len(decided) == len(proofs):
            break
    return [
        decided[name] if name in decided
        else _scan(name, proof()) if prove
        else ConditionResult(name, True)
        for name, proof in proofs.items()
    ]


def _flatness_proof(g: LinearMetric):
    w = flatness_witness(g)
    return [w] if w else []


# ---------------------------------------------------------------------------
# Theorem-1-style conditions (obstruction tensor)
# ---------------------------------------------------------------------------


def _t_streams(g: LinearMetric, h: LinearMetric) -> dict:
    """name -> the lazy stream of that identity on the reduced rational
    obstruction tensor."""
    obt = obstruction_tensor(g, h)
    R = obt.t_raised

    @functools.cache
    def d_raised(r, i, j, k):
        return R[i][j][k].partial(r + 1)

    gamma_g, gamma_h = levi_civita(g).gamma, levi_civita(h).gamma
    return dict(mokhov_identities(R, obt.t, d_raised, gamma_g, gamma_h, g.n, identity))


def _mokhov_at(fg, fh):
    """(name, hit) of flat(g1), flat(g2) and T1..T5 at a point."""
    yield "flat(g1)", pc.flat_at(fg)
    yield "flat(g2)", pc.flat_at(fh)
    yield from pc.mokhov_at(fg, fh)


def mokhov_conditions(
    g: LinearMetric,
    h: LinearMetric,
    mode: str | None = None,
    seed: int = DEFAULT_SEED,
    points=None,
    cache=None,
) -> VerificationReport:
    """Flatness of both metrics plus the five obstruction-tensor identities."""
    mode = mode or default_mode(g.n)
    report = VerificationReport(g.n, 2, mode, seed)
    if points is None:
        points = _sample(g.nvars, [g, h], mode, seed)

    t_streams = functools.cache(lambda: _t_streams(g, h))
    proofs = {
        "flat(g1)": lambda: _flatness_proof(g),
        "flat(g2)": lambda: _flatness_proof(h),
        **{name: (lambda name=name: t_streams()[name]) for name in T_NAMES},
    }
    report.conditions = _scan_points(
        proofs, _mokhov_at, (g, h), points, cache or pc.FrameCache(pc.FP),
        mode == MODE_SYMBOLIC,
    )
    return report


# ---------------------------------------------------------------------------
# Theorem-2-style conditions (linearity / Nijenhuis / Killing)
# ---------------------------------------------------------------------------


def _as_bivector(h) -> PolyMatrix:
    return h.mat if isinstance(h, LinearMetric) else h


def constant_inverse(g: LinearMetric) -> PolyMatrix:
    """Inverse of a constant metric with polynomial (constant) entries."""
    if not g.is_constant():
        raise FirstMetricNotConstant("metric must be constant")
    return g.inverse().map(lambda r: r.as_poly())


def pair_conditions(g: LinearMetric, h, points, cache=None, tag=None) -> list[ConditionResult]:
    """linearity / nijenhuis / killing of the ordered pair (reference g, h).

    ``tag`` = (b, c), the 1-based positions of h and g in a d >= 3 spec,
    names them linearity[b|c], nijenhuis[b|c] and killing[c|b]; the Killing
    residual is always K(g, h), reference first.  Each condition is scanned
    at ``points`` (none: no scan) and, without a hit there, proven by its
    lazy stream, which stops at the first nonzero component.  Linearity is
    the covariant Hessian of h for g's connection; for constant g that is
    the plain second partials, which are cheap, so it is not scanned."""
    n = g.n
    hm = _as_bivector(h)
    lin, nij, kil = "linearity", "nijenhuis", "killing"
    if tag:
        b, c = tag
        lin, nij, kil = f"{lin}[{b}|{c}]", f"{nij}[{b}|{c}]", f"{kil}[{c}|{b}]"
    flat = g.is_constant()
    linearity = [_scan(lin, covariant_hessian(hm, n))] if flat else []
    proofs = {} if flat else {lin: lambda: covariant_hessian(hm, n, g)}
    proofs[nij] = lambda: nijenhuis_stream(
        hm @ (constant_inverse(g) if flat else g.inverse()), n
    )
    proofs[kil] = lambda: killing_stream(g, hm, n)

    def at(fg, fh):
        yield nij, pc.nijenhuis_at(fh, fg)
        yield kil, pc.killing_at(fg, fh)
        if not flat:
            yield lin, pc.linearity_at(fg, fh)

    hw = _wrap_metric(h, g) if points else None
    return linearity + _scan_points(
        proofs, at, (g, hw), points or (), cache or pc.FrameCache(pc.FP), True
    )


def _wrap_metric(h, like: LinearMetric) -> LinearMetric:
    if isinstance(h, LinearMetric):
        return h
    return LinearMetric(like.n, h, check_nondegenerate=False)


def theorem2_conditions(
    g: LinearMetric, h, seed: int = DEFAULT_SEED, points=None, cache=None
) -> VerificationReport:
    """Linearity + Nijenhuis + Killing for constant g, scanned at ``points``
    (by default the first SCAN_POINTS of the seed's sample) and proven.
    Flatness of h follows from them (Theorem 2) and is checked by
    mokhov_conditions.  A bivector that is not linear in u, or that is
    degenerate at every sample point, gets no point scan."""
    if not g.is_constant():
        raise FirstMetricNotConstant("first metric must be constant")
    report = VerificationReport(g.n, 2, MODE_SYMBOLIC, seed)
    hm = _as_bivector(h)
    if any(
        hm[i, j].degree_in_block(g.n) > 1
        for i in range(g.n)
        for j in range(g.n)
    ):
        points = ()
    elif points is None:
        try:
            points = _sample(g.nvars, [g, _wrap_metric(h, g)], MODE_SYMBOLIC, seed)
        except DegenerateEverywhere:
            points = ()
    report.conditions = pair_conditions(g, h, points, cache)
    return report


# ---------------------------------------------------------------------------
# operators (d = 2 cross-check; d >= 3 pairwise)
# ---------------------------------------------------------------------------


def verify_operator(
    spec: OperatorSpec, mode: str | None = None, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Full Hamiltonianity verification of an operator spec.

    2D: obstruction-tensor and linearity/Nijenhuis/Killing criteria both run
    and must agree (DisagreementBug otherwise).  d >= 3: flatness of the
    (constant) first metric plus the pairwise conditions of each unordered
    pair, against its earlier metric.  The triple is proven in every mode;
    ``mode`` (default: default_mode(n)) says how the 2D Mokhov cross-check
    runs.
    """
    if not spec.metrics[0].is_constant():
        raise FirstMetricNotConstant(
            "operator spec must present the first metric in constant form"
        )
    mode = mode or default_mode(spec.n)
    points = _sample(spec.nvars, spec.metrics, mode, seed)
    return _check_operator(spec, mode, seed, points, pc.FrameCache(pc.FP))


def _check_operator(spec: OperatorSpec, mode: str, seed: int, points, cache):
    report = VerificationReport(spec.n, spec.d, mode, seed)
    scan = points[:SCAN_POINTS]
    if spec.d == 2:
        mok = mokhov_conditions(spec.g, spec.gt, mode, seed, points, cache)
        th2 = theorem2_conditions(spec.g, spec.gt, seed, scan, cache)
        if mok.verdict and not th2.verdict and mode == MODE_SAMPLED:
            # the Mokhov side passed every point: prove it
            mok = mokhov_conditions(spec.g, spec.gt, MODE_SYMBOLIC, seed, scan, cache)
        if mok.verdict != th2.verdict:
            raise DisagreementBug(
                f"criteria disagree: obstruction={mok.verdict} "
                f"linearity/nijenhuis/killing={th2.verdict}"
            )
        report.conditions = mok.conditions + th2.conditions
        return report
    # d = 1, or d >= 3 with one triple per unordered pair, against the
    # earlier metric; the first metric is constant, so flat(g1) is proven
    report.conditions.append(_scan("flat(g1)", _flatness_proof(spec.g)))
    for b, gb in enumerate(spec.metrics, 1):
        for c, gc in enumerate(spec.metrics[: b - 1], 1):
            report.conditions.extend(pair_conditions(gc, gb, scan, cache, (b, c)))
    return report


# ---------------------------------------------------------------------------
# exactness of the flat pencil
# ---------------------------------------------------------------------------


def exactness_check(g: LinearMetric, h: LinearMetric) -> bool:
    """With g1 the homogeneous linear part of h and X^i = -g1^{is} g_{sl} u^l,
    verify Lie_X g = g1 and Lie_X g1 = 0 exactly."""
    if not g.is_constant():
        raise FirstMetricNotConstant("first metric must be constant")
    n = g.n
    nvars = g.nvars
    g1 = h.u_linear_part()
    gcov = constant_inverse(g)
    u = [MultiPoly.variable(nvars, k + 1) for k in range(n)]
    X = []
    for i in range(n):
        acc = MultiPoly.zero(nvars)
        for s in range(n):
            if not g1[i, s]:
                continue
            for l in range(n):
                if gcov[s, l] and u[l]:
                    acc = acc - g1[i, s] * gcov[s, l] * u[l]
        X.append(acc)
    lie_g = lie_derivative_bivector(g.mat, X, n)
    if not (lie_g - g1).is_zero():
        return False
    lie_g1 = lie_derivative_bivector(g1, X, n)
    return lie_g1.is_zero()
