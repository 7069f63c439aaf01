"""Hamiltonianity verification for pairs of flat metrics and d-tuples.

Two independent criteria are implemented for d = 2:

* the five obstruction-tensor identities (T1..T5) on
  T^{ijk} = g^{ir} h^{ks} (Gamma~ - Gamma)^j_{rs}, together with flatness of
  both metrics;
* the equivalent triple: linearity of h in the flat coordinates of g,
  vanishing Nijenhuis torsion of L = h g^{-1}, and the Killing condition.

verify_operator runs both on 2D input and raises DisagreementBug if they ever
disagree (they cannot, unless the implementation is broken).  For d >= 3 the
pairwise conditions (linearity / Nijenhuis / Killing per ordered pair) are
checked with the first metric constant; one function, pair_conditions,
checks an ordered pair in both modes.  Against a non-constant reference
metric, symbolic linearity scans the covariant Hessian lazily and stops at
its first failing component.

Checks run symbolically for n <= 5 and at 20 seeded integer points for
larger n; a mode flag overrides the default.  Sampled conditions are
evaluated over F_p, p = 2^61 - 1 (see pointcheck).  A sampled pass means
every tested value is 0 mod p: besides the Schwartz-Zippel risk of sampling,
that errs only where a nonzero rational value is divisible by p.  A sampled
failure is certified, since a nonzero residue proves a nonzero rational
value, and its witness is recomputed over Q at the first failing point.  A
coefficient denominator that is not a unit mod p sends the whole report to
Q.  Witnesses always report the lexicographically first failing index tuple
(at the first failing point, in sampled mode).

Symbolic T1..T5 has two representations: polynomial numerators over powers
of det h (cheap on failing pairs, thanks to the first-failure exit) and
reduced rational functions (cheap on passing ones).  Both feed the one
statement of the identities, geometry.mokhov_identities.  Neither is cheaper
everywhere; measured on one host (Python 3.11, no gmpy2):

* the 36 passing catalog pairs with n <= 5: 11.4 s in total on numerators,
  3.3 s on reduced rational functions (s22-case2-b4p: 5.0 s against 0.45 s);
* failing n = 3 pencils of the benchmark's pencil corpus: 1.8-2.2 s each on
  numerators, 3.8-5.2 s on reduced rational functions.

So a two-point screen over F_p, p = 2^61 - 1, picks between them: numerators
when some identity already fails at a point.  Both reach the same verdict and
witnesses, so the screen only affects cost.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import pointcheck as pc
from .errors import (
    DegenerateEverywhere,
    DisagreementBug,
    FirstMetricNotConstant,
    NonlinearBivector,
    NonUnitDenominator,
)
from .geometry import (
    covariant_hessian,
    det2_quotient_derivative,
    flatness_witness,
    killing_residual,
    levi_civita,
    lie_derivative_bivector,
    mokhov_identities,
    nijenhuis_torsion,
    obstruction_tensor,
    raise_obstruction,
)
from .matrices import PolyMatrix
from .metrics import LinearMetric, OperatorSpec
from .poly import MultiPoly, RationalFunction
from .scalars import format_rational

DEFAULT_SEED = 0
SYMBOLIC_MAX_N = 5

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


def _wit(indices, residual, point=None) -> Witness:
    if point is not None:
        point = tuple(format_rational(x) for x in point)
    if hasattr(residual, "numerator"):
        residual = f"{residual.numerator}/{residual.denominator}"
    else:
        residual = str(residual)
    return Witness(tuple(indices), residual, point)


def _same(x):
    return x


def _scan(name: str, gen, value=_same) -> ConditionResult:
    """Symbolic condition from a generator of (indices, residual); a witness
    reports ``value(residual)``."""
    for indices, residual in gen:
        if residual:
            return ConditionResult(name, False, _wit(indices, value(residual)))
    return ConditionResult(name, True)


def _on_frames(run, cache):
    """``run(cache)`` for a sampled check.  Without a cache it runs on F_p
    frames, or on Q frames when a coefficient denominator is not a unit
    mod p."""
    if cache is not None:
        return run(cache)
    try:
        return run(pc.FrameCache(pc.FP))
    except NonUnitDenominator:
        return run(pc.FrameCache(pc.Q))


def _certified(name: str, pt, hit):
    """The Q hit at a point where F_p found one: a nonzero residue mod p
    proves a nonzero rational value, so a miss is a defect."""
    if hit is None:
        where = ", ".join(format_rational(x) for x in pt)
        raise DisagreementBug(f"{name} is nonzero mod p but zero over Q at ({where})")
    return hit


def _scan_points(name: str, fn, metrics, points, cache) -> ConditionResult:
    """Sampled condition: ``fn(*frames)`` on the frames of ``metrics`` at a
    point returns (indices, value) or None.  A hit over F_p is recomputed
    over Q at the same point for the witness."""
    for pt in points:
        frames = cache.frames(pt, *metrics)
        hit = fn(*frames)
        if hit is not None:
            if frames[0].F is not pc.Q:
                hit = _certified(name, pt, fn(*cache.frames(pt, *metrics, field=pc.Q)))
            return ConditionResult(name, False, _wit(*hit, pt))
    return ConditionResult(name, True)


def _flat_condition(
    name: str, g: LinearMetric, mode: str, points, cache
) -> ConditionResult:
    if mode == MODE_SYMBOLIC:
        w = flatness_witness(g)
        if w is None:
            return ConditionResult(name, True)
        return ConditionResult(name, False, _wit(*w))
    return _scan_points(name, pc.flat_at, (g,), points, cache)


# ---------------------------------------------------------------------------
# Theorem-1-style conditions (obstruction tensor)
# ---------------------------------------------------------------------------


def _t_conditions_symbolic_const_g(g: LinearMetric, h: LinearMetric) -> list[ConditionResult]:
    """Obstruction identities for constant g as polynomial-numerator scans.

    With Gamma(g) = 0 the obstruction tensor is P/det^2 (P the Christoffel
    numerators of h, det = det h), the raised tensor is Q/det^2 with
    Q^{ijk} = g^{ir} h^{ks} P^j_{rs}, and each condition clears to a
    polynomial identity over det^2 (T1, T2) or det^4 (T3..T5, where
    d_r (Q/det^2) = (dQ*det - 2*Q*ddet)*det / det^4); scans exit at the
    first nonzero numerator."""
    n = g.n
    conn = levi_civita(h)
    det = conn.det
    if det is None:
        # h constant as well: everything vanishes identically
        return [ConditionResult(t, True) for t in T_NAMES]
    P = conn.gamma_num
    zero = MultiPoly.zero(g.nvars)
    Q = raise_obstruction(g, h, P, zero)
    d_raised = det2_quotient_derivative(Q, det, n)
    det2 = det * det
    det4 = det2 * det2
    gamma_g = [[[zero] * n for _ in range(n)] for _ in range(n)]
    out = []
    for name, stream in mokhov_identities(Q, P, d_raised, gamma_g, P, n, _same):
        den = det2 if name in ("T1", "T2") else det4
        out.append(_scan(name, stream, lambda num: RationalFunction(num, den, base=det)))
    return out


def _t_conditions_rational(g: LinearMetric, h: LinearMetric) -> list[ConditionResult]:
    """Obstruction identities on the reduced rational obstruction tensor."""
    obt = obstruction_tensor(g, h)
    R = obt.t_raised

    @functools.cache
    def d_raised(r, i, j, k):
        return R[i][j][k].partial(r + 1)

    ids = mokhov_identities(
        R, obt.t, d_raised, levi_civita(g).gamma, levi_civita(h).gamma, g.n, _same
    )
    return [_scan(name, stream) for name, stream in ids]


def _t_screen_failing(g: LinearMetric, h: LinearMetric, field=pc.FP) -> bool:
    """Path screen: evaluate T1..T5 at two seeded points over ``field`` and
    return True when some condition already fails there.

    It only picks the faster symbolic representation, never a verdict.  Over
    F_p (the default) a True is exact: a nonzero residue certifies a nonzero
    rational value.  When no non-degenerate point exists or a coefficient
    denominator is not a unit mod p, the screen answers False, which selects
    the reduced-rational path and leaves the verdict unchanged.  The Q field
    gives the exact reference screen the tests compare against."""
    try:
        points = pc.sample_points(g.nvars, [g, h], seed=91, count=2, field=field)
        for pt in points:
            fg = pc.PointFrame(g, pt, field)
            fh = pc.PointFrame(h, pt, field)
            if any(hit for _, hit in pc.mokhov_at(fg, fh)):
                return True
    except (DegenerateEverywhere, NonUnitDenominator):
        return False
    return False


def _t_conditions_symbolic(g: LinearMetric, h: LinearMetric) -> list[ConditionResult]:
    if g.is_constant() and not h.is_constant() and _t_screen_failing(g, h):
        # a failing pair: dense numerator scans with first-failure exit are
        # much cheaper than reduced rational functions there
        return _t_conditions_symbolic_const_g(g, h)
    return _t_conditions_rational(g, h)


def _t_conditions_sampled(g, h, points, cache) -> list[ConditionResult]:
    """T1..T5 at each point until all have failed; hits over F_p are
    recomputed over Q at their point for the witnesses."""
    failed = {}
    for pt in points:
        frames = cache.frames(pt, g, h)
        hits = {
            name: hit
            for name, hit in pc.mokhov_at(*frames)
            if hit is not None and name not in failed
        }
        if hits and frames[0].F is not pc.Q:
            exact = dict(pc.mokhov_at(*cache.frames(pt, g, h, field=pc.Q)))
            hits = {name: _certified(name, pt, exact[name]) for name in hits}
        for name, hit in hits.items():
            failed[name] = ConditionResult(name, False, _wit(*hit, pt))
        if len(failed) == len(T_NAMES):
            break
    return [failed.get(name) or ConditionResult(name, True) for name in T_NAMES]


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

    def run(cache):
        flat = [
            _flat_condition("flat(g1)", g, mode, points, cache),
            _flat_condition("flat(g2)", h, mode, points, cache),
        ]
        if mode == MODE_SYMBOLIC:
            return flat + _t_conditions_symbolic(g, h)
        return flat + _t_conditions_sampled(g, h, points, cache)

    if mode == MODE_SYMBOLIC:
        report.conditions = run(None)
    else:
        if points is None:
            points = pc.sample_points(g.nvars, [g, h], seed)
        report.conditions = _on_frames(run, cache)
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


def _entries(tensor, rank: int):
    """(1-based indices, entry) of a nested tensor in lexicographic order.
    For the symmetric and antisymmetric residual tensors the first nonzero
    entry is the first hit of their geometry stream."""
    for idx in itertools.product(range(len(tensor)), repeat=rank):
        entry = tensor
        for i in idx:
            entry = entry[i]
        yield tuple(i + 1 for i in idx), entry


def pair_conditions(
    g: LinearMetric, h, mode: str, points, cache=None, tag=None
) -> list[ConditionResult]:
    """linearity / nijenhuis / killing of the ordered pair (reference g, h).

    ``tag`` = (b, c), the 1-based positions of h and g in a d >= 3 spec,
    names them linearity[b|c], nijenhuis[b|c] and killing[c|b].  The mode
    only picks the input: symbolic residuals, or ``_scan_points`` on point
    frames.  Linearity is the covariant Hessian of h for g's connection;
    for constant g that is the plain second partials, which are cheap, so it
    stays symbolic in sampled mode.  The symbolic Hessian is scanned lazily,
    so a failing pair stops at its first nonzero component."""
    n = g.n
    hm = _as_bivector(h)
    lin, nij, kil = "linearity", "nijenhuis", "killing"
    if tag:
        b, c = tag
        lin, nij, kil = f"{lin}[{b}|{c}]", f"{nij}[{b}|{c}]", f"{kil}[{c}|{b}]"
    flat = g.is_constant()

    def killing_args(x):
        # the Killing residual is antisymmetric in its two bivectors; reports
        # take it as K(g, h) for constant g and as K(h, g) otherwise
        return (g, x) if flat else (x, g)

    if mode == MODE_SYMBOLIC:
        L = hm @ (constant_inverse(g) if flat else g.inverse())
        return [
            _scan(lin, covariant_hessian(hm, n, None if flat else g)),
            _scan(nij, _entries(nijenhuis_torsion(L, n), 3)),
            _scan(kil, _entries(killing_residual(*killing_args(hm), n), 3)),
        ]
    hw = _wrap_metric(h, g)
    if flat:
        linearity = _scan(lin, covariant_hessian(hm, n))
    else:
        linearity = _scan_points(lin, pc.linearity_at, (g, hw), points, cache)
    return [
        linearity,
        _scan_points(nij, pc.nijenhuis_at, (hw, g), points, cache),
        _scan_points(kil, pc.killing_at, killing_args(hw), points, cache),
    ]


def _wrap_metric(h, like: LinearMetric) -> LinearMetric:
    if isinstance(h, LinearMetric):
        return h
    return LinearMetric(like.n, h, check_nondegenerate=False)


def theorem2_conditions(
    g: LinearMetric,
    h,
    mode: str | None = None,
    seed: int = DEFAULT_SEED,
    points=None,
    cache=None,
) -> VerificationReport:
    """Linearity + Nijenhuis + Killing for constant g.  Flatness of h follows
    from them (Theorem 2) and is checked by mokhov_conditions."""
    if not g.is_constant():
        raise FirstMetricNotConstant("first metric must be constant")
    mode = mode or default_mode(g.n)
    report = VerificationReport(g.n, 2, mode, seed)
    if mode == MODE_SYMBOLIC:
        report.conditions = pair_conditions(g, h, mode, None)
        return report
    hm = _as_bivector(h)
    if any(
        hm[i, j].degree_in_block(g.n) > 1
        for i in range(g.n)
        for j in range(g.n)
    ):
        raise NonlinearBivector(
            "nonlinear bivectors are checked symbolically; use mode='symbolic'"
        )
    if points is None:
        points = pc.sample_points(g.nvars, [g, _wrap_metric(h, g)], seed)
    report.conditions = _on_frames(
        lambda c: pair_conditions(g, h, mode, points, c), cache
    )
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
    (constant) first metric plus the pairwise conditions for every ordered
    pair of distinct metrics.
    """
    if not spec.metrics[0].is_constant():
        raise FirstMetricNotConstant(
            "operator spec must present the first metric in constant form"
        )
    mode = mode or default_mode(spec.n)
    if mode == MODE_SYMBOLIC:
        return _check_operator(spec, mode, seed, None, None)
    points = pc.sample_points(spec.nvars, spec.metrics, seed)
    return _on_frames(lambda c: _check_operator(spec, mode, seed, points, c), None)


def _check_operator(spec: OperatorSpec, mode: str, seed: int, points, cache):
    if spec.d == 1:
        report = VerificationReport(spec.n, 1, mode, seed)
        report.conditions.append(_flat_condition("flat(g1)", spec.g, mode, points, cache))
        return report
    if spec.d == 2:
        mok = mokhov_conditions(spec.g, spec.gt, mode, seed, points, cache)
        th2 = theorem2_conditions(spec.g, spec.gt, mode, seed, points, cache)
        if mok.verdict != th2.verdict:
            raise DisagreementBug(
                f"criteria disagree: obstruction={mok.verdict} "
                f"linearity/nijenhuis/killing={th2.verdict}"
            )
        report = VerificationReport(spec.n, 2, mode, seed)
        report.conditions.extend(mok.conditions)
        report.conditions.extend(th2.conditions)
        return report
    # d >= 3
    report = VerificationReport(spec.n, spec.d, mode, seed)
    report.conditions.append(_flat_condition("flat(g1)", spec.g, mode, points, cache))
    for b, gb in enumerate(spec.metrics, 1):
        for c, gc in enumerate(spec.metrics, 1):
            if b != c:
                report.conditions.extend(
                    pair_conditions(gc, gb, mode, points, cache, (b, c))
                )
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
