"""Hamiltonianity verification for pairs of flat metrics and d-tuples.

Two independent criteria are implemented for d = 2:

* Mokhov's five obstruction-tensor identities (T1..T5) together with
  flatness of both metrics.  The first metric is constant, so the
  identities depend only on the contravariant connection
  b^{ij}_k = -h^{is} Gamma~^j_{sk} of h, and geometry.mokhov_identities
  states them once on b; they are homogeneous in b, so each holds iff it
  holds on a numerator of b.  Two feeds decide them, each from the one
  formula geometry.connection_numerators: the constant connection, and the
  numerator c = 2 det D b of pointcheck.PointFrame, ints at an integer
  point and polynomials at the generic point.  The rational b_upper of
  levi_civita(h) only prints the witness of a T failure first seen at the
  generic point;
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
conditions; the triple of a pair).  Each condition is first decided on
integer coefficient arrays, before any point scan: each metric's one
integer form, D m = M0 + u_s M_s (LinearMetric.arrays, memoised; the spec
loader builds it straight from the file), with int entries
(integer-coefficient polynomials in the formal parameters where they
occur).  Each residual of the triple of a pair (linear g, h) is affine in
u, so it vanishes iff its n + 1 coefficient arrays do (_triple_proofs).
Where they are the reported residual's arrays, for Killing of every linear
pair and every condition against a constant g, the arrays refute as well
as prove: one pass over them gives the witness a point scan would, so the
triple of a constant reference builds no frame.  The Mokhov conditions, and
the d >= 3 pairs of g2 with a constant metric, are proven on the constant
contravariant connection of h (a Hamiltonian pair (g1, g2) has one on g2,
by T4), over the same arrays; only passes are decided there.

Every other condition is evaluated exactly at seeded integer points, in
int arithmetic (see pointcheck).  A point frame reads a metric's value
there off its arrays, the int matrix G = D g(pt) = M0 + u_s M_s, and every
jet a condition reads is an int numerator over a known power of det G and
D: b = c / (2 det D), d_r b = db / (2 det^2 D), Gamma = gamma / (2 det^2)
and d_r Gamma = dgamma / (2 det^3).  At each point only the conditions not
yet decided are evaluated, each once and only up to its first failing
component, on numerators of one weight; a hit is a nonzero numerator, and
its quotient by the condition's denominator, the one Fraction the scan
builds, is the rational value there and the witness.  The last point of
every scan is the generic point (point None): the same kernels run on the
polynomial jets of a PointFrame with point None, a numerator there is a
polynomial, and a nonzero one over the condition's denominator, a
RationalFunction reduced by powers of the frame's det, is the witness,
with no point.  A condition with no hit at any point, the generic one
included, holds.  One exception stays explicit: a T failure first seen at
the generic point prints the witness of the rational stream (_t_streams),
since a quotient reduced by powers of det(D h) alone prints differently
when det(D h) is reducible.  Only a bivector that is not linear in u, which
has no arrays and no frames, is decided by the lazy symbolic streams of
geometry.

Every condition is exact.  On d = 2 input the triple runs first.  flat(g1)
holds for the constant first metric, as for d >= 3; the rest of the Mokhov
cross-check (flat(g2), T1..T5) is first tried on the constant contravariant
connection of h at the first scan point, and what that leaves is scanned
at the same points.  A Hamiltonian pencil satisfies the triple, which the
arrays prove, and T4, which for constant g says that the contravariant
connection b of h is constant (Dubrovin-Novikov), so there every condition
is proven on constants, and the scan finds nothing pending: no point frame,
no rational stream.  On a broken implementation a Mokhov hit after a
passing triple raises DisagreementBug, at whichever point it is seen.

``pointcheck.FrameCache`` shares the frames of a point between the
conditions of a scan, and between the pairs of a d >= 3 operator; the
d = 2 triple is decided on arrays and builds no frame, so the two criteria
have none to share.  Witnesses always report the
lexicographically first failing index tuple, at the first failing point
when one is given.  Some inputs get no integer point and are scanned at
the generic point alone: a bivector passed to theorem2_conditions that is
degenerate everywhere, and callers that pass no points to pair_conditions,
such as the formal families of ``families``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import pointcheck as pc
from .errors import (
    DegenerateEverywhere,
    DisagreementBug,
    FirstMetricNotConstant,
)
from .geometry import (
    T_NAMES,
    constant_connection,
    contravariant_derivative,
    covariant_hessian,
    killing_components,
    killing_stream,
    levi_civita,
    lie_derivative_bivector,
    mokhov_identities,
    nijenhuis_components,
    nijenhuis_stream,
    raised_obstruction,
    riemann_components,
)
from .linsolve import mat_mul
from .matrices import PolyMatrix
from .metrics import LinearMetric, OperatorSpec, coefficient_arrays, int_point, int_value
from .poly import MultiPoly
from .scalars import format_rational

DEFAULT_SEED = 0
# integer points scanned before the generic point
SCAN_POINTS = 2


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
            "seed": self.seed,
            "verdict": "pass" if self.verdict else "fail",
            "conditions": [c.to_dict() for c in self.conditions],
        }


def _sample(nvars: int, metrics, seed: int):
    """The scan points: the first SCAN_POINTS of the seed's sample."""
    return pc.sample_points(nvars, metrics, seed, SCAN_POINTS)


def _wit(indices, residual, point=None) -> Witness:
    if point is not None:
        point = tuple(format_rational(x) for x in point)
    residual = format_rational(residual) if hasattr(residual, "numerator") else str(residual)
    return Witness(tuple(indices), residual, point)


_residual = operator.itemgetter(1)


def _scan(name: str, gen) -> ConditionResult:
    """Symbolic condition from a generator of (indices, residual)."""
    hit = next(filter(_residual, gen), None)
    return ConditionResult(name, False, _wit(*hit)) if hit else ConditionResult(name, True)


def _scan_points(names, fn, metrics, points, cache, decided=()) -> list[ConditionResult]:
    """The conditions ``names``, in their order, scanned together at
    ``points`` and then at the generic point (point None): the ``decided``
    ConditionResults are reported as they are, and ``fn(*frames)`` on the
    frames of ``metrics`` at a point yields (name, thunk) for the conditions
    it scans, the thunk's call giving the hit there, (indices, value) of its
    first failing component, or None.  At each point only the conditions not
    yet decided are evaluated, each once, on frames
    (``pointcheck.PointFrame``) built as they are read, so a scan with every
    condition decided builds none: in int arithmetic at an integer point, on
    polynomial numerators at the generic point, where a hit is the
    condition's rational value.  A condition with no hit anywhere holds.  A
    condition's first failing point and index do not depend on which
    conditions share a scan."""
    done = {c.name: c for c in decided}
    for pt in (*points, None):
        pending = set(names) - done.keys()
        if not pending:
            break
        for name, thunk in fn(*cache.frames(pt, *metrics)):
            if name in pending and (hit := thunk()):
                done[name] = ConditionResult(name, False, _wit(*hit, pt))
    return [done.get(name) or ConditionResult(name, True) for name in names]


# ---------------------------------------------------------------------------
# Theorem-1-style conditions (obstruction tensor)
# ---------------------------------------------------------------------------


def _t_streams(g: LinearMetric, h: LinearMetric) -> dict:
    """name -> the lazy stream of that identity on the reduced rational
    contravariant connection of h: the witness of a T failure first seen
    at the generic point."""
    b = levi_civita(h).b_upper
    R = raised_obstruction(g.mat.entries, b, g.n)

    @functools.cache
    def d_raised(r, i, j, k):
        return R[i][j][k] and R[i][j][k].partial(r + 1)

    return dict(mokhov_identities(R, d_raised, b, h.mat.entries, g.n))


def _constant_connection_proofs(g: LinearMetric, h: LinearMetric, u0) -> set:
    """The Mokhov conditions that hold for constant g on the constant
    contravariant connection of h: when b^{ij}_k = -h^{is} Gamma~^j_{sk} is
    constant (``constant_connection`` at the integer point u0, giving
    c = den * b), each of flat(g2) and T1..T5 that holds on c with d b = 0
    (so d R = 0, and no derivative term is evaluated), and on R = -G c for
    the constant coefficient array G = D g (``LinearMetric.arrays``), all in
    the arithmetic of c: ints, or polynomials in the formal parameters.
    Each stream lists only its nonzero components (T3, T5 and flat(g2) sum
    products of the nonzero entries of c and R); T4, d R = 0, holds by
    construction and lists none, and h itself is not read: with d R = 0 no
    identity contracts with it.  flat(g2) is Dubrovin's contravariant
    curvature b^{ik}_s b^{sl}_j - b^{il}_s b^{sk}_j of the invertible h.
    Each identity is homogeneous in b and in R, so it holds on b and g iff
    on c and G."""
    conn = constant_connection(h, u0)
    if conn is None:
        return set()
    c, _ = conn
    n = g.n
    R = raised_obstruction(g.arrays[1][0], c, n)
    streams = dict(mokhov_identities(R, None, c, None, n))
    streams["flat(g2)"] = riemann_components(c, None, n)
    return {name for name, stream in streams.items() if not any(map(_residual, stream))}


def _mokhov_at(fg, fh):
    """(name, thunk) of flat(g2) and T1..T5 at a point."""
    yield "flat(g2)", lambda: pc.flat_at(fh)
    yield from pc.mokhov_at(fg, fh)


def mokhov_conditions(
    g: LinearMetric,
    h: LinearMetric,
    seed: int = DEFAULT_SEED,
    points=None,
) -> VerificationReport:
    """Flatness of both metrics plus the five obstruction-tensor identities
    for constant g.  flat(g1) holds for the constant g.  The others are
    first tried on the constant contravariant connection of h, at the
    first of ``points`` (by default the first SCAN_POINTS of the seed's
    sample), or at the seed's first sample point when ``points`` is empty;
    a condition proven there passes without a scan.
    The rest are scanned at ``points`` and then at the generic point, where
    each holds iff its numerators are zero polynomials (``_scan_points``).
    A T failure first seen at the generic point takes its witness from the
    rational stream (``_t_streams``): the numerator's quotient, reduced by
    powers of det(D h) alone, prints differently when det(D h) is
    reducible."""
    if not g.is_constant():
        raise FirstMetricNotConstant("first metric must be constant")
    report = VerificationReport(g.n, 2, seed)
    if points is None:
        points = _sample(g.nvars, [g, h], seed)
    u0 = points[0] if points else pc.sample_points(g.nvars, [g, h], seed, 1)[0]
    proven = [ConditionResult(name, True) for name in _constant_connection_proofs(g, h, u0)]
    scanned = _scan_points(("flat(g2)", *T_NAMES), _mokhov_at, (g, h), points,
                           pc.FrameCache(), proven)
    t_streams = functools.cache(lambda: _t_streams(g, h))
    report.conditions = [ConditionResult("flat(g1)", True)] + [
        _scan(c.name, t_streams()[c.name])
        if c.name in T_NAMES and c.witness and c.witness.point is None else c
        for c in scanned]
    return report


# ---------------------------------------------------------------------------
# Theorem-2-style conditions (linearity / Nijenhuis / Killing)
# ---------------------------------------------------------------------------


def _as_metric(h, n: int):
    """A bivector ``h`` as a LinearMetric when it is one, or a matrix at
    most linear in u (wrapped with its coefficient arrays and no
    non-degeneracy check); else the matrix itself."""
    if isinstance(h, LinearMetric):
        return h
    arrays = coefficient_arrays(h, n)
    return h if arrays is None else LinearMetric(n, h, check_nondegenerate=False, arrays=arrays)


def constant_inverse(g: LinearMetric) -> PolyMatrix:
    """Inverse of a constant metric with polynomial (constant) entries:
    D adj(G) / det(G) (``LinearMetric.constant_inverse_parts``)."""
    D, adj, det = g.constant_inverse_parts()
    zero = MultiPoly.zero(g.nvars)
    return PolyMatrix([[zero + x * Fraction(D, det) for x in row] for row in adj])


def _decide(name, streams, points, value, poly) -> ConditionResult:
    """Condition ``name`` decided on the arrays r_0, ..., r_n of a residual
    that is a nonzero multiple of r_0 + u_s r_s: one pass over their
    component ``streams``, in lockstep, up to the first point's first hit.
    A failure's witness is a scan's: at the first of the integer ``points``
    where a component's value v is nonzero, its first such index, residual
    ``value(v, u)``; with no hit, ``poly(parts)`` at the first nonzero one."""
    first = hit = None
    best = len(points)
    # a lone stream is filtered in C: only its nonzero components are read here
    rows = zip(*streams) if len(streams) > 1 else zip(filter(_residual, streams[0]))
    for comps in rows:
        if not any(map(_residual, comps)):
            continue
        idx, parts = comps[0][0], [r for _, r in comps]
        if first is None:
            first, us = (idx, parts), [int_point(pt) for pt in points]
        for p in range(best):
            if v := sum(x * int_value(r, us[p]) for x, r in zip((1, *us[p]), parts) if r):
                best, hit = p, (idx, v)
                break
        if not best:
            break
    if hit:
        return ConditionResult(name, False, _wit(hit[0], value(hit[1], us[best]), points[best]))
    if first:
        return ConditionResult(name, False, _wit(first[0], poly(first[1])))
    return ConditionResult(name, True)


def _triple_proofs(g: LinearMetric, h, points=(), names=("linearity", "nijenhuis", "killing")):
    """The ConditionResults of linearity, Nijenhuis and Killing (``names``)
    that the coefficient arrays D' g = G0 + u_s G_s and D h = H0 + u_s H_s
    (``LinearMetric.arrays``) of the linear reference g and a bivector h
    linear in u decide.  Each residual is affine in u, so it vanishes iff
    its n + 1 coefficient arrays do (u_0 = 1):

    * Killing has the arrays ``killing_components(G_k, [G_s], H_k, [H_s])``
      (k = 0 alone for constant g): decided both ways (``_decide``),
      residual v / (Dg Dh).
    * Nijenhuis, for constant g: L = H adj(G0) is Dh det / Dg times h g^-1
      (det = det G0), decided both ways, residual Dg^2 v / (Dh^2 det^2).
      For constant h with det H0 != 0, L = G adj(H0) is a multiple of
      g h^-1, and N(L) = 0 iff N(L^-1) = 0: only a pass.
    * Linearity, the contravariant Hessian of h (``contravariant_derivative``)
      on g's connection b = c / den (``constant_connection`` at the first of
      ``points``), is affine in u when b is constant: only a pass, but
      always for constant g, where b = 0 and it is d d h."""
    n = g.n
    h = _as_metric(h, n)
    if not isinstance(h, LinearMetric):
        return []
    lin, nij, kil = names
    (Dg, G), (Dh, H) = g.arrays, h.arrays
    nvars, flat = g.nvars, g.is_constant()
    ks = range(1 if flat else n + 1)
    decided = [_decide(kil, [killing_components(G[k], G[1:], H[k], H[1:], n) for k in ks], points,
                       lambda v, u: Fraction(v, Dg * Dh),
                       lambda parts: MultiPoly.from_affine_parts(nvars, Dg * Dh, parts))]
    if flat or h.is_constant():
        A, (adj, det) = (H, g.constant_adjugate()) if flat else (G, h.constant_adjugate())
        L = [mat_mul(m, adj) for m in A]
        streams = [nijenhuis_components(m, L[1:], n) for m in L]
        if flat:
            return decided + [ConditionResult(lin, True), _decide(
                nij, streams, points,
                lambda v, u: Fraction(Dg * Dg * v, Dh * Dh * int_value(det, u) ** 2),
                lambda parts: MultiPoly.from_affine_parts(
                    nvars, (Dh * g.constant_inverse_parts()[2]) ** 2, [Dg * Dg * r for r in parts]))]
        if det and not any(any(map(_residual, s)) for s in streams):
            decided.append(ConditionResult(nij, True))
    if points and (conn := constant_connection(g, points[0])):
        c, den = conn
        gs = [[[den * x for x in row] for row in m] for m in G]
        cs = [[[Dg * x for x in row] for row in plane] for plane in c]

        def nabla(T):
            return [contravariant_derivative(gs[k], T[1:], cs, T[k], n) for k in range(n + 1)]

        sparse = [{(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}
                  for m in H]
        if not any(nabla(nabla(sparse))):
            decided.append(ConditionResult(lin, True))
    return decided


def pair_conditions(g: LinearMetric, h, points, cache=None, tag=None) -> list[ConditionResult]:
    """linearity / nijenhuis / killing of the ordered pair (reference g, h).

    ``tag`` = (b, c), the 1-based positions of h and g in a d >= 3 spec,
    names them linearity[b|c], nijenhuis[b|c] and killing[c|b]; the Killing
    residual is always K(g, h), reference first.  Each condition is first
    decided on integer coefficient arrays (``_triple_proofs``): against a
    constant g every condition of a linear h, a failure with the witness a
    scan of ``points`` would give, so no point frame is built; Killing of
    every linear pair; and passes of linearity and Nijenhuis against a
    linear g.  The others are scanned at ``points`` (none: no integer
    point) and at the generic point.  A bivector that is not linear in u
    gets neither arrays nor frames: its symbolic streams decide it."""
    n = g.n
    h = _as_metric(h, n)
    lin, nij, kil = "linearity", "nijenhuis", "killing"
    if tag:
        b, c = tag
        lin, nij, kil = f"{lin}[{b}|{c}]", f"{nij}[{b}|{c}]", f"{kil}[{c}|{b}]"
    if not isinstance(h, LinearMetric):
        flat = g.is_constant()
        return [_scan(lin, covariant_hessian(h, n, None if flat else g)),
                _scan(nij, nijenhuis_stream(h @ (constant_inverse(g) if flat else g.inverse()), n)),
                _scan(kil, killing_stream(g, h, n))]
    points = points or ()

    def at(fg, fh):
        yield nij, lambda: pc.nijenhuis_at(fh, fg)
        yield lin, lambda: pc.linearity_at(fg, fh)

    decided = _triple_proofs(g, h, points, (lin, nij, kil))
    return _scan_points((lin, nij, kil), at, (g, h), points, cache or pc.FrameCache(), decided)


def theorem2_conditions(
    g: LinearMetric, h, seed: int = DEFAULT_SEED, points=None
) -> VerificationReport:
    """Linearity + Nijenhuis + Killing for constant g, decided on the
    coefficient arrays (``pair_conditions``), a failure with the witness of
    a scan at ``points`` (by default the first SCAN_POINTS of the seed's
    sample).  Flatness of h follows from them (Theorem 2) and is checked by
    mokhov_conditions.  A bivector that is not linear in u, or that is
    degenerate at every sample point, gets no point witness."""
    if not g.is_constant():
        raise FirstMetricNotConstant("first metric must be constant")
    report = VerificationReport(g.n, 2, seed)
    h = _as_metric(h, g.n)
    if not isinstance(h, LinearMetric):  # not linear in u
        points = ()
    elif points is None:
        try:
            points = _sample(g.nvars, [g, h], seed)
        except DegenerateEverywhere:
            points = ()
    report.conditions = pair_conditions(g, h, points)
    return report


# ---------------------------------------------------------------------------
# operators (d = 2 cross-check; d >= 3 pairwise)
# ---------------------------------------------------------------------------


def verify_operator(spec: OperatorSpec, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Full Hamiltonianity verification of an operator spec, every
    condition exact.

    2D: the linearity/Nijenhuis/Killing triple runs first, then the
    obstruction-tensor criterion, and the two must agree (DisagreementBug
    otherwise).  d >= 3: flatness of the (constant) first metric plus the
    pairwise conditions of each unordered pair, against its earlier metric.
    """
    if not spec.metrics[0].is_constant():
        raise FirstMetricNotConstant(
            "operator spec must present the first metric in constant form"
        )
    points = _sample(spec.nvars, spec.metrics, seed)
    return _check_operator(spec, seed, points)


def _check_operator(spec: OperatorSpec, seed: int, points):
    """verify_operator at the seed's scan ``points``: the triple, the d = 2
    Mokhov side and the d >= 3 pairs scan them.  The report lists the
    Mokhov conditions before the triple's (``VerificationReport.conditions``)."""
    report = VerificationReport(spec.n, spec.d, seed)
    if spec.d == 2:
        th2 = theorem2_conditions(spec.g, spec.gt, seed, points)
        mok = mokhov_conditions(spec.g, spec.gt, seed, points)
        if mok.verdict != th2.verdict:
            raise DisagreementBug(
                f"criteria disagree: obstruction={mok.verdict} "
                f"linearity/nijenhuis/killing={th2.verdict}"
            )
        report.conditions = mok.conditions + th2.conditions
        return report
    # d = 1, or d >= 3 with one triple per unordered pair, against the
    # earlier metric; the first metric is constant, so flat(g1) is proven
    report.conditions.append(ConditionResult("flat(g1)", True))
    cache = pc.FrameCache()
    for b, gb in enumerate(spec.metrics, 1):
        for c, gc in enumerate(spec.metrics[: b - 1], 1):
            report.conditions.extend(pair_conditions(gc, gb, points, cache, (b, c)))
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
    g1 = h.u_linear_part()
    u = PolyMatrix([[MultiPoly.variable(g.nvars, k + 1)] for k in range(n)])
    X = [-x for (x,) in (g1 @ constant_inverse(g) @ u).entries]
    lie_g = lie_derivative_bivector(g.mat, X, n)
    if not (lie_g - g1).is_zero():
        return False
    lie_g1 = lie_derivative_bivector(g1, X, n)
    return lie_g1.is_zero()
