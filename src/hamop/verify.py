"""Hamiltonianity verification for pairs of flat metrics and d-tuples.

Two independent criteria are implemented for d = 2:

* Mokhov's five obstruction-tensor identities (T1..T5) together with
  flatness of both metrics.  The first metric is constant, so the
  identities depend only on the contravariant connection
  b^{ij}_k = -h^{is} Gamma~^j_{sk} of h, and geometry.mokhov_identities
  states them once on b; three feeds supply it, each from the one formula
  geometry.connection_numerators: the constant connection, the rational
  b_upper of levi_civita(h), and the int numerator 2 det D b at a point
  (pointcheck.PointFrame.c);
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
occur).  The triple of a pair (linear g, h) is decided there by
_triple_proofs, where each residual is affine in u and so vanishes iff its
n + 1 coefficient arrays do: Killing is the sum of
u_k K(G_k, H_k); Nijenhuis is nijenhuis_components on L = H adj(G0) for
constant g, or on L^-1 up to a factor, G adj(H0), for constant h with
det H0 != 0; linearity is the contravariant Hessian of h on the constant
contravariant connection of g (geometry.constant_connection, whose
candidate point is the first scan point; for constant g it is 0).  The
Mokhov conditions are decided on the constant contravariant connection of h,
over the same arrays.  A Hamiltonian pair (g1, g2) has a constant
connection on g2 (T4), so the d >= 3 pairs of g2 with a constant metric are
decided there too.  A condition proven there passes and builds no frame;
the arrays claim only passes, so a failing condition's witness comes from
the pipeline below, as it would without them.

Every other condition is evaluated exactly at seeded integer points, in
int arithmetic (see pointcheck).  A point frame reads a metric's value
there off its arrays, the int matrix G = D g(pt) = M0 + u_s M_s, and every
jet a condition reads is an int numerator over a known power of det G and
D: b = c / (2 det D), d_r b = db / (2 det^2 D), Gamma = gamma / (2 det^2)
and d_r Gamma = dgamma / (2 det^3).  At each point only the conditions not
yet decided are evaluated, each once and only up to its first failing
component, on numerators of one weight; a hit is a nonzero numerator, and
its quotient by the condition's denominator, the one Fraction the scan
builds, is the rational value there and the witness.  A condition
without a hit is then decided by its exact identity:
flatness_witness, the T1..T5 streams of geometry.mokhov_identities on the
reduced rational connection b of h, and the lazy linearity / Nijenhuis /
Killing streams of geometry.  A failure found there carries a witness with
no point.

Every condition is exact.  On d = 2 input the triple runs first.  flat(g1)
holds for the constant first metric, as for d >= 3; the rest of the Mokhov
cross-check (flat(g2), T1..T5) is scanned at the same points only after a
failing triple, since after a passing one a hit could only end in
DisagreementBug, which the proofs raise just the same.  A Hamiltonian
pencil satisfies the triple, which the arrays prove, and T4, which for
constant g says that the contravariant connection b of h is constant
(Dubrovin-Novikov), so there every condition is proven on constants, with
no point scan and no rational stream.

``pointcheck.FrameCache`` shares the frames of a point between the
conditions and the two criteria.  Witnesses always report the
lexicographically first failing index tuple, at the first failing point
when one is given.  Some inputs get no point scan and are decided by their
identities alone: a bivector passed to theorem2_conditions that is not
linear in u or is degenerate everywhere, and callers that pass no points to
pair_conditions, such as the formal families of ``families``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from . import pointcheck as pc
from .errors import (
    DegenerateEverywhere,
    DisagreementBug,
    FirstMetricNotConstant,
    IdenticallySingular,
)
from .geometry import (
    T_NAMES,
    constant_connection,
    contravariant_derivative,
    covariant_hessian,
    flatness_witness,
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
from .metrics import LinearMetric, OperatorSpec, coefficient_arrays
from .poly import MultiPoly
from .scalars import format_rational

DEFAULT_SEED = 0
# points scanned before the exact identities
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


def _scan(name: str, gen) -> ConditionResult:
    """Symbolic condition from a generator of (indices, residual)."""
    for indices, residual in gen:
        if residual:
            return ConditionResult(name, False, _wit(indices, residual))
    return ConditionResult(name, True)


def _hits(pairs, names) -> dict:
    """name -> hit for each of ``names`` whose hit is not None.  ``pairs``
    yields (name, thunk), and ``thunk()`` computes that condition's hit at
    the point: it is called only for a name in ``names``, and reading stops
    once every name has been seen, so no other condition is evaluated."""
    pending = set(names)
    hits = {}
    for name, thunk in pairs:
        if name in pending:
            pending.discard(name)
            hit = thunk()
            if hit is not None:
                hits[name] = hit
            if not pending:
                break
    return hits


def _scan_points(proofs: dict, fn, metrics, points, cache, proven=()) -> list[ConditionResult]:
    """The conditions named by ``proofs``, in its order, scanned at points
    together: the conditions in ``proven``, already shown to hold, pass
    without a scan, and ``fn(*frames)`` on the frames of ``metrics`` at a
    point yields (name, thunk) for the others, where ``thunk()`` gives the
    condition's hit there, (indices, value) of its first failing component,
    or None.  ``points`` are integer points, as Fractions.  At each point
    only the conditions not yet decided are evaluated, each once, in int
    arithmetic on frames whose jets are int numerators over known powers of
    det and D (``pointcheck.PointFrame``), built as the conditions read them;
    a hit's value, its numerator over the condition's denominator, is the
    witness.  Points are scanned until every condition is decided, so a
    scan with every condition proven builds no frame.  A condition without
    a hit is then decided by ``proofs[name]()``, its exact identity as a
    lazy (indices, residual) stream.  A condition's first failing point and index tuple do
    not depend on which conditions share the scan."""
    decided = {name: ConditionResult(name, True) for name in proven}
    for pt in points:
        if len(decided) == len(proofs):
            break
        hits = _hits(fn(*cache.frames(pt, *metrics)), proofs.keys() - decided.keys())
        for name, hit in hits.items():
            decided[name] = ConditionResult(name, False, _wit(*hit, pt))
    return [decided.get(name) or _scan(name, proof()) for name, proof in proofs.items()]


def _flatness_proof(g: LinearMetric):
    w = flatness_witness(g)
    return [w] if w else []


# ---------------------------------------------------------------------------
# Theorem-1-style conditions (obstruction tensor)
# ---------------------------------------------------------------------------


def _t_streams(g: LinearMetric, h: LinearMetric) -> dict:
    """name -> the lazy stream of that identity on the reduced rational
    contravariant connection of h."""
    b = levi_civita(h).b_upper
    R = raised_obstruction(g.mat.entries, b, g.n)

    @functools.cache
    def d_raised(r, i, j, k):
        return R[i][j][k] and R[i][j][k].partial(r + 1)

    return dict(mokhov_identities(R, d_raised, b, h.mat.entries, g.n))


def _constant_connection_proofs(g: LinearMetric, h: LinearMetric, u0) -> set:
    """The Mokhov conditions that hold for constant g on the constant
    contravariant connection of h: when b^{ij}_k = -h^{is} Gamma~^j_{sk} is
    constant (``constant_connection`` with candidate point u0, giving
    c = den * b), each of flat(g2) and T1..T5 that holds on c with d b = 0
    (so d R = 0, and no derivative term is evaluated), and on R = -G c for
    the constant coefficient array G = D g (``LinearMetric.arrays``), all in
    the arithmetic of c: ints, or polynomials in the formal parameters.
    flat(g2) is Dubrovin's contravariant curvature
    b^{ik}_s b^{sl}_j - b^{il}_s b^{sk}_j of the invertible h.  Each identity is homogeneous in b and in R, so it holds
    on b and g iff on c and G."""
    conn = constant_connection(h, u0)
    if conn is None:
        return set()
    c, _ = conn
    n = g.n
    R = raised_obstruction(g.arrays[1][0], c, n)
    streams = dict(mokhov_identities(R, None, c, h.mat.entries, n))
    streams["flat(g2)"] = riemann_components(c, None, n)
    return {name for name, stream in streams.items() if not any(r for _, r in stream)}


def _mokhov_at(fg, fh):
    """(name, thunk) of flat(g2) and T1..T5 at a point."""
    yield "flat(g2)", lambda: pc.flat_at(fh)
    yield from pc.mokhov_at(fg, fh)


def mokhov_conditions(
    g: LinearMetric,
    h: LinearMetric,
    seed: int = DEFAULT_SEED,
    points=None,
    cache=None,
) -> VerificationReport:
    """Flatness of both metrics plus the five obstruction-tensor identities
    for constant g.  flat(g1) holds for the constant g.  The others are
    first tried on the constant contravariant connection of h, whose
    candidate point is the first of ``points`` (by default the first
    SCAN_POINTS of the seed's sample), or the seed's first sample point when
    ``points`` is empty; a condition proven there passes without a scan.
    The rest are scanned at ``points`` and, without a hit there, proven by
    ``flatness_witness`` or the condition's T1..T5 stream."""
    if not g.is_constant():
        raise FirstMetricNotConstant("first metric must be constant")
    report = VerificationReport(g.n, 2, seed)
    if points is None:
        points = _sample(g.nvars, [g, h], seed)
    u0 = points[0] if points else pc.sample_points(g.nvars, [g, h], seed, 1)[0]
    t_streams = functools.cache(lambda: _t_streams(g, h))
    proofs = {
        "flat(g2)": lambda: _flatness_proof(h),
        **{name: lambda name=name: t_streams()[name] for name in T_NAMES},
    }
    report.conditions = [_scan("flat(g1)", _flatness_proof(g))] + _scan_points(
        proofs, _mokhov_at, (g, h), points, cache or pc.FrameCache(),
        _constant_connection_proofs(g, h, u0),
    )
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


def constant_inverse_parts(g: LinearMetric):
    """(D, adj, det) with g^-1 = D adj / det for a constant metric g: the
    metric's memoised adjugate of its coefficient array G = D g
    (``LinearMetric.constant_adjugate``), with det an int."""
    if not g.is_constant():
        raise FirstMetricNotConstant("metric must be constant")
    adj, det = g.constant_adjugate()
    if not det:
        raise IdenticallySingular("matrix determinant is identically zero")
    if not isinstance(det, int):
        if not det.is_constant():
            raise ValueError("not a polynomial")
        det = det.constant_value().numerator
    return g.arrays[0], adj, det


def constant_inverse(g: LinearMetric) -> PolyMatrix:
    """Inverse of a constant metric with polynomial (constant) entries:
    D adj(G) / det(G) (``constant_inverse_parts``)."""
    D, adj, det = constant_inverse_parts(g)
    zero = MultiPoly.zero(g.nvars)
    return PolyMatrix([[zero + x * Fraction(D, det) for x in row] for row in adj])


def _triple_proofs(g: LinearMetric, h, u0=None) -> set:
    """Which of linearity, nijenhuis and killing hold for the linear
    reference g and the bivector h, decided on their coefficient arrays
    D' g = G0 + u_s G_s and D h = H0 + u_s H_s (``LinearMetric.arrays``)
    before any point scan; for an h that is not linear in u nothing is
    proven.  Each residual is affine in u, so it vanishes iff each of its
    n + 1 coefficient arrays does (u_0 = 1):

    * Killing is linear in (g, h) for fixed derivatives, so its arrays are
      ``killing_components(G_k, [G_s], H_k, [H_s])``; those with k >= 1
      vanish for constant g.
    * Nijenhuis is linear in L for fixed d L.  For constant g,
      L = H adj(G0) is a nonzero multiple of h g^-1; for constant h with
      det H0 != 0, L = G adj(H0) is a nonzero multiple of its inverse
      g h^-1, and N(L) = 0 iff N(L^-1) = 0.  With both non-constant
      nothing is proven.
    * Linearity is the contravariant Hessian nabla^a nabla^b h
      (``contravariant_derivative``), g^{ar} g^{bs} nabla_r nabla_s h for
      the invertible g, on g's contravariant connection b = c / den
      (``constant_connection`` with candidate point u0).  With b constant
      both nabla^b h and the Hessian are affine in u.  For constant g,
      b = 0 and d g = 0, so it is d d h = 0: linearity holds iff the arrays
      exist.  Without u0, or when b is not constant, it is not proven."""
    n = g.n
    h = _as_metric(h, n)
    if not isinstance(h, LinearMetric):
        return set()
    Dg, G = g.arrays
    _, H = h.arrays
    flat = g.is_constant()
    proven = set()
    ks = range(1 if flat else n + 1)
    if not any(r for k in ks for _, r in killing_components(G[k], G[1:], H[k], H[1:], n)):
        proven.add("killing")
    if flat or h.is_constant():
        A, (adj, det) = (H, g.constant_adjugate()) if flat else (G, h.constant_adjugate())
        if det:
            L = [mat_mul(m, adj) for m in A]
            if not any(r for m in L for _, r in nijenhuis_components(m, L[1:], n)):
                proven.add("nijenhuis")
    if flat:
        proven.add("linearity")
    elif u0 is not None and (conn := constant_connection(g, u0)):
        c, den = conn
        gs = [[[den * x for x in row] for row in m] for m in G]
        cs = [[[Dg * x for x in row] for row in plane] for plane in c]

        def nabla(T):
            return [contravariant_derivative(gs[k], T[1:], cs, T[k], n) for k in range(n + 1)]

        sparse = [{(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}
                  for m in H]
        if not any(nabla(nabla(sparse))):
            proven.add("linearity")
    return proven


def pair_conditions(g: LinearMetric, h, points, cache=None, tag=None) -> list[ConditionResult]:
    """linearity / nijenhuis / killing of the ordered pair (reference g, h).

    ``tag`` = (b, c), the 1-based positions of h and g in a d >= 3 spec,
    names them linearity[b|c], nijenhuis[b|c] and killing[c|b]; the Killing
    residual is always K(g, h), reference first.  Each condition is first
    decided on integer coefficient arrays (``_triple_proofs``, whose
    candidate point for g's contravariant connection is the first of
    ``points``), and one proven there passes without a scan: every
    condition of a linear h against a constant g, and of a linear g with a
    constant contravariant connection against a constant invertible h.
    The others are scanned at ``points`` (none: no scan) and, without a hit
    there, proven by their lazy streams, which stop at the first nonzero
    component.  Linearity is the covariant Hessian of h for g's
    connection; for constant g that is the plain second partials, which
    are not scanned.  A bivector that is not linear in u gets neither the
    proofs on arrays nor a scan."""
    n = g.n
    h = _as_metric(h, n)
    linear = isinstance(h, LinearMetric)
    hm = h.mat if linear else h
    lin, nij, kil = "linearity", "nijenhuis", "killing"
    if tag:
        b, c = tag
        lin, nij, kil = f"{lin}[{b}|{c}]", f"{nij}[{b}|{c}]", f"{kil}[{c}|{b}]"
    flat = g.is_constant()
    proofs = {
        lin: lambda: covariant_hessian(hm, n, None if flat else g),
        nij: lambda: nijenhuis_stream(hm @ (constant_inverse(g) if flat else g.inverse()), n),
        kil: lambda: killing_stream(g, hm, n),
    }
    names = dict(zip(("linearity", "nijenhuis", "killing"), proofs))
    proven = {names[k] for k in _triple_proofs(g, h, points[0] if points else None)}

    def at(fg, fh):
        yield nij, lambda: pc.nijenhuis_at(fh, fg)
        yield kil, lambda: pc.killing_at(fg, fh)
        yield lin, lambda: None if flat else pc.linearity_at(fg, fh)

    points = (points or ()) if linear else ()
    return _scan_points(proofs, at, (g, h), points, cache or pc.FrameCache(), proven)


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
    report = VerificationReport(g.n, 2, seed)
    h = _as_metric(h, g.n)
    if not isinstance(h, LinearMetric):  # not linear in u
        points = ()
    elif points is None:
        try:
            points = _sample(g.nvars, [g, h], seed)
        except DegenerateEverywhere:
            points = ()
    report.conditions = pair_conditions(g, h, points, cache)
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
    return _check_operator(spec, seed, points, pc.FrameCache())


def _check_operator(spec: OperatorSpec, seed: int, points, cache):
    """verify_operator at the seed's scan ``points``: the triple and the
    d >= 3 pairs scan them; the d = 2 Mokhov side scans them after a failing
    triple and goes straight to its proofs after a passing one.
    ``report.conditions`` lists the Mokhov conditions before the triple's."""
    report = VerificationReport(spec.n, spec.d, seed)
    if spec.d == 2:
        th2 = theorem2_conditions(spec.g, spec.gt, seed, points, cache)
        # after a proven triple a Mokhov scan cannot hit (the paper's
        # theorem; a hit is exact), so it goes to its proofs
        mok_points = () if th2.verdict else points
        mok = mokhov_conditions(spec.g, spec.gt, seed, mok_points, cache)
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
