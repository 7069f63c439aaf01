"""Exact evaluation of the verification conditions at sample points.

Every per-point formula here (metric jets, Christoffel symbols, the
contravariant connection of h and its derivative) is written once, over Q:
jets are Fractions.  The conditions themselves are not restated here:
``flat_at``, ``mokhov_at``, ``nijenhuis_at``, ``killing_at`` and
``linearity_at`` feed point values (and the derivative each needs) to the
one statement of their condition in ``geometry`` (``riemann_components``,
``mokhov_identities``, ``nijenhuis_components``, ``killing_components``,
``hessian_components``), written once for every exact scalar
representation, and return its first hit.  A hit is exact: its residual is
the condition's rational value at the point, and it is the witness.

The jets are computed as a condition reads them.  ``PointFrame`` builds
G^-1, its first derivatives and the Christoffel symbols whole on first
read, the second derivatives of G^-1 one direction r at a time, and
d_r Gamma^i_{jk} one entry at a time; the second jets serve flatness and
linearity only.  The Mokhov side reads first jets only: ``obstruction_at``
builds b and R whole from G, A and G^-1 of h, and their derivatives one
entry at a time from the same jets.  A stream that stops at its first
failing component so computes no jet past it, and a passing scan reads
every entry once.

Sample points are seeded integer points (as Fractions); those where any
metric is singular are rejected and redrawn, and after 100 rejections
DegenerateEverywhere is raised.  Rejection is integer work: each
metric's value at the point is scaled to an integer matrix and its Bareiss
rank read (``metrics.degenerate_at``).  ``FrameCache`` shares the frames of
one point between conditions and criteria.
``tests/test_pointcheck.py::test_symbolic_tensors_match_point_hits`` pins
the symbolic and the point feeds component by component.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .errors import DegenerateEverywhere
from .geometry import (
    T_NAMES,
    connection_numerators,
    hessian_components,
    killing_components,
    mokhov_identities,
    nijenhuis_components,
    raised_obstruction,
    riemann_components,
)
from .linsolve import inverse, mat_mul
from .metrics import LinearMetric, degenerate_at

SAMPLE_RANGE = 10**6
MAX_REJECT = 100
HALF = Fraction(1, 2)


def _zeros(*shape):
    if len(shape) == 1:
        return [Fraction(0)] * shape[0]
    return [_zeros(*shape[1:]) for _ in range(shape[0])]


def sample_points(nvars: int, metrics, seed: int, count: int):
    """The first ``count`` seeded points with integer coordinates in
    [-SAMPLE_RANGE, SAMPLE_RANGE], as Fractions, at which every given metric
    is invertible (decided over Z by ``metrics.degenerate_at``)."""
    rng = random.Random(seed)
    pts = []
    rejects = 0
    while len(pts) < count:
        pt = [Fraction(rng.randint(-SAMPLE_RANGE, SAMPLE_RANGE)) for _ in range(nvars)]
        if not any(degenerate_at(m.mat, pt) for m in metrics):
            pts.append(pt)
        else:
            rejects += 1
            if rejects > MAX_REJECT:
                raise DegenerateEverywhere(
                    "no sample point with all metrics non-degenerate"
                )
    return pts


class PointFrame:
    """Jets of one linear metric at one point.

    G (the bivector) and A[r] = d_r G are evaluated on construction.  Every
    other jet is computed on first read and memoised: G^-1, its first
    derivatives dGinv and the Christoffel symbols Gamma whole; the second
    derivatives d_r d_m G^-1 one direction r at a time (``ddGinv(r)``, a
    slice of n matrices); d_r Gamma^i_{jk} one entry at a time
    (``dgamma``).  A kernel that stops at its first failing component so
    pays only for the slices and entries it read."""

    def __init__(self, g: LinearMetric, point):
        self.n = g.n
        self.point = point
        self.G = g.mat.at_point(point)
        self.A = [m.at_point(point) for m in g.derivative_matrices()]
        self.constant = all(
            all(all(x == 0 for x in row) for row in a) for a in self.A
        )
        self._ginv = None
        self._dginv = None
        self._gamma = None
        self._ai = None  # A[k] Ginv, set with dGinv
        self._dd = {}  # (r, m), r <= m -> d_r d_m Ginv
        self._chris = {}  # None, or a direction r -> _first_kind(r)
        self._dgamma = {}  # (r, i, j, k), j <= k -> d_r Gamma^i_{jk}

    @property
    def Ginv(self):
        if self._ginv is None:
            inv = inverse(self.G)
            if inv is None:
                raise ZeroDivisionError("metric degenerate at sample point")
            self._ginv = inv
        return self._ginv

    @property
    def dGinv(self):
        if self._dginv is None:
            n = self.n
            if self.constant:
                self._ai = self._dginv = _zeros(n, n, n)
            else:
                # d_k Ginv = -Ginv A[k] Ginv; A[k] Ginv is kept for ddGinv
                inv = self.Ginv
                self._ai = [mat_mul(a, inv) for a in self.A]
                self._dginv = [[[-x for x in row] for row in mat_mul(inv, ai)]
                               for ai in self._ai]
        return self._dginv

    def ddGinv(self, r):
        """[d_r d_m Ginv for m in 0..n-1], the slice of direction r."""
        return [self._ddpair(min(r, m), max(r, m)) for m in range(self.n)]

    def _ddpair(self, r, m):
        # d_r d_m Ginv = -(B + B^T) with B = d[r] A[m] Ginv: d[r] = -Ginv
        # A[r] Ginv with Ginv and A[m] symmetric makes B^T = d[m] A[r] Ginv.
        # One product per unordered pair, shared by the slices r and m
        dd = self._dd.get((r, m))
        if dd is None:
            rng = range(self.n)
            B = mat_mul(self.dGinv[r], self._ai[m])
            dd = self._dd[r, m] = [[-(B[a][b] + B[b][a]) for b in rng] for a in rng]
        return dd

    @property
    def Gamma(self):
        if self._gamma is None:
            n = self.n
            if self.constant:
                self._gamma = _zeros(n, n, n)
            else:
                rng = range(n)
                G, C = self.G, self._first_kind(None)
                self._gamma = [
                    [[HALF * sum(G[i][l] * C[l][j][k] for l in rng) for k in rng] for j in rng]
                    for i in rng
                ]
        return self._gamma

    def _first_kind(self, r):
        """C[l][j][k] = d[j][l][k] + d[k][l][j] - d[l][j][k], twice the
        Christoffel symbols of the first kind, with d = dGinv (r = None), or
        its derivative d_r, with d = ddGinv(r); memoised."""
        C = self._chris.get(r)
        if C is None:
            rng = range(self.n)
            d = self.dGinv if r is None else self.ddGinv(r)
            C = self._chris[r] = [
                [[d[j][l][k] + d[k][l][j] - d[l][j][k] for k in rng] for j in rng]
                for l in rng
            ]
        return C

    def dgamma(self, r, i, j, k):
        """d_r Gamma^i_{jk} = (A[r]^{il} C[l][j][k] + G^{il} d_r C[l][j][k]) / 2,
        memoised (it is symmetric in j, k)."""
        if j > k:
            j, k = k, j
        v = self._dgamma.get((r, i, j, k))
        if v is None:
            v = self._dgamma[r, i, j, k] = self._dgamma_entry(r, i, j, k)
        return v

    def _dgamma_entry(self, r, i, j, k):
        if self.constant:
            return Fraction(0)
        C, dC = self._first_kind(None), self._first_kind(r)
        Ar, G = self.A[r][i], self.G[i]
        return HALF * sum(Ar[l] * C[l][j][k] + G[l] * dC[l][j][k] for l in range(self.n))


class FrameCache:
    """Shares PointFrames between conditions and criteria at fixed points:
    one frame per metric and point, keyed by identity."""

    def __init__(self):
        self._frames = {}

    def frame(self, metric: LinearMetric, point) -> PointFrame:
        key = (id(metric), id(point))
        f = self._frames.get(key)
        if f is None:
            f = self._frames[key] = PointFrame(metric, point)
        return f

    def frames(self, point, *metrics) -> list:
        """Frames of ``metrics`` at ``point``."""
        return [self.frame(m, point) for m in metrics]


def _first(stream):
    """First (indices, residual) of a stream with a nonzero residual, or None."""
    return next((hit for hit in stream if hit[1]), None)


def flat_at(f: PointFrame):
    """First failing (indices, residual) of R = 0, or None."""
    if f.constant:
        return None
    return _first(riemann_components(f.Gamma, f.dgamma, f.n))


def obstruction_at(fg: PointFrame, fh: PointFrame):
    """(b, R, db, dR) at the point, for a constant metric g: the
    contravariant Christoffel symbols b^{ij}_k of h and the raised
    obstruction R^{ijk} = -Gg^{ir} b^{kj}_r whole, and their derivatives as
    memoised entries, db(r, i, j, k) = d_r b^{ij}_k and
    dR(r, i, j, k) = d_r R^{ijk}.  Only first jets are read: 2b is
    ``geometry.connection_numerators`` on H and f[s] = A[s] H^-1, that is
    2b = A + e - e^T with e^{ij}_k = H^{is} f[s][j][k], and d_r b its
    product rule with d_r H = A[r] and d_r f[s] = A[s] d_r H^-1 =
    -f[s] f[r], where -(e - e^T) f[r] = -(2b - A) f[r]."""
    n = fh.n
    rng = range(n)
    H, A, Gg = fh.G, fh.A, fg.G
    f = [mat_mul(a, fh.Ginv) for a in A]
    b2 = connection_numerators(H, f, A, 1)
    b = [[[HALF * x for x in row] for row in plane] for plane in b2]
    w = [[[b2[i][j][s] - A[s][i][j] for s in rng] for j in rng] for i in rng]

    @functools.cache
    def db(r, i, j, k):
        Ar, wij, fr = A[r], w[i][j], f[r]
        return HALF * sum(Ar[i][s] * f[s][j][k] - Ar[j][s] * f[s][i][k]
                          - wij[s] * fr[s][k] for s in rng)

    @functools.cache
    def dR(r, i, j, k):
        return -sum(Gg[i][s] * db(r, k, j, s) for s in rng if Gg[i][s])

    return b, raised_obstruction(Gg, b, n), db, dR


def mokhov_at(fg: PointFrame, fh: PointFrame):
    """Yield (name, thunk) for T1..T5 at the frames' point, in order;
    ``thunk()`` is the hit, (indices, residual) of the first failing index
    tuple, or None.  b and R are built by the first thunk called, and only
    the derivative entries that T4 and T5 read are."""

    @functools.cache
    def streams():
        b, R, _, dR = obstruction_at(fg, fh)
        return dict(mokhov_identities(R, dR, b, fh.G, fg.n))

    for name in T_NAMES:
        yield name, lambda name=name: _first(streams()[name])


def nijenhuis_at(fh: PointFrame, fgamma: PointFrame):
    """First failing (indices, residual) of N(L) = 0 for L = H (G_gamma)^-1."""
    n = fh.n
    H, Ah = fh.G, fh.A
    ginv = fgamma.Ginv
    dginv = fgamma.dGinv
    L = mat_mul(H, ginv)
    dL = [
        [[x + y for x, y in zip(r1, r2)]
         for r1, r2 in zip(mat_mul(Ah[k], ginv), mat_mul(H, dginv[k]))]
        for k in range(n)
    ]
    return _first(nijenhuis_components(L, dL, n))


def killing_at(fg: PointFrame, fh: PointFrame):
    """First failing (indices, residual) of the Killing residual of (g, h)."""
    return _first(killing_components(fg.G, fg.A, fh.G, fh.A, fg.n))


def linearity_at(fgamma: PointFrame, fh: PointFrame):
    """First failing (indices, residual) of the covariant Hessian of h with
    respect to the frame's connection."""
    rng = range(fh.n)
    H, Ah = fh.G, fh.A
    G = fgamma.Gamma

    @functools.cache
    def dG(r, i, s):
        # [d_r Gamma^i_{sm} for every m], read n times per row
        return [fgamma.dgamma(r, i, s, m) for m in rng]

    def dC(C, r, s, i, j):
        # product rule on C[s]^{ij}; d_r d_s h = 0 as h is linear
        dGi, dGj, Gi, Gj, Ar = dG(r, i, s), dG(r, j, s), G[i][s], G[j][s], Ah[r]
        return sum(
            dGi[m] * H[m][j] + Gi[m] * Ar[m][j] + dGj[m] * H[i][m] + Gj[m] * Ar[i][m]
            for m in rng
        )

    return _first(hessian_components(G, H, Ah, dC, fh.n))
