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

The jets are computed as a condition reads them, from first jets only:
the connection has one formula.  ``PointFrame`` builds G^-1, its first
derivatives and the contravariant Christoffel symbols b^{ij}_k =
-G^{is} Gamma^j_{sk} whole on first read, 2b being
``geometry.connection_numerators`` on G, A and G^-1, and d_r b one entry
at a time by its product rule.  Gamma and d_r Gamma, which flatness and
linearity read, are b and d_r b lowered by G^-1; the Mokhov side reads b
and d_r b themselves (``obstruction_at`` adds R), so at a point the
connection of a metric is built once for both.  A stream that stops at
its first failing component so computes no jet past it, and a passing scan
reads every entry once.

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
    other jet is computed on first read and memoised: G^-1, f[s] =
    A[s] G^-1, the first derivatives dGinv, the contravariant Christoffel
    symbols b and the Christoffel symbols Gamma whole; d_r b^{ij}_k
    (``db``) and d_r Gamma^i_{jk} (``dgamma``) one entry at a time.  The
    connection has one formula: 2b is ``geometry.connection_numerators`` on
    G and f, and Gamma^i_{jk} = -g_{js} b^{si}_k with g_{js} = Ginv, so
    d_r Gamma^i_{jk} = -(d_r g_{js} b^{si}_k + g_{js} d_r b^{si}_k).  A
    kernel that stops at its first failing component so pays only for the
    entries it read."""

    def __init__(self, g: LinearMetric, point):
        self.n = g.n
        self.point = point
        self.G = g.mat.at_point(point)
        self.A = [m.at_point(point) for m in g.derivative_matrices()]
        self.constant = all(
            all(all(x == 0 for x in row) for row in a) for a in self.A
        )
        self._db = {}  # (r, i, j, k) -> d_r b^{ij}_k
        self._dgamma = {}  # (r, i, j, k), j <= k -> d_r Gamma^i_{jk}

    @functools.cached_property
    def Ginv(self):
        inv = inverse(self.G)
        if inv is None:
            raise ZeroDivisionError("metric degenerate at sample point")
        return inv

    @functools.cached_property
    def f(self):
        """f[s] = A[s] G^-1, so d_s G^-1 = -G^-1 f[s] and d_r f[s] = -f[s] f[r]."""
        if self.constant:
            return _zeros(self.n, self.n, self.n)
        return [mat_mul(a, self.Ginv) for a in self.A]

    @functools.cached_property
    def dGinv(self):
        if self.constant:
            return self.f
        return [[[-x for x in row] for row in mat_mul(self.Ginv, fk)] for fk in self.f]

    @functools.cached_property
    def _b2(self):
        # 2b = A + e - e^T with e^{ij}_k = G^{is} f[s][j][k]
        return connection_numerators(self.G, self.f, self.A, 1)

    @functools.cached_property
    def b(self):
        """b[i][j][k] = b^{ij}_k = -G^{is} Gamma^j_{sk}."""
        return [[[HALF * x for x in row] for row in plane] for plane in self._b2]

    def db(self, r, i, j, k):
        """d_r b^{ij}_k, memoised: the product rule on 2b = A + e - e^T with
        d_r G = A[r] and d_r f[s] = -f[s] f[r], where -(e - e^T) f[r] =
        -(2b - A) f[r]."""
        v = self._db.get((r, i, j, k))
        if v is None:
            A, f, b2 = self.A, self.f, self._b2[i][j]
            Ar, fr = A[r], f[r]
            v = self._db[r, i, j, k] = HALF * sum(
                Ar[i][s] * f[s][j][k] - Ar[j][s] * f[s][i][k] - (b2[s] - A[s][i][j]) * fr[s][k]
                for s in range(self.n))
        return v

    @functools.cached_property
    def Gamma(self):
        """Gamma[i][j][k] = Gamma^i_{jk} = -g_{js} b^{si}_k."""
        n = self.n
        if self.constant:
            return _zeros(n, n, n)
        b = self.b
        return [[[-x for x in row] for row in mat_mul(self.Ginv, [b[s][i] for s in range(n)])]
                for i in range(n)]

    def dgamma(self, r, i, j, k):
        """d_r Gamma^i_{jk} = -(d_r g_{js} b^{si}_k + g_{js} d_r b^{si}_k),
        memoised (it is symmetric in j, k)."""
        if j > k:
            j, k = k, j
        v = self._dgamma.get((r, i, j, k))
        if v is None:
            if self.constant:
                v = Fraction(0)
            else:
                dg, g, b = self.dGinv[r][j], self.Ginv[j], self.b
                v = -sum(dg[s] * b[s][i][k] + g[s] * self.db(r, s, i, k) for s in range(self.n))
            self._dgamma[r, i, j, k] = v
        return v


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
    contravariant Christoffel symbols b^{ij}_k of h and their derivatives
    db(r, i, j, k) = d_r b^{ij}_k (``fh.b``, ``fh.db``), the raised
    obstruction R^{ijk} = -Gg^{ir} b^{kj}_r whole and its derivatives as
    memoised entries dR(r, i, j, k) = d_r R^{ijk}.  Only first jets of h
    are read."""
    n, Gg, db = fh.n, fg.G, fh.db
    rng = range(n)

    @functools.cache
    def dR(r, i, j, k):
        return -sum(Gg[i][s] * db(r, k, j, s) for s in rng if Gg[i][s])

    return fh.b, raised_obstruction(Gg, fh.b, n), db, dR


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
