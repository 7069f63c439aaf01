"""Exact evaluation of the verification conditions at sample points, over Z,
and at the generic point, over Z[u].

Every per-point formula here (metric jets, the contravariant connection
of a metric, its Christoffel symbols and their derivatives) is written
once, in int arithmetic: a jet is an int numerator over a known power of
det and D, where D g(pt) = G is the metric's value at the integer point
scaled to an int matrix and det = det G.  The conditions themselves are
not restated here: ``flat_at``, ``mokhov_at``, ``nijenhuis_at`` and
``linearity_at`` feed numerators of one uniform weight (and the derivative
each needs) to the one statement of their condition in ``geometry``
(``riemann_components``, ``mokhov_identities``, ``nijenhuis_components``,
``hessian_components``), written once for every exact scalar
representation, and return its first hit.  A hit is exact: the stream's
numerator is nonzero iff the condition's value is, and the residual is
that numerator over the kernel's denominator, the condition's rational
value at the point.  It is the one Fraction a scan builds, and it is the
witness.  Killing, and the triple of a constant reference, are decided on
coefficient arrays in ``verify``: the other kernels serve the rest.

The same formulas run at the generic point: a frame with point None
(``LinearMetric.jets_at(None)``) has G = D g = M0 + u_s M_s with
integer-coefficient polynomial entries, and its jets are polynomial
numerators over the same powers of the polynomial det G and D.  It is the
last point of every scan in ``verify``: a condition's stream there is its
numerator as a polynomial, so it holds iff every component is the zero
polynomial, and ``flat_at``, ``mokhov_at``, ``nijenhuis_at`` and
``linearity_at`` decide it as an identity.  A hit there is the first
nonzero numerator over the kernel's denominator as a RationalFunction,
reduced by powers of the det that denominator is built on (h's for
flatness and T1..T5, the reference's for Nijenhuis and linearity); no other
rational function is built.  ``geometry.flatness_witness`` is ``flat_at``
at the generic point.

The jets are computed as a condition reads them, from first jets only:
the connection has one formula.  ``PointFrame`` reads 2 det D b, the
numerator c of the contravariant Christoffel symbols b^{ij}_k =
-g^{is} Gamma^j_{sk}, off ``geometry.connection_numerators`` on G, A[s] adj
and A[s] = D d_s g, and d_r b one entry at a time by its product rule.
Gamma and d_r Gamma, which flatness and linearity read, are b and d_r b
lowered by g^-1 = D adj / det, Gamma by rows and d_r Gamma by entries;
the Mokhov side reads c and d_r b themselves (``obstruction_at`` adds R),
so at a point the connection of a metric is built once for both.  A stream
that stops at its first failing component so computes no jet past it, and
a passing scan reads every entry once.

Sample points are seeded integer points, lists of ints, from the one
sampler ``sample_points``: the scans of ``verify`` draw their
coordinates from [-SAMPLE_RANGE, SAMPLE_RANGE] and ``spectral``'s Segre
points from [-9, 9] (radius 9), and a 0 coordinate is redrawn.
Points where any metric is singular are rejected and redrawn, and after
``MAX_REJECT`` rejections DegenerateEverywhere is raised.  Rejection is
integer work: each metric's value at the point is read off its coefficient
arrays as an integer matrix and its Bareiss rank taken
(``metrics.degenerate_at``).  Every point value of a metric, in a frame or
a rejection, comes from those arrays (``LinearMetric.jets_at``).
``FrameCache`` shares the frames of one point between the conditions of a
scan, and between the pairs of a d >= 3 operator.
``tests/test_pointcheck.py`` pins every jet and every hit to the symbolic
streams at the point.
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
    mokhov_identities,
    nijenhuis_components,
    raised_obstruction,
    riemann_components,
)
from .linsolve import mat_mul
from .matrices import adjugate_det
from .metrics import LinearMetric, degenerate_at
from .poly import RationalFunction

SAMPLE_RANGE = 10**6
MAX_REJECT = 100  # redraws of a sample point


def sample_points(nvars: int, metrics, seed: int, count: int, radius: int = SAMPLE_RANGE):
    """The first ``count`` seeded points with nonzero integer coordinates in
    [-radius, radius], as lists of ints, at which every given metric is
    invertible (decided over Z by ``metrics.degenerate_at``).  A 0
    coordinate is redrawn: 0 lies on the degeneration subvarieties of most
    catalog families."""
    rng = random.Random(seed)
    pts = []
    rejects = 0
    while len(pts) < count:
        pt = []
        for _ in range(nvars):
            x = 0
            while not x:
                x = rng.randint(-radius, radius)
            pt.append(x)
        if not any(degenerate_at(m, pt) for m in metrics):
            pts.append(pt)
        else:
            rejects += 1
            if rejects > MAX_REJECT:
                raise DegenerateEverywhere("no generic sample point found")
    return pts


class _Rows:
    """Read-only sequence whose item i is ``make(i)``, built on first read."""

    __slots__ = ("_make", "_items")

    def __init__(self, make):
        self._make = make
        self._items = {}

    def __getitem__(self, i):
        v = self._items.get(i)
        if v is None:
            v = self._items[i] = self._make(i)
        return v


class PointFrame:
    """Integer jets of one linear metric g at one integer point, or
    polynomial jets at the generic point (``point`` None).

    G = D g(pt) = M0 + u_s M_s and A[s] = D d_s g = M_(s+1), int matrices
    read off the metric's coefficient arrays (``LinearMetric.jets_at``; D is
    the lcm of the coefficient denominators of g's entries), are taken on
    construction; at the generic point G has integer-coefficient polynomial
    entries.  Every other jet is an int (a polynomial), or such a numerator
    over a known denominator, computed on first read and memoised:

    * ``adj``, ``det``: adj G and det G, so g^-1 = D adj / det;
    * ``F[s]`` = A[s] adj, so d_s g g^-1 = F[s] / det;
    * ``c``: b^{ij}_k = c[i][j][k] / (2 det D), whole
      (``geometry.connection_numerators`` on G, F and A);
    * ``db(r, i, j, k)``: d_r b^{ij}_k = db / (2 det^2 D), one entry at a
      time;
    * ``gamma``: Gamma^i_{jk} = gamma[i][j][k] / (2 det^2), with
      gamma = -adj c as Gamma^i_{jk} = -g_{js} b^{si}_k, one row
      gamma[i][j] at a time;
    * ``dgamma(r, i, j, k)``: d_r Gamma^i_{jk} = dgamma / (2 det^3), one
      entry at a time, from d_r g_{js} = -D (adj F[r])_{js} / det^2.

    A kernel that stops at its first failing component so pays only for the
    entries it read: T3 and T5 sum a block of products of c and R before
    their first hit, and read d b one component at a time."""

    def __init__(self, g: LinearMetric, point):
        self.n = g.n
        self.point = point
        self.D, self.G, self.A = g.jets_at(point)
        self._db = {}  # (r, i, j, k) -> d_r b^{ij}_k numerator
        self._dgamma = {}  # (r, i, j, k), j <= k -> d_r Gamma^i_{jk} numerator

    @functools.cached_property
    def _adj_det(self):
        adj, det = adjugate_det(self.G)
        if not det:
            raise ZeroDivisionError("metric degenerate at sample point")
        return adj, det

    @property
    def adj(self):
        return self._adj_det[0]

    @property
    def det(self):
        return self._adj_det[1]

    @functools.cached_property
    def F(self):
        return [mat_mul(a, self.adj) for a in self.A]

    @functools.cached_property
    def c(self):
        return connection_numerators(self.G, self.F, self.A, self.det)

    def db(self, r, i, j, k):
        """Numerator of d_r b^{ij}_k over 2 det^2 D, memoised: the product
        rule on 2b = d g + e - e^T with e^{ij}_k = g^{is} (d_s g g^-1)^j_k and
        d_r (d_s g g^-1) = -(d_s g g^-1)(d_r g g^-1), where
        e - e^T = (c - det A) / (det D)."""
        v = self._db.get((r, i, j, k))
        if v is None:
            A, F, det, ci = self.A, self.F, self.det, self.c[i][j]
            Ar, Fr, Aij = A[r], F[r], [a[i][j] for a in A]
            v = self._db[r, i, j, k] = sum(
                det * (Ar[i][s] * F[s][j][k] - Ar[j][s] * F[s][i][k])
                - (ci[s] - det * Aij[s]) * Fr[s][k]
                for s in range(self.n))
        return v

    @functools.cached_property
    def gamma(self):
        adj, c, rng = self.adj, self.c, range(self.n)

        def row(i, j):
            return [-sum(adj[j][s] * c[s][i][k] for s in rng) for k in rng]

        return _Rows(lambda i: _Rows(lambda j: row(i, j)))

    @functools.cached_property
    def _q(self):
        # _q[r][j] is row j of adj F[r] = adj A[r] adj
        adj, F, rng = self.adj, self.F, range(self.n)

        def row(r, j):
            return [sum(adj[j][m] * F[r][m][k] for m in rng) for k in rng]

        return _Rows(lambda r: _Rows(lambda j: row(r, j)))

    def dgamma(self, r, i, j, k):
        """Numerator of d_r Gamma^i_{jk} over 2 det^3,
        (adj F[r])_{js} c^{si}_k - adj_{js} db(r, s, i, k), memoised (it is
        symmetric in j, k)."""
        if j > k:
            j, k = k, j
        v = self._dgamma.get((r, i, j, k))
        if v is None:
            q, adj_j, c = self._q[r][j], self.adj[j], self.c
            v = self._dgamma[r, i, j, k] = sum(
                q[s] * c[s][i][k] - adj_j[s] * self.db(r, s, i, k) for s in range(self.n))
        return v


class FrameCache:
    """Shares PointFrames between the conditions, and the pairs, scanned at
    fixed points: one frame per metric and point, keyed by identity."""

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


def _first(f: PointFrame, stream, den, scale=1):
    """(indices, scale * numerator / den()) of the first nonzero component
    of a stream of numerators, or None: a Fraction at an integer point, and
    at the generic point a RationalFunction reduced by powers of ``f.det``,
    the det of the frame ``f`` that the denominator is built on.  ``den``
    is called only on a hit: at the generic point it is a power of a
    polynomial."""
    hit = next((hit for hit in stream if hit[1]), None)
    if not hit:
        return None
    if f.point is None:
        return hit[0], RationalFunction(scale * hit[1], den(), base=f.det)
    return hit[0], Fraction(scale * hit[1], den())


def flat_at(f: PointFrame):
    """First failing (indices, residual) of R = 0, or None: with
    Gamma = gamma / (2 det^2) and d Gamma = dgamma / (2 det^3),
    ``riemann_components`` on gamma and 2 det dgamma is the stream of
    4 det^4 R^i_{jkl}."""
    det, dgamma = f.det, f.dgamma

    def d(r, i, j, k):
        return 2 * det * dgamma(r, i, j, k)

    return _first(f, riemann_components(f.gamma, d, f.n), lambda: 4 * det**4)


def obstruction_at(fg: PointFrame, fh: PointFrame):
    """(R, dR) at the point, for a constant metric g: the raised obstruction
    R^{ijk} = -g^{ir} b^{kj}_r = R[i][j][k] / (2 det D Dg) whole, and its
    derivatives as memoised entries d_r R^{ijk} = dR(r, i, j, k) /
    (2 det^2 D Dg), where b = ``fh.c`` / (2 det D) and d_r b = ``fh.db`` /
    (2 det^2 D) are h's, and Dg g is the G of ``fg``.  Only first jets of h are
    read."""
    n, Gg, db = fh.n, fg.G, fh.db
    rng = range(n)

    @functools.cache
    def dR(r, i, j, k):
        return -sum(Gg[i][s] * db(r, k, j, s) for s in rng if Gg[i][s])

    return raised_obstruction(Gg, fh.c, n), dR


def mokhov_streams(fg: PointFrame, fh: PointFrame) -> dict:
    """name -> the stream of numerators of T1..T5, for a constant metric g:
    ``mokhov_identities`` on the numerators c of b, R and 2 dR of
    ``obstruction_at`` and h's G.  With B = 2 det D, b = c / B and
    R^{ijk} = R[i][j][k] / (B Dg), T1 and T2 are over B Dg, T3 and T5 over
    B^2 Dg, and T4 over 2 B det Dg.  At the generic frames the numerators
    are polynomials, and a condition holds iff each is the zero polynomial."""
    R, dR = obstruction_at(fg, fh)
    return dict(mokhov_identities(R, lambda *idx: 2 * dR(*idx), fh.c, fh.G, fg.n))


def mokhov_at(fg: PointFrame, fh: PointFrame):
    """Yield (name, thunk) for T1..T5 at the frames' point, in order; a
    thunk's call gives the hit, (indices, residual) of the first failing
    index tuple, or None: the first nonzero numerator of ``mokhov_streams`` over
    its denominator.  c and R are built by the first thunk called, and only
    the derivative entries that T4 and T5 read are."""

    def den(name):
        B = 2 * fh.det * fh.D
        return B * fg.D * {"T3": B, "T4": 2 * fh.det, "T5": B}.get(name, 1)

    streams = functools.cache(lambda: mokhov_streams(fg, fh))

    for name in T_NAMES:
        yield name, lambda name=name: _first(fh, streams()[name], lambda: den(name))


def nijenhuis_at(fh: PointFrame, fgamma: PointFrame):
    """First failing (indices, residual) of N(L) = 0 for L = h g^-1,
    g the metric of ``fgamma``.  With Dh h = H and Dg g = G:
    L = Dg / (Dh det) H adj and d_k L = Dg / (Dh det^2)
    (det A_h[k] adj - H adj A_g[k] adj), and N is bilinear in (L, d L), so
    the stream on the int numerators is Dh^2 det^3 / Dg^2 N.  Rows of the
    numerators are built on first read."""
    n, rng = fh.n, range(fh.n)
    H, Ah = fh.G, fh.A
    adj, det, Fg = fgamma.adj, fgamma.det, fgamma.F

    def row(m):
        return [sum(m[s] * adj[s][b] for s in rng if m[s]) for b in rng]

    L = _Rows(lambda a: row(H[a]))

    def d_row(k, a):
        La, Fk = L[a], Fg[k]
        return [det * x - sum(La[s] * Fk[s][b] for s in rng)
                for b, x in enumerate(row(Ah[k][a]))]

    dL = _Rows(lambda k: _Rows(lambda a: d_row(k, a)))
    return _first(fgamma, nijenhuis_components(L, dL, n), lambda: fh.D**2 * det**3, fgamma.D**2)


def linearity_at(fgamma: PointFrame, fh: PointFrame):
    """First failing (indices, residual) of the covariant Hessian of h with
    respect to the frame's connection.  With Gamma = gamma / (2 det^2),
    d Gamma = dgamma / (2 det^3) and Dh h = H, the stream on gamma, H and
    2 det^2 d H (so that C is 2 det^2 Dh C) is 4 det^4 Dh times it."""
    rng = range(fh.n)
    H, Ah = fh.G, fh.A
    G, det = fgamma.gamma, fgamma.det
    two_det2 = 2 * det * det
    dh = [[[two_det2 * x for x in row] for row in a] for a in Ah]

    @functools.cache
    def dG(r, i, s):
        # [d_r Gamma^i_{sm} numerators for every m], read n times per row
        return [fgamma.dgamma(r, i, s, m) for m in rng]

    def dC(C, r, s, i, j):
        # product rule on C[s]^{ij}; d_r d_s h = 0 as h is linear
        dGi, dGj, Gi, Gj, Ar = dG(r, i, s), dG(r, j, s), G[i][s], G[j][s], Ah[r]
        return 2 * det * sum(
            dGi[m] * H[m][j] + det * Gi[m] * Ar[m][j] + dGj[m] * H[i][m] + det * Gj[m] * Ar[i][m]
            for m in rng
        )

    return _first(fgamma, hessian_components(G, H, dh, dC, fh.n), lambda: 4 * det**4 * fh.D)
