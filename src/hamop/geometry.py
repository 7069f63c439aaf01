"""Symbolic differential geometry of linear metrics.

Levi-Civita connections, flatness, Nijenhuis torsion, the Killing residual
in its polynomial form, second-covariant-derivative (linearity) residuals,
obstruction tensors, the obstruction identities T1..T5 and Lie derivatives
of bivectors.  Everything is exact: entries are MultiPoly or
RationalFunction, and a condition "holds" iff the residual is identically
zero.

Each verification condition is stated once, as a lazy stream of
(1-based indices, residual) that works for every scalar representation:
``riemann_components`` (flatness), ``nijenhuis_components``,
``killing_components``, ``hessian_components`` (linearity) and
``mokhov_identities`` (T1..T5).  The caller passes the entries and their
derivatives; ``flatness_witness``, ``covariant_hessian``,
``nijenhuis_stream`` and ``killing_stream`` run the symbolic streams
lazily, ``nijenhuis_torsion`` and ``killing_residual`` fill whole tensors
from them, and ``pointcheck`` feeds them point values.

Index conventions: public tensors are returned as nested 0-based lists;
contractions always run over the u-block 1..n, never over trailing formal
parameter variables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linsolve import identity
from .matrices import PolyMatrix, adjugate_det
from .metrics import LinearMetric
from .poly import MultiPoly, RationalFunction


@dataclass
class Connection:
    """Levi-Civita data of the metric ``mat``: Christoffel symbols and
    contravariant symbols.

    gamma[i][j][k] = Gamma^i_{jk} (symmetric in j,k);
    b_upper[i][j][k] = b^{ij}_k = -g^{is} Gamma^j_{sk}, built on first read.

    For non-constant metrics the polynomial numerators gamma_num (with
    Gamma = gamma_num / det^2) are kept alongside: curvature scans assemble
    their residual numerators from them without rational-function division.
    """

    n: int
    gamma: list
    mat: PolyMatrix
    gamma_num: list | None = None
    det: MultiPoly | None = None

    @functools.cached_property
    def b_upper(self) -> list:
        n, nvars = self.n, self.mat.nvars
        if self.gamma_num is None:  # constant metric
            zero = RationalFunction(MultiPoly.zero(nvars))
            return [[[zero] * n for _ in range(n)] for _ in range(n)]
        p_num, det = self.gamma_num, self.det
        det2 = det * det
        b_upper = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = MultiPoly.zero(nvars)
                    for s in range(n):
                        gis = self.mat[i, s]
                        if gis and p_num[j][s][k]:
                            acc = acc - gis * p_num[j][s][k]
                    b_upper[i][j][k] = RationalFunction(acc, det2, base=det)
        return b_upper


def levi_civita(g: LinearMetric) -> Connection:
    """Connection of a non-degenerate linear metric, exact rational entries.

    Christoffel numerators are assembled polynomially over the shared
    denominator det(g)^2 (g_cov = adj/det, d_m g_cov = -g_cov A_m g_cov), so
    each entry is normalized exactly once; for passing families the trial
    division inside the normalization collapses the denominator."""
    if g._conn is not None:
        return g._conn
    n = g.n
    nvars = g.nvars
    zero = RationalFunction(MultiPoly.zero(nvars))
    if g.is_constant():
        conn = Connection(n, [[[zero] * n for _ in range(n)] for _ in range(n)], g.mat)
        g._conn = conn
        return conn
    adj, det = adjugate_det(g.mat)
    derivs = g.derivative_matrices()
    a_adj = [a @ adj for a in derivs]        # det * (A_m g_cov)
    b_cov = [adj @ m for m in a_adj]         # det^2 * (g_cov A_m g_cov)
    det2 = det * det
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    p_num = [[[None] * n for _ in range(n)] for _ in range(n)]
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = (-a_adj[j][i, k] - a_adj[k][i, j]) * det
                for l in range(n):
                    gil = g.mat[i, l]
                    if gil and b_cov[l][j, k]:
                        acc = acc + gil * b_cov[l][j, k]
                num = acc * half
                p_num[i][j][k] = num
                p_num[i][k][j] = num
                val = RationalFunction(num, det2, base=det)
                gamma[i][j][k] = val
                gamma[i][k][j] = val
    conn = Connection(n, gamma, g.mat, gamma_num=p_num, det=det)
    g._conn = conn
    return conn


def _partials(m: PolyMatrix, n: int, lift=identity) -> list:
    """out[s][a][b] = lift(d_s m[a, b])."""
    return [
        [[lift(m[a, b].partial(s + 1)) for b in range(n)] for a in range(n)]
        for s in range(n)
    ]


def _antisymmetric(idx, value):
    """Entries of a component antisymmetric in its last two indices."""
    *head, a, b = idx
    return ((idx, value), ((*head, b, a), -value))


def _symmetric(idx, value):
    return ((p, value) for p in set(itertools.permutations(idx)))


def _tensor(stream, n: int, rank: int, zero, entries) -> list:
    """Nested 0-based tensor from a stream of (1-based indices, value).
    ``entries(indices, value)`` lists the (indices, value) of every entry a
    component determines; entries the stream leaves out are ``zero``."""

    def zeros(r):
        return [zeros(r - 1) for _ in range(n)] if r else zero

    out = zeros(rank)
    for idx, value in stream:
        for image, v in entries(idx, value or zero):
            row = out
            for i in image[:-1]:
                row = row[i - 1]
            row[image[-1] - 1] = v
    return out


def riemann_components(gamma, d_gamma, n: int, red):
    """R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj} for k < l (R is
    antisymmetric in k, l), lazily as (1-based indices, residual) in
    lexicographic order; ``d_gamma(r, i, j, k)`` is d_r Gamma^i_{jk}.

    Like every stream below (and ``mokhov_identities``) it is written once
    for every scalar representation: entries need only +, -, * (int 0
    included) and truthiness, ``red`` brings a sum of products into canonical
    form, and zero products are skipped."""
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in range(k + 1, n):
                    acc = d_gamma(k, i, l, j) - d_gamma(l, i, k, j)
                    for s in rng:
                        if gamma[i][k][s] and gamma[s][l][j]:
                            acc = acc + gamma[i][k][s] * gamma[s][l][j]
                        if gamma[i][l][s] and gamma[s][k][j]:
                            acc = acc - gamma[i][l][s] * gamma[s][k][j]
                    yield (i + 1, j + 1, k + 1, l + 1), red(acc)


def nijenhuis_components(L, dL, n: int, red):
    """N^k_{ij} = L^s_i d_s L^k_j - L^s_j d_s L^k_i
    + L^k_s (d_j L^s_i - d_i L^s_j) for i < j (N is antisymmetric in i, j);
    L[a][b] = L^a_b and dL[s][a][b] = d_s L^a_b."""
    rng = range(n)
    for k in rng:
        for i in rng:
            for j in range(i + 1, n):
                acc = 0
                for s in rng:
                    if L[s][i] and dL[s][k][j]:
                        acc = acc + L[s][i] * dL[s][k][j]
                    if L[s][j] and dL[s][k][i]:
                        acc = acc - L[s][j] * dL[s][k][i]
                    if L[k][s]:
                        d = dL[j][s][i] - dL[i][s][j]
                        if d:
                            acc = acc + L[k][s] * d
                yield (k + 1, i + 1, j + 1), red(acc)


def killing_components(g, dg, h, dh, n: int, red):
    """Killing residual of the symmetric bivectors g, h for i <= j <= k (it
    is fully symmetric):

        g^{is} d_s h^{jk} + g^{js} d_s h^{ik} + g^{ks} d_s h^{ij}
      - h^{is} d_s g^{jk} - h^{js} d_s g^{ik} - h^{ks} d_s g^{ij},

    with dg[s][a][b] = d_s g^{ab} and dh likewise."""
    rng = range(n)
    for i in rng:
        for j in range(i, n):
            for k in range(j, n):
                acc = 0
                for s in rng:
                    for (a, b, c) in ((i, j, k), (j, i, k), (k, i, j)):
                        if g[a][s] and dh[s][b][c]:
                            acc = acc + g[a][s] * dh[s][b][c]
                        if h[a][s] and dg[s][b][c]:
                            acc = acc - h[a][s] * dg[s][b][c]
                yield (i + 1, j + 1, k + 1), red(acc)


def hessian_components(gamma, h, dh, dC, n: int, red):
    """(nabla_r nabla_s h)^{ij} of a bivector h for the connection gamma:

        C[s]^{ij} = d_s h^{ij} + Gamma^i_{sm} h^{mj} + Gamma^j_{sm} h^{im}
        (nabla_r C[s])^{ij} = d_r C[s]^{ij} + Gamma^i_{rm} C[s]^{mj}
            + Gamma^j_{rm} C[s]^{im} - Gamma^m_{rs} C[m]^{ij}

    with dh[s][i][j] = d_s h^{ij} and ``dC(C, r, s, i, j)`` = d_r C[s]^{ij},
    where ``C(s, i, j)`` is the memoised C[s]^{ij}."""
    rng = range(n)

    @functools.cache
    def C(s, i, j):
        acc = dh[s][i][j]
        for m in rng:
            if gamma[i][s][m] and h[m][j]:
                acc = acc + gamma[i][s][m] * h[m][j]
            if gamma[j][s][m] and h[i][m]:
                acc = acc + gamma[j][s][m] * h[i][m]
        return red(acc)

    for r in rng:
        for s in rng:
            for i in rng:
                for j in rng:
                    acc = dC(C, r, s, i, j)
                    for m in rng:
                        if gamma[i][r][m] and C(s, m, j):
                            acc = acc + gamma[i][r][m] * C(s, m, j)
                        if gamma[j][r][m] and C(s, i, m):
                            acc = acc + gamma[j][r][m] * C(s, i, m)
                        if gamma[m][r][s] and C(m, i, j):
                            acc = acc - gamma[m][r][s] * C(m, i, j)
                    yield (r + 1, s + 1, i + 1, j + 1), red(acc)


def det2_quotient_derivative(T, det: MultiPoly, n: int):
    """Memoised d(r, i, j, k) = det^4 d_r (T[i][j][k] / det^2)
    = (d_r T det - 2 T d_r det) det for polynomial numerators T."""
    ddet = [det.partial(m + 1) for m in range(n)]

    @functools.cache
    def d(r, i, j, k):
        t = T[i][j][k]
        return (t.partial(r + 1) * det - t * (2 * ddet[r])) * det

    return d


def _riemann_numerators(g: LinearMetric):
    """det^4 R^i_{jkl} (k < l) of a non-constant g as polynomials, from the
    Christoffel numerators P = det^2 Gamma, det = det g."""
    conn = levi_civita(g)
    P = conn.gamma_num
    d = det2_quotient_derivative(P, conn.det, g.n)

    def d_gamma(r, i, j, k):
        # Gamma^i_{jk} = Gamma^i_{kj}: both orders share one memo entry
        return d(r, i, j, k) if j <= k else d(r, i, k, j)

    return riemann_components(P, d_gamma, g.n, identity)


def flatness_witness(g: LinearMetric):
    """None when g is flat, else ((i,j,k,l), residual) at the first failing
    index tuple in lexicographic order (1-based indices); components are
    computed lazily so a non-flat metric is rejected at its first nonzero
    component."""
    if g.is_constant():
        return None
    for idx, num in _riemann_numerators(g):
        if num:
            det = levi_civita(g).det
            return idx, RationalFunction(num, det ** 4, base=det)
    return None


def nijenhuis_stream(L: PolyMatrix, n: int):
    """Lazy (1-based indices, residual) stream of the Nijenhuis torsion of
    L (``nijenhuis_components``), with L's entry type."""
    return nijenhuis_components(L.entries, _partials(L, n), n, identity)


def nijenhuis_torsion(L: PolyMatrix, n: int | None = None) -> list:
    """N^k_{ij} = L^s_i d_s L^k_j - L^s_j d_s L^k_i
    + L^k_s d_j L^s_i - L^k_s d_i L^s_j, antisymmetric in (i,j)."""
    n = n or L.rows
    return _tensor(nijenhuis_stream(L, n), n, 3, MultiPoly.zero(L.nvars), _antisymmetric)


def killing_stream(g, h, n: int):
    """Lazy (1-based indices, residual) stream of the Killing residual of
    (g, h) (``killing_components``); g and h are LinearMetrics or
    PolyMatrix bivectors."""
    gm = g.mat if isinstance(g, LinearMetric) else g
    hm = h.mat if isinstance(h, LinearMetric) else h
    return killing_components(
        gm.entries, _partials(gm, n), hm.entries, _partials(hm, n), n, identity
    )


def killing_residual(g, h, n: int | None = None) -> list:
    """Fully symmetric 3-index residual of the Killing condition in the
    polynomial form valid for any pair of symmetric bivectors:

        g^{is} d_s h^{jk} + g^{js} d_s h^{ik} + g^{ks} d_s h^{ij}
      - h^{is} d_s g^{jk} - h^{js} d_s g^{ik} - h^{ks} d_s g^{ij} = 0.

    Vanishes iff h is a Killing bivector for (the Levi-Civita connection of) g.
    """
    n = n or (g.n if isinstance(g, LinearMetric) else g.rows)
    zero = MultiPoly.zero(g.nvars)
    return _tensor(killing_stream(g, h, n), n, 3, zero, _symmetric)


def _partial_of_c(C, r, s, i, j):
    return C(s, i, j).partial(r + 1)


def covariant_hessian(h: PolyMatrix, n: int, g: LinearMetric | None = None):
    """Lazy (1-based indices, residual) stream of (nabla_r nabla_s h)^{ij}
    for the Levi-Civita connection of g, with RationalFunction entries.
    Without g it is the plain second partials d_r d_s h^{ij} (the connection
    of flat coordinates), with MultiPoly entries."""
    if g is None:
        gamma, lift = [[[0] * n for _ in range(n)] for _ in range(n)], identity
    else:
        gamma, lift = levi_civita(g).gamma, RationalFunction
    return hessian_components(
        gamma, h.entries, _partials(h, n, lift), _partial_of_c, n, identity
    )


@dataclass
class ObstructionTensor:
    """T^i_{jk} = Gamma~^i_{jk} - Gamma^i_{jk} and its raised form
    T^{ijk} = g^{ir} h^{ks} T^j_{rs}."""

    n: int
    t: list         # t[i][j][k], RationalFunction
    t_raised: list  # t_raised[i][j][k], RationalFunction


def raise_obstruction(g: LinearMetric, h: LinearMetric, t: list, zero) -> list:
    """raised[i][j][k] = g^{ir} h^{ks} t[j][r][s]; ``zero`` is the zero of
    the entries' type (MultiPoly numerators or RationalFunctions)."""
    n = g.n
    raised = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = zero
                for r in range(n):
                    gir = g.mat[i, r]
                    if not gir:
                        continue
                    for s in range(n):
                        hks = h.mat[k, s]
                        if hks and t[j][r][s]:
                            acc = acc + (gir * hks) * t[j][r][s]
                raised[i][j][k] = acc
    return raised


def obstruction_tensor(g: LinearMetric, h: LinearMetric) -> ObstructionTensor:
    n = g.n
    cg = levi_civita(g)
    ch = levi_civita(h)
    t = [
        [
            [ch.gamma[i][j][k] - cg.gamma[i][j][k] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    zero = RationalFunction(MultiPoly.zero(g.nvars))
    return ObstructionTensor(n, t, raise_obstruction(g, h, t, zero))


def mokhov_identities(raised, T, dRaised, gamma_g, gamma_h, n: int, red):
    """Mokhov's obstruction identities T1..T5 on the raised obstruction
    tensor R^{ijk} = g^{ir} h^{ks} T^j_{rs} (arXiv 1312.0475, section 2):

        T1  R^{ijk} = R^{kji}
        T2  R^{ijk} + R^{jki} + R^{kij} = 0
        T3  R^{ijs} T^r_{st} = R^{irs} T^j_{st}
        T4  nabla_r R^{ijk} = 0 for the connection gamma_g of g
        T5  nabla_r R^{ijk} = 0 for the connection gamma_h of h

    Written once for every scalar representation: the entries need only +,
    -, * (int 0 included) and truthiness, and ``red`` brings a sum of
    products into canonical form.  ``dRaised(r, i, j, k)`` is the
    representation's d_r R^{ijk}.  Yields (name, stream) in order; a stream
    lazily yields (1-based indices, residual), so a scan can stop at its
    first nonzero residual.  Zero products are skipped."""
    rng = range(n)
    R = raised

    def t1():
        for i in rng:
            for j in rng:
                for k in rng:
                    yield (i + 1, j + 1, k + 1), red(R[i][j][k] - R[k][j][i])

    def t2():
        for i in rng:
            for j in rng:
                for k in rng:
                    yield (i + 1, j + 1, k + 1), red(R[i][j][k] + R[j][k][i] + R[k][i][j])

    def t3():
        for i in rng:
            for j in rng:
                for r in rng:
                    for t in rng:
                        acc = 0
                        for s in rng:
                            if R[i][j][s] and T[r][s][t]:
                                acc = acc + R[i][j][s] * T[r][s][t]
                            if R[i][r][s] and T[j][s][t]:
                                acc = acc - R[i][r][s] * T[j][s][t]
                        yield (i + 1, j + 1, r + 1, t + 1), red(acc)

    def covariant(gm):
        for r in rng:
            for i in rng:
                for j in rng:
                    for k in rng:
                        acc = dRaised(r, i, j, k)
                        for l in rng:
                            if gm[i][r][l] and R[l][j][k]:
                                acc = acc + gm[i][r][l] * R[l][j][k]
                            if gm[j][r][l] and R[i][l][k]:
                                acc = acc + gm[j][r][l] * R[i][l][k]
                            if gm[k][r][l] and R[i][j][l]:
                                acc = acc + gm[k][r][l] * R[i][j][l]
                        yield (r + 1, i + 1, j + 1, k + 1), red(acc)

    yield "T1", t1()
    yield "T2", t2()
    yield "T3", t3()
    yield "T4", covariant(gamma_g)
    yield "T5", covariant(gamma_h)


def lie_derivative_bivector(h, X: list, n: int | None = None) -> PolyMatrix:
    """(Lie_X h)^{ij} = X^s d_s h^{ij} - h^{sj} d_s X^i - h^{is} d_s X^j."""
    hm = h.mat if isinstance(h, LinearMetric) else h
    n = n or hm.rows
    nvars = hm.nvars
    zero = MultiPoly.zero(nvars)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for s in range(n):
                if X[s]:
                    d = hm[i, j].partial(s + 1)
                    if d:
                        acc = acc + X[s] * d
                dXi = X[i].partial(s + 1)
                if hm[s, j] and dXi:
                    acc = acc - hm[s, j] * dXi
                dXj = X[j].partial(s + 1)
                if hm[i, s] and dXj:
                    acc = acc - hm[i, s] * dXj
            row.append(acc)
        rows.append(row)
    return PolyMatrix(rows)
