"""Symbolic differential geometry of linear metrics.

Levi-Civita connections (and ``constant_connection``, the contravariant
connection of a metric whose connection is constant), flatness, Nijenhuis
torsion, the Killing residual in its polynomial form,
second-covariant-derivative (linearity) residuals, obstruction tensors, the
obstruction identities T1..T5 and Lie derivatives of bivectors.  Everything
is exact: entries are MultiPoly or RationalFunction, and a condition
"holds" iff the residual is identically zero.  A metric's integer form,
its coefficient arrays D m = M0 + u_s M_s (``LinearMetric.arrays``, from
``metrics.coefficient_arrays``), has int entries (integer-coefficient
polynomials in the formal parameters, where they occur).  For a constant
metric and a linear one every condition is an identity among these
constants, and so is every condition of a pair whose linear metric has a
constant contravariant connection (``constant_connection``,
``contravariant_derivative``) and whose other metric is constant;
``verify``'s proofs check them in int arithmetic.

``mokhov_identities`` states T1..T5 for a constant metric g on the
contravariant Christoffel symbols b^{ij}_k = -h^{is} Gamma~^j_{sk} of h
(``connection_numerators``) and R^{ijk} = -g^{ir} b^{kj}_r
(``raised_obstruction``).  Mokhov's T3 and T5 are contracted with the
invertible h there, by the two identities

    T^r_{st} h^{tm} = -b^{mr}_s,    h^{mr} Gamma~^i_{rl} = -b^{mi}_l,

which hold because T = Gamma~ for constant g.  ``obstruction_tensor``
keeps the paper's uncontracted form for any pair, as a reference.

Each verification condition is stated once, as a lazy stream of
(1-based indices, residual) that works for every exact scalar
representation (ints, Fractions, MultiPoly, RationalFunction):
``riemann_components`` (flatness), ``nijenhuis_components``,
``killing_components``, ``hessian_components`` (linearity) and
``mokhov_identities`` (T1..T5).  The caller passes the entries and their
derivatives; ``covariant_hessian``, ``nijenhuis_stream`` and
``killing_stream`` run the symbolic streams lazily (``verify`` reads them
only for a bivector that is not linear in u), ``nijenhuis_torsion`` and
``killing_residual`` fill whole tensors from them, ``pointcheck`` feeds
them int numerators at each integer point of a scan and polynomial
numerators at the generic point, the last point of every scan
(``flatness_witness`` is its curvature check there), and ``families``
derivatives whose entries are the unknowns themselves.
Sparsity has one idiom: a stream that contracts over the rows or columns
of an array lists the nonzero entries of each once, as (index, entry)
pairs, and its sums run over those lists (``nijenhuis_components`` over
L's columns and rows, ``killing_components`` over g's and h's rows);
elsewhere a product is skipped when a factor is zero.  Every stream of
``mokhov_identities`` and ``riemann_components`` lists only its nonzero
components: T3, T5 and a curvature with no derivative term sum the
products of nonzero entries into one dict per block of leading indices
(``_blocks``), and derivatives are read one component at a time; the
torsion check of ``constant_connection`` sums them into one dict per H_s.
``nijenhuis_components`` and ``killing_components`` list every
component: ``verify._decide`` reads them in lockstep.  On a constant
connection d R = 0, and ``mokhov_identities`` and ``riemann_components``
take None for the derivative and skip its terms.  Each sum adds its nonzero terms in the
order of the summed index.

Index conventions: public tensors are returned as nested 0-based lists;
contractions always run over the u-block 1..n, never over trailing formal
parameter variables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linsolve import mat_mul
from .matrices import PolyMatrix, adjugate_det
from .metrics import LinearMetric
from .poly import MultiPoly, RationalFunction

HALF = Fraction(1, 2)


@dataclass
class Connection:
    """Levi-Civita data of the metric ``mat``: Christoffel symbols and
    contravariant symbols, both read off ``connection_numerators``.

    gamma[i][j][k] = Gamma^i_{jk} (symmetric in j,k);
    b_upper[i][j][k] = b^{ij}_k = -g^{is} Gamma^j_{sk}, built on first read.

    For non-constant metrics the polynomial numerator
    c = connection_numerators of g, that is 2 det b, is kept alongside.
    """

    n: int
    gamma: list
    mat: PolyMatrix
    det: MultiPoly | None = None
    c: list | None = None

    @functools.cached_property
    def b_upper(self) -> list:
        if self.c is None:  # constant metric
            zero = RationalFunction(MultiPoly.zero(self.mat.nvars))
            return [[[zero] * self.n for _ in range(self.n)] for _ in range(self.n)]
        det = self.det
        det2 = det * det
        return [[[RationalFunction(det * x * HALF, det2, base=det) for x in row]
                 for row in plane] for plane in self.c]


def levi_civita(g: LinearMetric) -> Connection:
    """Connection of a non-degenerate linear metric, exact rational entries.

    With adj, det = adj(g), det(g) and A_s = d_s g, c =
    ``connection_numerators`` of g on f[s] = A_s adj is 2 det b, and
    Gamma^j_{sk} = -g_{si} b^{ij}_k = P^j_{sk} / det^2 with the polynomial
    numerator P^j_{sk} = -adj_{si} c^{ij}_k / 2.  So each entry is
    normalized exactly once, over the shared denominator det^2; for passing
    families the trial division inside the normalization collapses it."""
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
    c = connection_numerators(g.mat.entries, [(a @ adj).entries for a in derivs],
                              [a.entries for a in derivs], det)
    det2 = det * det
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for s in range(n):
            row = adj.entries[s]
            for k in range(s, n):
                num = sum((x * c[i][j][k] for i, x in enumerate(row) if x and c[i][j][k]),
                          MultiPoly.zero(nvars)) * -HALF
                gamma[j][s][k] = gamma[j][k][s] = RationalFunction(num, det2, base=det)
    conn = Connection(n, gamma, g.mat, det=det, c=c)
    g._conn = conn
    return conn


def constant_connection(h: LinearMetric, u0):
    """(c, den) with c[i][j][k] / den = b^{ij}_k = -h^{is} Gamma^j_{sk}, the
    contravariant Levi-Civita connection of h, when it does not depend on u;
    else None.  c and den are ints, or integer-coefficient polynomials in
    h's formal parameters.  Everything runs on the coefficient arrays
    D h = H0 + u_s H_s (``LinearMetric.arrays``).  The candidate is
    ``connection_numerators`` of D h at the integer point u0 of the u-block,
    from one adjugate of D h(u0) (the parameters stay symbolic).  d h is
    constant, so it is metric-compatible, b^{ij}_k + b^{ji}_k = d_k h^{ij},
    at every u.  The result rests only on the torsion-free identity
    h^{is} b^{jk}_s = h^{js} b^{ik}_s, which is affine in u and so is checked
    on each H_s (at u0 it holds by construction): with it the candidate is
    the connection, which is unique.  The check sums the products of the
    nonzero entries of H_s and c into one dict keyed (i, j, k), and it holds
    iff that dict is symmetric in i, j.  The connection of D h is D b, as
    Gamma does not change when h is scaled."""
    n, rng = h.n, range(h.n)
    if any(x.denominator != 1 for x in u0[:n]):
        raise ValueError("constant_connection needs an integer point")
    D, (_, *dH) = h.arrays
    h0 = h.affine().at([x.numerator for x in u0[:n]])
    adj, det = adjugate_det(h0)
    if not det:
        return None
    c = connection_numerators(h0, [mat_mul(m, adj) for m in dH], dH, det)
    # torsion-free: p[i, j, k] = H^{it} c^{jk}_t is symmetric in i, j; not on H0: c is
    # h's connection at u0, so it holds there, and H0 = D h(u0) - u0_t H_t.
    # by_t[t]: the (j, k, c^{jk}_t) with c^{jk}_t != 0
    by_t = [[(j, k, x) for j in rng for k in rng if (x := c[j][k][t])] for t in rng]
    for m in dH:
        p = {}
        for i, row in enumerate(m):
            for t, y in enumerate(row):
                if y:
                    for j, k, x in by_t[t]:
                        p[i, j, k] = p.get((i, j, k), 0) + y * x
        if any(v != p.get((j, i, k), 0) for (i, j, k), v in p.items()):
            return None
    return c, 2 * det * D


def connection_numerators(h0, f, dh, det):
    """c[i][j][k] = det d_k h^{ij} + e^{ij}_k - e^{ji}_k with
    e^{ij}_k = h0^{is} f[s][j][k]; ``dh[s][a][b]`` = d_s h^{ab}.  For
    h0 = h(u) and f[s] = d_s h inv, inv = det h0^{-1}, it is 2 det b^{ij}_k,
    the contravariant Christoffel symbols b^{ij}_k = -h^{is} Gamma^j_{sk} of
    h at u:

        2 b^{ij}_k = d_k h^{ij} + h^{is} d_s h^{jq} h_{qk} - h^{js} d_s h^{iq} h_{qk}.

    It is the one formula for a Levi-Civita connection: ``levi_civita``,
    ``constant_connection`` and ``pointcheck``'s frames read theirs off it."""
    n = len(h0)
    rng = range(n)
    # e[i][j n + k] = e^{ij}_k
    e = mat_mul(h0, [[x for row in fs for x in row] for fs in f])
    return [[[det * dh[k][i][j] + e[i][j * n + k] - e[j][i * n + k] for k in rng]
             for j in rng] for i in rng]


def contravariant_derivative(g, dT, b, T, n: int) -> dict:
    """nabla^a T = g^{ar} d_r T - sum over the slots p of T of
    b^{a i_p}_m T[... m ...], for the contravariant connection
    b[i][j][k] = b^{ij}_k of g, as a sparse dict (a, *idx) -> nonzero entry.
    T and each dT[r] = d_r T are such dicts, keyed by 0-based index tuples;
    g[a][r] = g^{ar}.  Since g^{ar} Gamma^i_{rm} = -b^{ai}_m, it is
    g^{ar} nabla_r T.  Entries need only +, -, * (int 0 included)."""
    rng = range(n)
    out = {}
    for r, dTr in enumerate(dT):
        col = [(a, g[a][r]) for a in rng if g[a][r]]
        for idx, v in dTr.items():
            for a, x in col:
                out[(a, *idx)] = out.get((a, *idx), 0) + x * v
    by_m = [[(a, i, b[a][i][m]) for a in rng for i in rng if b[a][i][m]] for m in rng]
    for idx, v in T.items():
        for p, m in enumerate(idx):
            for a, i, x in by_m[m]:
                key = (a, *idx[:p], i, *idx[p + 1:])
                out[key] = out.get(key, 0) - x * v
    return {k: v for k, v in out.items() if v}


def raised_obstruction(g, b, n: int) -> list:
    """R^{ijk} = -g^{ir} b^{kj}_r, the raised obstruction tensor
    g^{ir} h^{ks} T^j_{rs} of a constant metric g (T = Gamma~, and
    h^{ks} Gamma~^j_{sr} = -b^{kj}_r); g[i][r] = g^{ir}, b[i][j][k] = b^{ij}_k."""
    rng = range(n)
    # gb[i][k n + j] = g^{ir} b^{kj}_r
    gb = mat_mul(g, [[b[k][j][r] for k in rng for j in rng] for r in rng])
    return [[[-gb[i][k * n + j] for k in rng] for j in rng] for i in rng]


def _blocks(block, n: int, jet=None):
    """Lazily, (1-based indices, value) of the nonzero components of a rank-4
    stream in lexicographic order, from ``block(a, b)``, a dict (k, l) -> the
    sum of products of the block of leading indices (a, b).  With ``jet``,
    each component of a block in turn is jet(a, b, k, l) plus that sum."""
    rng = range(n)
    for a, b in itertools.product(rng, rng):
        acc = block(a, b)
        for k, l in sorted(acc) if jet is None else itertools.product(rng, rng):
            if v := (jet(a, b, k, l) if jet else 0) + acc.get((k, l), 0):
                yield (a + 1, b + 1, k + 1, l + 1), v


def _partials(m: PolyMatrix, n: int, lift=lambda x: x) -> list:
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


def riemann_components(gamma, d_gamma, n: int):
    """R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj} for k < l (R is
    antisymmetric in k, l), lazily as (1-based indices, residual) of its
    nonzero components in lexicographic order; ``d_gamma(r, i, j, k)`` is
    d_r Gamma^i_{jk}, or None when Gamma is constant.

    With no derivative term the products of nonzero entries are summed into
    one dict per block (i, j) (``_blocks``).  With one (point frames, the
    generic point) each component is read in turn, products included: the
    frames build Gamma rows and d Gamma entries as they are read, so a hit
    builds no jet past it.  This is the one statement with both reads.

    Like every stream below (and ``mokhov_identities``) it is written once
    for every exact scalar representation: entries need only +, -, * (int 0
    included) and truthiness, and zero products are skipped."""
    rng = range(n)
    if d_gamma is None:
        # cols[a][b]: the (k, Gamma^a_{kb}) with Gamma^a_{kb} != 0
        cols = [[[(k, x) for k in rng if (x := gamma[a][k][b])] for b in rng] for a in rng]

        def block(i, j):
            acc = {}
            for s in rng:
                for k, x in cols[i][s]:
                    for l, y in cols[s][j]:
                        if k < l:
                            acc[k, l] = acc.get((k, l), 0) + x * y
                        elif l < k:
                            acc[l, k] = acc.get((l, k), 0) - x * y
            return acc

        yield from _blocks(block, n)
        return
    for i, j, k in itertools.product(rng, rng, rng):
        for l in range(k + 1, n):
            acc = d_gamma(k, i, l, j) - d_gamma(l, i, k, j)
            for s in rng:
                if gamma[i][k][s] and gamma[s][l][j]:
                    acc = acc + gamma[i][k][s] * gamma[s][l][j]
                if gamma[i][l][s] and gamma[s][k][j]:
                    acc = acc - gamma[i][l][s] * gamma[s][k][j]
            if acc:
                yield (i + 1, j + 1, k + 1, l + 1), acc


def nijenhuis_components(L, dL, n: int):
    """N^k_{ij} = L^s_i d_s L^k_j - L^s_j d_s L^k_i
    + L^k_s (d_j L^s_i - d_i L^s_j) for i < j (N is antisymmetric in i, j);
    L[a][b] = L^a_b and dL[s][a][b] = d_s L^a_b.  Each term has a factor
    L^s_i, L^s_j or L^k_s, so each sum runs over the nonzero entries of
    column i, column j and row k of L, in that order and each in the order
    of s: a component adds its L^s_i, then its L^s_j, then its L^k_s terms.
    Every component is listed, zero ones included."""
    rng = range(n)
    # cols[i]: the (s, L^s_i) with L^s_i != 0; rows[k]: the (s, L^k_s) with L^k_s != 0
    cols = [[(s, x) for s in rng if (x := L[s][i])] for i in rng]
    rows = [[(s, x) for s in rng if (x := L[k][s])] for k in rng]
    for k in rng:
        for i in rng:
            for j in range(i + 1, n):
                acc = 0
                for s, x in cols[i]:
                    if d := dL[s][k][j]:
                        acc = acc + x * d
                for s, x in cols[j]:
                    if d := dL[s][k][i]:
                        acc = acc - x * d
                for s, x in rows[k]:
                    if d := dL[j][s][i] - dL[i][s][j]:
                        acc = acc + x * d
                yield (k + 1, i + 1, j + 1), acc


def killing_components(g, dg, h, dh, n: int):
    """Killing residual of the symmetric bivectors g, h for i <= j <= k (it
    is fully symmetric):

        g^{is} d_s h^{jk} + g^{js} d_s h^{ik} + g^{ks} d_s h^{ij}
      - h^{is} d_s g^{jk} - h^{js} d_s g^{ik} - h^{ks} d_s g^{ij},

    with dg[s][a][b] = d_s g^{ab} and dh likewise.  The sums run over the
    nonzero entries of g's and h's rows: a component adds, for each of its
    three slots in turn, its g dh terms and then its h dg terms, each in the
    order of s.  Every component is listed, zero ones included."""
    rng = range(n)
    # grows[a]: the (s, g^{as}) with g^{as} != 0; hrows[a] likewise for h
    grows = [[(s, x) for s, x in enumerate(row) if x] for row in g]
    hrows = [[(s, x) for s, x in enumerate(row) if x] for row in h]
    for i in rng:
        for j in range(i, n):
            for k in range(j, n):
                acc = 0
                for a, b, c in ((i, j, k), (j, i, k), (k, i, j)):
                    for s, x in grows[a]:
                        if d := dh[s][b][c]:
                            acc = acc + x * d
                    for s, x in hrows[a]:
                        if d := dg[s][b][c]:
                            acc = acc - x * d
                yield (i + 1, j + 1, k + 1), acc


def hessian_components(gamma, h, dh, dC, n: int):
    """(nabla_r nabla_s h)^{ij} of a bivector h for the connection gamma:

        C[s]^{ij} = d_s h^{ij} + Gamma^i_{sm} h^{mj} + Gamma^j_{sm} h^{im}
        (nabla_r C[s])^{ij} = d_r C[s]^{ij} + Gamma^i_{rm} C[s]^{mj}
            + Gamma^j_{rm} C[s]^{im} - Gamma^m_{rs} C[m]^{ij}

    with dh[s][i][j] = d_s h^{ij} and ``dC(C, r, s, i, j)`` = d_r C[s]^{ij},
    where the callable C passed to dC gives the memoised C[s]^{ij} as
    C(s, i, j)."""
    rng = range(n)

    @functools.cache
    def C(s, i, j):
        acc = dh[s][i][j]
        for m in rng:
            if gamma[i][s][m] and h[m][j]:
                acc = acc + gamma[i][s][m] * h[m][j]
            if gamma[j][s][m] and h[i][m]:
                acc = acc + gamma[j][s][m] * h[i][m]
        return acc

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
                    yield (r + 1, s + 1, i + 1, j + 1), acc


def flatness_witness(g: LinearMetric):
    """None when g is flat, else ((i,j,k,l), residual) at the first failing
    index tuple in lexicographic order (1-based indices): ``pointcheck``'s
    ``flat_at`` at the generic point (``PointFrame(g, None)``), whose
    curvature numerators 4 det^4 R (det = det(D g)) are polynomials computed
    lazily, so a non-flat metric is rejected at its first nonzero one; its
    residual is that numerator over 4 det^4, reduced."""
    from .pointcheck import PointFrame, flat_at  # pointcheck builds on this module

    return flat_at(PointFrame(g, None))


def nijenhuis_stream(L: PolyMatrix, n: int):
    """Lazy (1-based indices, residual) stream of the Nijenhuis torsion of
    L (``nijenhuis_components``), with L's entry type."""
    return nijenhuis_components(L.entries, _partials(L, n), n)


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
    return killing_components(gm.entries, _partials(gm, n), hm.entries, _partials(hm, n), n)


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
        gamma, dh = [[[0] * n for _ in range(n)] for _ in range(n)], _partials(h, n)
    else:
        gamma, dh = levi_civita(g).gamma, _partials(h, n, RationalFunction)
    return hessian_components(gamma, h.entries, dh, _partial_of_c, n)


@dataclass
class ObstructionTensor:
    """T^i_{jk} = Gamma~^i_{jk} - Gamma^i_{jk} and its raised form
    T^{ijk} = g^{ir} h^{ks} T^j_{rs}."""

    n: int
    t: list         # t[i][j][k], RationalFunction
    t_raised: list  # t_raised[i][j][k], RationalFunction


def obstruction_tensor(g: LinearMetric, h: LinearMetric) -> ObstructionTensor:
    """The obstruction tensor of (g, h) as the paper defines it, for any
    pair of metrics; ``mokhov_identities`` reads it, for constant g, through
    the contravariant connection of h (``raised_obstruction``)."""
    rng = range(g.n)
    cg, ch = levi_civita(g).gamma, levi_civita(h).gamma
    t = [[[ch[i][j][k] - cg[i][j][k] for k in rng] for j in rng] for i in rng]
    gm, hm = g.mat.entries, h.mat.entries
    zero = RationalFunction(MultiPoly.zero(g.nvars))
    raised = [[[sum((gm[i][r] * hm[k][s] * t[j][r][s] for r in rng for s in rng
                     if gm[i][r] and hm[k][s] and t[j][r][s]), zero)
                for k in rng] for j in rng] for i in rng]
    return ObstructionTensor(g.n, t, raised)


T_NAMES = ("T1", "T2", "T3", "T4", "T5")


def mokhov_identities(R, dR, b, h, n: int):
    """Mokhov's obstruction identities T1..T5 (arXiv 1312.0475, section 2)
    for a constant metric g and a metric h, on the contravariant
    Christoffel symbols b[i][j][k] = b^{ij}_k = -h^{is} Gamma~^j_{sk} of h
    and the raised obstruction tensor R^{ijk} = -g^{ir} b^{kj}_r
    (``raised_obstruction``):

        T1  R^{ijk} - R^{kji}
        T2  R^{ijk} + R^{jki} + R^{kij}
        T3  R^{irs} b^{mj}_s - R^{ijs} b^{mr}_s
        T4  d_r R^{ijk}
        T5  h^{mr} d_r R^{ijk} - b^{mi}_l R^{ljk} - b^{mj}_l R^{ilk}
            - b^{mk}_l R^{ijl}

    each of which must vanish.  With g constant, nabla R = d R, and T3 and
    T5 are Mokhov's R^{ijs} T^r_{st} = R^{irs} T^j_{st} and
    nabla~_r R^{ijk} = 0 contracted with the invertible h (module
    docstring), so they vanish iff those do.

    Written once for every exact scalar representation: the entries need
    only +, -, * (int 0 included) and truthiness.  ``dR(r, i, j, k)`` is
    the representation's d_r R^{ijk}, or None when R is constant (on a
    constant connection), and h[m][r] = h^{mr}, read only when dR is
    given (None will do otherwise).  Yields (name, stream) in order; a
    stream lazily yields (1-based indices, residual) of its nonzero
    components in lexicographic order, so a scan stops at its first one.
    T3 and T5 read only the nonzero entries of their factors, and sum the
    products into one dict per block of leading indices, (i, j) for T3 and
    (m, i) for T5 (``_blocks``).  T5's h^{mr} d_r R^{ijk} is read per
    component after its block's products, so a hit reads no d R past it."""
    rng = range(n)
    ijk = list(itertools.product(rng, repeat=3))
    t1 = (((i + 1, j + 1, k + 1), v) for i, j, k in ijk if (v := R[i][j][k] - R[k][j][i]))
    t2 = (((i + 1, j + 1, k + 1), v) for i, j, k in ijk
          if (v := R[i][j][k] + R[j][k][i] + R[k][i][j]))
    t4 = iter(()) if dR is None else ((tuple(x + 1 for x in idx), v) for idx in
                                itertools.product(rng, repeat=4) if (v := dR(*idx)))
    # the nonzero entries: rc[i][s] the (r, R^{irs}), rrows[i][l] the (k, R^{ilk}),
    # rplanes[l] the ((j, k), R^{ljk}), bcols[j][s] the (m, b^{mj}_s), brows[m][l]
    # the (j, b^{mj}_l), bslices[s] the ((r, m), b^{mr}_s), h_rows[m] the (r, h^{mr})
    rc = [[[(r, x) for r in rng if (x := R[i][r][s])] for s in rng] for i in rng]
    rrows = [[[(k, x) for k, x in enumerate(row) if x] for row in plane] for plane in R]
    rplanes = [[((j, k), x) for j in rng for k in rng if (x := R[l][j][k])] for l in rng]
    bcols = [[[(m, y) for m in rng if (y := b[m][j][s])] for s in rng] for j in rng]
    brows = [[[(j, y) for j in rng if (y := b[m][j][l])] for l in rng] for m in rng]
    bslices = [[((r, m), y) for r in rng for m in rng if (y := b[m][r][s])] for s in rng]
    h_rows = dR and [[(r, x) for r, x in enumerate(row) if x] for row in h]

    def t3(i, j):
        # (r, m) -> the sum over s of R^{irs} b^{mj}_s - R^{ijs} b^{mr}_s
        acc = {}
        for s in rng:
            for r, x in rc[i][s]:
                for m, y in bcols[j][s]:
                    acc[r, m] = acc.get((r, m), 0) + x * y
            if x := R[i][j][s]:
                for key, y in bslices[s]:
                    acc[key] = acc.get(key, 0) - x * y
        return acc

    def t5(m, i):
        # (j, k) -> minus the sum over l of
        # b^{mi}_l R^{ljk} + b^{mj}_l R^{ilk} + b^{mk}_l R^{ijl}
        acc = {}
        for l in rng:
            if y := b[m][i][l]:
                for key, x in rplanes[l]:
                    acc[key] = acc.get(key, 0) - y * x
            for j, y in brows[m][l]:
                for k, x in rrows[i][l]:
                    acc[j, k] = acc.get((j, k), 0) - y * x
            for k, y in brows[m][l]:
                for j, x in rc[i][l]:
                    acc[j, k] = acc.get((j, k), 0) - y * x
        return acc

    def h_term(m, i, j, k):
        # h^{mr} d_r R^{ijk}, read one component at a time
        acc = 0
        for r, x in h_rows[m]:
            if d := dR(r, i, j, k):
                acc = acc + x * d
        return acc

    yield from zip(T_NAMES, (t1, t2, _blocks(t3, n), t4, _blocks(t5, n, dR and h_term)))


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
