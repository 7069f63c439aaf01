"""sympy as an independent oracle for the Levi-Civita connection.

``geometry.connection_numerators`` is the one formula for a connection in
``hamop``: ``levi_civita`` and ``pointcheck.PointFrame`` both read Gamma
off it, so comparing the two checks neither.  Here sympy computes the
textbook Christoffel symbols

    Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk})

of the bivector g^{ij}, with g_{lk} = adj_{lk} / det, as polynomial
numerators over det^2, and their partials by the quotient rule; the
contravariant symbols are b^{ij}_k = -g^{is} Gamma^j_{sk}.  At a seeded
sample point they must equal ``levi_civita(m).gamma`` and ``b_upper`` and
their partials, and the frame's int numerators over their denominators:
``gamma`` / (2 det^2), ``dgamma`` / (2 det^3), ``c`` / (2 det D) and
``db`` / (2 det^2 D)."""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hamop import pointcheck as pc  # noqa: E402
from hamop.catalog import get_entry  # noqa: E402
from hamop.geometry import levi_civita  # noqa: E402

from test_pointcheck import _catalog_pair, _small_corpus  # noqa: E402

HALF = sympy.Rational(1, 2)


def _textbook(m, pt):
    """(gamma, dgamma, b, db) of ``m`` at ``pt``: gamma[i][j][k] =
    Gamma^i_{jk} and b[i][j][k] = b^{ij}_k, and dgamma[r, i, j, k] and
    db[r, i, j, k] their partials d_r."""
    n, rng = m.n, range(m.n)
    u = sympy.symbols(f"u1:{m.nvars + 1}")

    def poly(x):
        return sympy.Poly(x, *u, domain=sympy.QQ)

    G = [[poly(sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(u, ex)))
                    for ex, c in x.terms.items()), sympy.Integer(0))) for x in row]
         for row in m.mat.entries]
    M = sympy.Matrix(n, n, lambda i, j: G[i][j].as_expr())
    det = poly(M.det(method="berkowitz"))
    adj = [[poly(x) for x in row] for row in M.adjugate(method="berkowitz").tolist()]
    # det^2 d_j g_{lk}
    dg = [[[adj[l][k].diff(u[j]) * det - adj[l][k] * det.diff(u[j]) for k in rng] for l in rng]
          for j in rng]
    # det^2 Gamma^i_{jk}
    N = [[[sum((G[i][l] * (dg[j][l][k] + dg[k][l][j] - dg[l][j][k]) for l in rng), poly(0)) * HALF
           for k in rng] for j in rng] for i in rng]
    vals = [sympy.Rational(x.numerator, x.denominator) for x in pt]

    def ev(p):
        v = sympy.Rational(p(*vals))
        return Fraction(int(v.p), int(v.q))

    d, dd = ev(det), [ev(det.diff(x)) for x in u]
    Gv = [[ev(x) for x in row] for row in G]
    A = [[[ev(x.diff(v)) for x in row] for row in G] for v in u]
    Nv = [[[ev(x) for x in row] for row in plane] for plane in N]
    gamma = [[[x / d**2 for x in row] for row in plane] for plane in Nv]
    dgamma = {(r, i, j, k): (ev(N[i][j][k].diff(u[r])) * d - 2 * Nv[i][j][k] * dd[r]) / d**3
              for r, i, j, k in itertools.product(rng, repeat=4)}
    b = [[[-sum(Gv[i][s] * gamma[j][s][k] for s in rng) for k in rng] for j in rng] for i in rng]
    db = {(r, i, j, k): -sum(A[r][i][s] * gamma[j][s][k] + Gv[i][s] * dgamma[r, j, s, k] for s in rng)
          for r, i, j, k in dgamma}
    return gamma, dgamma, b, db


def _pairs():
    pairs = _small_corpus(2, 11) + _small_corpus(3, 12)
    return pairs + [_catalog_pair(get_entry(i)) for i in ("mokhov-n3", "thm3-case1", "s22-case1")]


def test_connection_is_the_textbook_christoffel_symbols():
    # the partials of levi_civita's entries are the frame's at the point
    # (test_pointcheck.py::test_q_kernel_is_symbolic)
    for name, g, h in _pairs():
        pt = pc.sample_points(g.nvars, [g, h], seed=7, count=1)[0]
        for m in (g, h):
            gamma, dgamma, b, db = _textbook(m, pt)
            conn, frame = levi_civita(m), pc.PointFrame(m, pt)
            assert [[[x.eval(pt) for x in row] for row in plane] for plane in conn.gamma] == gamma, name
            assert [[[x.eval(pt) for x in row] for row in plane] for plane in conn.b_upper] == b, name
            det, D, rng = frame.det, frame.D, range(m.n)
            assert [[[Fraction(x, 2 * det**2) for x in frame.gamma[i][j]] for j in rng]
                    for i in rng] == gamma, name
            assert [[[Fraction(x, 2 * det * D) for x in row] for row in plane]
                    for plane in frame.c] == b, name
            for idx in dgamma:
                assert Fraction(frame.dgamma(*idx), 2 * det**3) == dgamma[idx], (name, "dgamma", idx)
                assert Fraction(frame.db(*idx), 2 * det**2 * D) == db[idx], (name, "db", idx)
