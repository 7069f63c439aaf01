"""Contravariant metrics that are at most linear in the dependent variables.

A LinearMetric on n components is a symmetric n x n matrix of polynomials
g^{ij} = c^{ij}_k u^k + g0^{ij} of degree <= 1 in u1..un.  The polynomial
ring may carry extra trailing variables (formal family parameters such as
kappa_i or lambda); derivatives and contractions only ever run over the
u-block, so a family statement "for all kappa" is a single polynomial
identity.

An OperatorSpec is the d-tuple of metrics defining a first-order operator
P^{ij} = sum_a ( g^{ij,a} d/dx^a + b^{ij,a}_k u^k_{x^a} ) with the b's the
contravariant Christoffel symbols of the corresponding metric.

Non-degeneracy is decided here, once and exactly.  ``degenerate_at`` takes
the determinant of a matrix's value at one point, in any ``linsolve.Field``;
``pointcheck`` and ``spectral`` reject sample points with it.
``identically_degenerate`` (the check every LinearMetric makes) evaluates
at one seeded integer point over Q: a nonzero value there proves
det g is not the zero polynomial, and only a zero there falls back to the
symbolic (Berkowitz) determinant.  A spec needs no further check on its generic
combination of metrics (see OperatorSpec).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .linsolve import Q, Field, det
from .matrices import PolyMatrix, determinant, matrix_inverse
from .poly import MultiPoly

PROBE_SEED = 0
PROBE_RANGE = 10**6


def probe_point(nvars: int) -> list[Fraction]:
    """The seeded integer point at which ``identically_degenerate`` first
    evaluates a matrix in ``nvars`` variables."""
    rng = random.Random(PROBE_SEED)
    return [Fraction(rng.randint(-PROBE_RANGE, PROBE_RANGE)) for _ in range(nvars)]


def degenerate_at(mat: PolyMatrix, point, F: Field = Q) -> bool:
    """Whether the square polynomial matrix ``mat`` is singular at ``point``
    (coordinates in ``F``): its value there has determinant 0 in ``F``."""
    return not det(mat.at_point(point, F), F)


def identically_degenerate(mat: PolyMatrix) -> bool:
    """Whether det(mat) is the zero polynomial, decided exactly: a nonzero
    value at ``probe_point`` proves it is not; only a zero there is settled
    by the symbolic determinant."""
    return degenerate_at(mat, probe_point(mat.nvars)) and determinant(mat).is_zero()


class LinearMetric:
    """Non-degenerate symmetric bivector, degree <= 1 in the u-block."""

    __slots__ = ("n", "nvars", "mat", "_inv", "_conn", "_derivs")

    def __init__(self, n: int, mat: PolyMatrix, check_nondegenerate: bool = True):
        if mat.rows != n or mat.cols != n:
            raise ValueError("metric matrix must be n x n")
        if mat.nvars < n:
            raise ValueError("polynomial ring smaller than component count")
        for i in range(n):
            for j in range(n):
                e = mat.entries[i][j]
                if not isinstance(e, MultiPoly):
                    raise TypeError("metric entries must be polynomials")
                if e.degree_in_block(n) > 1:
                    raise ValueError(f"entry ({i+1},{j+1}) has degree > 1 in u")
        if not mat.is_symmetric():
            raise ValueError("metric matrix must be symmetric")
        self.n = n
        self.nvars = mat.nvars
        self.mat = mat
        self._inv = None
        self._conn = None
        self._derivs = None
        if check_nondegenerate and identically_degenerate(mat):
            raise ValueError("metric is identically degenerate (det = 0)")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(values: Sequence[Sequence], nvars: int | None = None) -> "LinearMetric":
        n = len(values)
        return LinearMetric(n, PolyMatrix.from_scalars(nvars or n, values))

    @staticmethod
    def from_g0_c(g0: Sequence[Sequence], c, nvars: int | None = None) -> "LinearMetric":
        """Build from constant part g0[i][j] and coefficients c[i][j][k]
        (all 0-based lists of rationals); entries with k > n are dropped."""
        n = len(g0)
        nvars = nvars or n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                p = MultiPoly.const(nvars, g0[i][j])
                for k in range(n):
                    coeff = c[i][j][k]
                    if coeff:
                        p = p + MultiPoly.variable(nvars, k + 1) * Fraction(coeff)
                row.append(p)
            rows.append(row)
        return LinearMetric(n, PolyMatrix(rows))

    @staticmethod
    def antidiagonal(n: int, nvars: int | None = None, sign: int = 1) -> "LinearMetric":
        vals = [[sign if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
        return LinearMetric.constant(vals, nvars)

    # -- cached geometry ---------------------------------------------------

    def inverse(self) -> PolyMatrix:
        """Covariant metric g_{ij} (RationalFunction entries)."""
        if self._inv is None:
            self._inv = matrix_inverse(self.mat)
        return self._inv

    def derivative_matrices(self) -> list[PolyMatrix]:
        """A_k = d g / d u_k for k = 1..n (constant in u)."""
        if self._derivs is None:
            self._derivs = [
                self.mat.map(lambda p, k=k: p.partial(k)) for k in range(1, self.n + 1)
            ]
        return self._derivs

    # -- views ---------------------------------------------------------

    def is_constant(self) -> bool:
        return all(m.is_zero() for m in self.derivative_matrices())

    def u_constant_part(self) -> PolyMatrix:
        """The u-independent part (may still involve formal parameters)."""
        zeros = {k: Fraction(0) for k in range(1, self.n + 1)}
        return self.mat.map(lambda p: p.substitute(zeros))

    def u_linear_part(self) -> PolyMatrix:
        return self.mat - self.u_constant_part()

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.mat.entries[i - 1][j - 1]

    def extended(self, new_nvars: int) -> "LinearMetric":
        m = self.mat.map(lambda p: p.extended(new_nvars))
        lm = LinearMetric(self.n, m, check_nondegenerate=False)
        return lm

    def __eq__(self, other):
        if not isinstance(other, LinearMetric):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __hash__(self):
        return hash((self.n, self.mat))

    def __repr__(self):
        return f"LinearMetric(n={self.n}, {self.mat!r})"


class OperatorSpec:
    """d-tuple of metrics on n components defining a first-order operator.

    The generic combination sum_a c_a g^a of the metrics is never degenerate,
    so it is not checked: det(sum_a c_a g^a) is a polynomial in (c, u) that
    equals det g^1 at c = e_1, and LinearMetric has already shown that
    det g^1 is not the zero polynomial.
    """

    __slots__ = ("n", "d", "nvars", "metrics")

    def __init__(self, metrics: Sequence[LinearMetric]):
        if not metrics:
            raise ValueError("need at least one metric")
        n = metrics[0].n
        nvars = metrics[0].nvars
        for m in metrics:
            if m.n != n or m.nvars != nvars:
                raise ValueError("metrics disagree on n or ring size")
        self.n = n
        self.d = len(metrics)
        self.nvars = nvars
        self.metrics = tuple(metrics)

    @property
    def g(self) -> LinearMetric:
        return self.metrics[0]

    @property
    def gt(self) -> LinearMetric:
        if self.d < 2:
            raise ValueError("operator has a single metric")
        return self.metrics[1]

    def extended(self, new_nvars: int) -> "OperatorSpec":
        return OperatorSpec([m.extended(new_nvars) for m in self.metrics])

    def __repr__(self):
        return f"OperatorSpec(n={self.n}, d={self.d})"
