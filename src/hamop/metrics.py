"""Contravariant metrics that are at most linear in the dependent variables.

A LinearMetric on n components is a symmetric n x n matrix of polynomials
g^{ij} = c^{ij}_k u^k + g0^{ij} of degree <= 1 in u1..un.  The polynomial
ring may carry extra trailing variables (formal family parameters such as
kappa_i or lambda); derivatives and contractions only ever run over the
u-block, so a family statement "for all kappa" is a single polynomial
identity.

Each LinearMetric has one integer form, its coefficient arrays
``(D, [M0, M1, ..., Mn])`` with D g = M0 + u_s M_s (``coefficient_arrays``):
int entries, or integer-coefficient polynomials in the formal parameters
where they occur.  The spec loader builds them straight from the file's
constant and linear parts (``from_g0_c``), and such a metric builds its
matrix of polynomials (``mat``) only on first read; a metric built from a
matrix computes its arrays on first read.  Every integer consumer reads them:
``is_constant``, point values (``jets_at``: G = D g(pt) and A[s] = D d_s g,
which ``pointcheck``'s frames and ``degenerate_at`` read), the value at an
integer u with the parameters kept (``affine().at``, for
``geometry.constant_connection``), the adjugate of a constant metric
(``constant_adjugate``, and g^-1 from it, ``constant_inverse_parts``), and
``verify``'s proofs and ``spectral``'s affinor.

An OperatorSpec is the d-tuple of metrics defining a first-order operator
P^{ij} = sum_a ( g^{ij,a} d/dx^a + b^{ij,a}_k u^k_{x^a} ) with the b's the
contravariant Christoffel symbols of the corresponding metric.

Non-degeneracy is decided here, once and exactly, over Z.  ``degenerate_at``
takes the integer matrix D m(pt) at an integer point and compares its
fraction-free Bareiss rank (``linsolve.int_rank``) with n: a metric's from its
arrays, with the rank of a constant parameter-free metric decided once (its
value does not depend on the point), and any other square matrix's from
``PolyMatrix.int_at``.  ``pointcheck`` and ``spectral`` reject sample points
with it.  ``identically_degenerate`` (the check every LinearMetric makes)
evaluates at one seeded integer point (``probe_point``, int coordinates): a
nonzero value there proves det g is not the zero polynomial, and only a zero
there falls back to the symbolic (Berkowitz) determinant, the one place it
reads ``mat``.  A spec needs no further check on its generic
combination of metrics (see OperatorSpec).
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import FirstMetricNotConstant, IdenticallySingular
from .linsolve import int_rank
from .matrices import PolyMatrix, adjugate_det, determinant, matrix_inverse
from .poly import MultiPoly

PROBE_SEED = 0
PROBE_RANGE = 10**6


@functools.cache
def probe_point(nvars: int) -> tuple[int, ...]:
    """The seeded integer point, as ints, at which ``identically_degenerate``
    first evaluates a matrix in ``nvars`` variables; drawn once per
    ``nvars``."""
    rng = random.Random(PROBE_SEED)
    return tuple(rng.randint(-PROBE_RANGE, PROBE_RANGE) for _ in range(nvars))


def coefficient_arrays(m: PolyMatrix, n: int):
    """(D, [M0, M1, ..., Mn]) with D m = M0 + u1 M1 + ... + un Mn, D the
    lcm of the entries' coefficient denominators, or None when an entry has
    degree > 1 in the u-block.  The arrays' entries are free of u: ints, or
    integer-coefficient MultiPolys where an entry involves the formal
    parameters.  So d_s m = M_(s+1) / D, and every condition of a constant
    metric and a linear one is an identity among these constants."""
    split = [[p.affine_parts(n) for p in row] for row in m.entries]
    if any(x is None for row in split for x in row):
        return None
    D = lcm(*(den for row in split for den, _ in row))
    return D, [[[parts[k] * (D // den) for den, parts in row] for row in split]
               for k in range(n + 1)]


def int_value(x, u) -> int:
    """An array entry at the integer point u: an int as it is, an
    integer-coefficient polynomial in the formal parameters evaluated there."""
    return x if isinstance(x, int) else x.int_eval(u)[0]


def int_point(point) -> list[int]:
    """An integer point's coordinates (ints or Fractions) as ints."""
    if any(x.denominator != 1 for x in point):
        raise ValueError("a point value needs a point with integer coordinates")
    return [x.numerator for x in point]


class AffineArrays:
    """Coefficient arrays [M0, M1, ..., Mk] of an integer matrix form
    M0 + u1 M1 + ... + uk Mk, with the nonzero entries of each M_s listed
    once.  Entries are ints, or integer-coefficient polynomials in the
    formal parameters (``symbolic``).  It is the one point evaluation of
    metrics (``LinearMetric.jets_at``) and of the Segre affinor
    (``spectral.IntegerAffinor``)."""

    __slots__ = ("arrays", "terms", "symbolic")

    def __init__(self, arrays):
        self.arrays = arrays
        M0, *M = arrays
        terms = [(s, [(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x])
                 for s, m in enumerate(M)]
        self.terms = [t for t in terms if t[1]]
        # a zero entry is the int 0, so only the nonzero ones can be polynomials
        self.symbolic = any(type(x) is not int for row in M0 for x in row) or any(
            type(x) is not int for _, entries in self.terms for _, _, x in entries)

    def at(self, u) -> list[list]:
        """M0 + u_s M_s at the integer values u of u1..uk, with the formal
        parameters kept; only the nonzero entries of the M_s are read."""
        M0 = self.arrays[0]
        if not self.terms:
            return M0
        out = [row[:] for row in M0]
        for s, entries in self.terms:
            x = u[s]
            if x:
                for i, j, v in entries:
                    out[i][j] += x * v
        return out

    def evaluate(self, m, u) -> list[list[int]]:
        """The int matrix of ``m`` (one of the arrays, or a value of the
        form) at the integer point u: entries in the formal parameters are
        evaluated there (``MultiPoly.int_eval``), ints are read as they are."""
        if not self.symbolic:
            return m
        return [[int_value(x, u) for x in row] for row in m]

    def int_at(self, point) -> list[list[int]]:
        """The int matrix M0 + u_s M_s at an integer point (ints or
        Fractions, one coordinate per ring variable)."""
        u = int_point(point)
        return self.evaluate(self.at(u), u)


def degenerate_at(m, point) -> bool:
    """Whether the square matrix ``m``, a LinearMetric (read on its
    coefficient arrays) or a polynomial matrix, is singular at the integer
    point ``point``: the integer matrix D m(point) has rank < n."""
    if isinstance(m, LinearMetric):
        return m.degenerate_at(point)
    return int_rank(m.int_at(point)[0]) < m.rows


def identically_degenerate(m) -> bool:
    """Whether det(m) is the zero polynomial, decided exactly for a
    LinearMetric or a polynomial matrix: a nonzero value at ``probe_point``
    proves it is not; only a zero there is settled by the symbolic
    determinant."""
    return degenerate_at(m, probe_point(m.nvars)) and determinant(
        m.mat if isinstance(m, LinearMetric) else m).is_zero()


class LinearMetric:
    """Non-degenerate symmetric bivector, degree <= 1 in the u-block."""

    __slots__ = ("n", "nvars", "_mat", "_inv", "_conn", "_derivs", "_arrays", "_affine",
                 "_adj0")

    def __init__(self, n: int, mat: PolyMatrix | None, check_nondegenerate: bool = True,
                 arrays=None, nvars: int | None = None):
        """``arrays``, when given, are the matrix's ``coefficient_arrays``;
        otherwise they are computed on first read.  A metric given by its
        arrays alone (``mat`` None, in ``nvars`` ring variables) builds its
        matrix on first read of ``mat``."""
        if mat is not None:
            if mat.rows != n or mat.cols != n:
                raise ValueError("metric matrix must be n x n")
            nvars = mat.nvars
        if nvars < n:
            raise ValueError("polynomial ring smaller than component count")
        if mat is None:
            rng = range(n)
            if any(m[i][j] != m[j][i] for m in arrays[1] for i in rng for j in range(i + 1, n)):
                raise ValueError("metric matrix must be symmetric")
        else:
            for i in range(n):
                for j in range(n):
                    e = mat.entries[i][j]
                    if not isinstance(e, MultiPoly):
                        raise TypeError("metric entries must be polynomials")
                    # given arrays already write the entry as affine in u
                    if arrays is None and e.degree_in_block(n) > 1:
                        raise ValueError(f"entry ({i+1},{j+1}) has degree > 1 in u")
            if not mat.is_symmetric():
                raise ValueError("metric matrix must be symmetric")
        self.n = n
        self.nvars = nvars
        self._mat = mat
        self._inv = None
        self._conn = None
        self._derivs = None
        self._arrays = arrays
        self._affine = None
        self._adj0 = None
        if check_nondegenerate and identically_degenerate(mat if arrays is None else self):
            raise ValueError("metric is identically degenerate (det = 0)")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(values: Sequence[Sequence], nvars: int | None = None) -> "LinearMetric":
        n = len(values)
        return LinearMetric(n, PolyMatrix.from_scalars(nvars or n, values))

    @staticmethod
    def from_g0_c(g0: Sequence[Sequence], c, nvars: int | None = None) -> "LinearMetric":
        """Build from constant part g0[i][j] and coefficients c[i][j][k]
        (0-based lists of rationals p/q given as int pairs (p, q), q > 0, as
        ``scalars.parse_ratio`` reads them).  The coefficient arrays come
        straight from them, in int arithmetic; the polynomial matrix is
        built on first read of ``mat``."""
        n = len(g0)
        parts = [[[g0[i][j], *c[i][j][:n]] for j in range(n)] for i in range(n)]
        D = lcm(*(q for row in parts for entry in row for _, q in entry))
        ints = [[[p * (D // q) for p, q in entry] for entry in row] for row in parts]
        arrays = [[[entry[k] for entry in row] for row in ints] for k in range(n + 1)]
        return LinearMetric(n, None, arrays=(D, arrays), nvars=nvars or n)

    @staticmethod
    def antidiagonal(n: int, nvars: int | None = None, sign: int = 1) -> "LinearMetric":
        vals = [[sign if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
        return LinearMetric.constant(vals, nvars)

    @property
    def mat(self) -> PolyMatrix:
        """The matrix of polynomials g^{ij}, memoised: a metric given by its
        coefficient arrays builds it from them."""
        if self._mat is None:
            D, M = self._arrays
            rng = range(self.n)
            self._mat = PolyMatrix([
                [MultiPoly.from_affine_parts(self.nvars, D, [m[i][j] for m in M]) for j in rng]
                for i in rng])
        return self._mat

    # -- the integer form ------------------------------------------------

    @property
    def arrays(self):
        """(D, [M0, M1, ..., Mn]) with D g = M0 + u_s M_s
        (``coefficient_arrays``), memoised."""
        if self._arrays is None:
            self._arrays = coefficient_arrays(self.mat, self.n)
        return self._arrays

    def affine(self) -> AffineArrays:
        """The arrays M0, ..., Mn with their nonzero entries indexed,
        memoised."""
        if self._affine is None:
            self._affine = AffineArrays(self.arrays[1])
        return self._affine

    def is_constant(self) -> bool:
        return not self.affine().terms

    def jets_at(self, point):
        """(D, G, A) at an integer point (ints or Fractions, one coordinate
        per ring variable): the int matrices G = D g(point) and
        A[s] = D d_s g = M_(s+1), with the formal parameters evaluated
        there.  At the generic point, ``point`` None, G = D g is the matrix
        of integer-coefficient polynomials M0 + u_s M_s and A the arrays
        M_(s+1) as they are."""
        if point is None:
            D, M = self.arrays
            rng = range(self.n)
            return D, [[MultiPoly.from_affine_parts(self.nvars, 1, [m[i][j] for m in M])
                        for j in rng] for i in rng], M[1:]
        form, u = self.affine(), int_point(point)
        return self.arrays[0], form.evaluate(form.at(u), u), [
            form.evaluate(m, u) for m in form.arrays[1:]]

    def constant_adjugate(self):
        """(adj M0, det M0) of the constant coefficient array, memoised: for
        a constant metric g^-1 = D adj / det."""
        if self._adj0 is None:
            self._adj0 = adjugate_det(self.arrays[1][0])
        return self._adj0

    def constant_inverse_parts(self):
        """(D, adj, det) with g^-1 = D adj / det for a constant metric g:
        ``constant_adjugate`` of its coefficient array G = D g, with det an
        int."""
        if not self.is_constant():
            raise FirstMetricNotConstant("metric must be constant")
        adj, det = self.constant_adjugate()
        if not det:
            raise IdenticallySingular("matrix determinant is identically zero")
        if not isinstance(det, int):
            if not det.is_constant():
                raise ValueError("not a polynomial")
            det = det.constant_value().numerator
        return self.arrays[0], adj, det

    def degenerate_at(self, point) -> bool:
        """Whether g is singular at the integer point: rank D g(point) < n.
        A constant metric free of formal parameters has one value, so its
        answer is the determinant of M0, taken once."""
        form = self.affine()
        if not form.terms and not form.symbolic:
            int_point(point)
            return not self.constant_adjugate()[1]
        return int_rank(form.int_at(point)) < self.n

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
