"""Matrices with polynomial or rational-function entries.

Entries are homogeneous per matrix (all MultiPoly or all RationalFunction).
``determinant`` and ``adjugate_det`` take polynomial entries only (anything
else raises ValueError) and share one division-free computation: the
characteristic polynomial by Berkowitz's algorithm (``roots.char_poly``),
whose constant term gives the determinant and whose coefficients give the
adjugate by Cayley-Hamilton.  Inverses are returned in adjugate/determinant
form with gcd-normalized rational-function entries, so m * m^-1 is exactly
the identity.
``PolyMatrix.at_point`` evaluates polynomial entries in any
``linsolve.Field`` through ``MultiPoly.eval``, the one polynomial evaluator.
Dense products of the evaluated matrices are ``linsolve.mat_mul``: over F_p
in ``pointcheck``'s frames, and over Z in ``spectral``'s rank sequences,
which scale the value at a point to an integer matrix first.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import IdenticallySingular
from .linsolve import Q, Field
from .poly import MultiPoly, RationalFunction
from .roots import char_poly


class PolyMatrix:
    """Rectangular matrix over MultiPoly or RationalFunction entries."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = len(entries)
        if rows == 0:
            raise ValueError("empty matrix")
        cols = len(entries[0])
        nvars = None
        data = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            r = []
            for x in row:
                if not isinstance(x, (MultiPoly, RationalFunction)):
                    raise TypeError(f"unsupported entry type {type(x)!r}")
                if nvars is None:
                    nvars = x.nvars
                elif x.nvars != nvars:
                    raise ValueError("entry nvars mismatch")
                r.append(x)
            data.append(r)
        self.rows, self.cols, self.nvars = rows, cols, nvars
        self.entries = data

    @staticmethod
    def from_scalars(nvars: int, values: Sequence[Sequence]) -> "PolyMatrix":
        return PolyMatrix(
            [[MultiPoly.const(nvars, v) for v in row] for row in values]
        )

    @staticmethod
    def identity(n: int, nvars: int) -> "PolyMatrix":
        return PolyMatrix(
            [
                [MultiPoly.const(nvars, 1 if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )

    @staticmethod
    def zeros(rows: int, cols: int, nvars: int) -> "PolyMatrix":
        z = MultiPoly.zero(nvars)
        return PolyMatrix([[z for _ in range(cols)] for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def map(self, fn: Callable) -> "PolyMatrix":
        return PolyMatrix([[fn(x) for x in row] for row in self.entries])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(-1)

    def scale(self, factor) -> "PolyMatrix":
        return PolyMatrix(
            [[x * factor for x in row] for row in self.entries]
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a or not b:
                        continue
                    t = a * b
                    acc = t if acc is None else acc + t
                if acc is None:
                    acc = MultiPoly.zero(self.nvars)
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                a, b = self.entries[i][j], other.entries[i][j]
                if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
                    a = a if isinstance(a, RationalFunction) else RationalFunction(a)
                    b = b if isinstance(b, RationalFunction) else RationalFunction(b)
                if a != b:
                    return False
        return True

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.entries))

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def at_point(self, point, F: Field = Q) -> list[list]:
        """Polynomial entries evaluated at ``point`` (one element of ``F``
        per variable) by ``MultiPoly.eval``, as elements of ``F``."""
        return [[x.eval(point, F) for x in row] for row in self.entries]

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(x) for x in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"


def _char_poly(m: PolyMatrix, what: str) -> tuple[list[MultiPoly], MultiPoly]:
    """(coefficients c_0..c_n of det(x I - m), det m) of a square polynomial
    matrix, by ``roots.char_poly`` (Berkowitz, division-free)."""
    if not m.is_square:
        raise ValueError(f"{what} of non-square matrix")
    if not all(isinstance(x, MultiPoly) for row in m.entries for x in row):
        raise ValueError(f"{what} expects polynomial entries")
    c = [MultiPoly.zero(m.nvars) + x for x in char_poly(m.entries)]
    return c, (c[0] if m.rows % 2 == 0 else -c[0])


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact determinant of a square polynomial matrix, (-1)^n chi(0)."""
    return _char_poly(m, "determinant")[1]


def adjugate_det(m: PolyMatrix) -> tuple[PolyMatrix, MultiPoly]:
    """(adjugate, determinant) of a square polynomial matrix, both from one
    characteristic polynomial chi(x) = x^n + c_(n-1) x^(n-1) + ... + c_0.
    By Cayley-Hamilton A (A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I) = -c_0 I,
    so adj(A) = (-1)^(n-1) (A^(n-1) + ... + c_1 I), evaluated by Horner."""
    c, det = _char_poly(m, "adjugate_det")
    n, a = m.rows, m.entries
    sign = 1 if n % 2 else -1
    zero = MultiPoly.zero(m.nvars)
    b = [[MultiPoly.const(m.nvars, sign * (i == j)) for j in range(n)] for i in range(n)]
    for k in range(n - 1, 0, -1):
        b = [[sum((a[i][s] * b[s][j] for s in range(n) if a[i][s] and b[s][j]),
                  c[k] * sign if i == j else zero) for j in range(n)] for i in range(n)]
    return PolyMatrix(b), det


def matrix_inverse(m: PolyMatrix) -> PolyMatrix:
    """Exact inverse with RationalFunction entries (adjugate over determinant).

    Raises IdenticallySingular when det vanishes identically.
    """
    adj, det = adjugate_det(m)
    if det.is_zero():
        raise IdenticallySingular("matrix determinant is identically zero")
    return adj.map(lambda p: RationalFunction(p, det, base=det))
