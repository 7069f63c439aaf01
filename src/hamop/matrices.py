"""Matrices with polynomial or rational-function entries.

Entries are homogeneous per matrix (all MultiPoly or all RationalFunction).
``determinant`` and ``adjugate_det`` take polynomial entries only (anything
else raises ValueError) and use fraction-free Bareiss elimination; inverses
are returned in adjugate/determinant form with gcd-normalized
rational-function entries, so m * m^-1 is exactly the identity.
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
from .poly import MultiPoly, RationalFunction, divide_exact


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


def _poly_entries(m: PolyMatrix, what: str) -> list[list[MultiPoly]]:
    if not m.is_square:
        raise ValueError(f"{what} of non-square matrix")
    if not all(isinstance(x, MultiPoly) for row in m.entries for x in row):
        raise ValueError(f"{what} expects polynomial entries")
    return m.entries


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact determinant of a square polynomial matrix (Bareiss)."""
    return _bareiss_det(_poly_entries(m, "determinant"), m.nvars)


def _bareiss_det(a: list[list[MultiPoly]], nvars: int) -> MultiPoly:
    n = len(a)
    a = [row[:] for row in a]
    sign = 1
    prev = MultiPoly.const(nvars, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(nvars)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q = divide_exact(num, prev)
                if q is None:
                    raise AssertionError("Bareiss exact division failed")
                a[i][j] = q
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def _minor(a: list[list[MultiPoly]], i: int, j: int) -> list[list[MultiPoly]]:
    return [
        [a[r][c] for c in range(len(a)) if c != j]
        for r in range(len(a))
        if r != i
    ]


def adjugate_det(m: PolyMatrix) -> tuple[PolyMatrix, MultiPoly]:
    """(adjugate, determinant) of a square polynomial matrix."""
    a = _poly_entries(m, "adjugate_det")
    n = m.rows
    nvars = m.nvars
    det = determinant(m)
    if n == 1:
        return PolyMatrix.from_scalars(nvars, [[1]]), det
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = _bareiss_det(_minor(a, i, j), nvars)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return PolyMatrix(adj), det


def matrix_inverse(m: PolyMatrix) -> PolyMatrix:
    """Exact inverse with RationalFunction entries (adjugate over determinant).

    Raises IdenticallySingular when det vanishes identically.
    """
    adj, det = adjugate_det(m)
    if det.is_zero():
        raise IdenticallySingular("matrix determinant is identically zero")
    return adj.map(lambda p: RationalFunction(p, det, base=det))
