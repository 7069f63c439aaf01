"""Exact linear algebra over Q and Q(i): RREF, rank, nullspace, and the
determinant and inverse over any ``Field`` (Q by default; pointcheck adds
F_p).

Dense routines take lists of lists of field elements (Fraction or
GaussianRational; anything with field arithmetic and truthiness).  The
sparse echelon solver handles the larger structured systems (a few thousand
rows with a handful of nonzeros each) that arise when solving coefficient
equations for metric families.

Nullspace bases are deterministic: reduced row echelon form with pivots
chosen in increasing column order, free columns generating one basis vector
each (unit at the free column).
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: list[list]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list], ncols: int | None = None) -> list[list]:
    """Basis of the right nullspace, one vector per free column."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for empty system")
        return [
            [Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
            for j in range(ncols)
        ]
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


class Field:
    """Scalar operations the field-generic routines are written against:
    ``of`` (the image of a rational), ``red`` (the canonical form of a sum
    of products), ``inv`` and ``half``."""

    __slots__ = ("of", "red", "inv", "half")

    def __init__(self, of, red, inv, half):
        self.of = of
        self.red = red
        self.inv = inv
        self.half = half


def identity(x):
    """The reduction of exact representations, which are already canonical."""
    return x


Q = Field(Fraction, identity, lambda x: 1 / x, Fraction(1, 2))


def _pivot_row(m, c):
    for i in range(c, len(m)):
        if m[i][c]:
            return i
    return None


def det(a: list[list], F: Field = Q):
    """Determinant of a square matrix of elements of ``F``, by Gaussian
    elimination."""
    red = F.red
    n = len(a)
    m = [row[:] for row in a]
    d = F.of(1)
    for c in range(n):
        pr = _pivot_row(m, c)
        if pr is None:
            return F.of(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d = red(d * m[c][c])
        inv = F.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                f = red(m[i][c] * inv)
                m[i] = [red(x - f * y) for x, y in zip(m[i], m[c])]
    return d


def inverse(a: list[list], F: Field = Q) -> list[list] | None:
    """Inverse of a square matrix of elements of ``F``, by Gauss-Jordan
    elimination, or None if it is singular."""
    red = F.red
    n = len(a)
    m = [row[:] + [F.of(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pr = _pivot_row(m, c)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        pv = F.inv(m[c][c])
        m[c] = [red(x * pv) for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [red(x - f * y) for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


class SparseSystem:
    """Incremental sparse Gaussian elimination over Q for homogeneous systems.

    Rows are dicts column->coefficient.  Columns are integers; pivot choice is
    the smallest column in a row, which together with the fixed unknown
    ordering makes the resulting nullspace basis deterministic.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}

    def add_row(self, row: dict[int, Fraction]) -> None:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivot_rows.get(c)
            if piv is None:
                inv = 1 / row[c]
                self.pivot_rows[c] = {k: v * inv for k, v in row.items()}
                return
            f = row[c]
            for k, v in piv.items():
                s = row.get(k, Fraction(0)) - f * v
                if s:
                    row[k] = s
                elif k in row:
                    del row[k]

    def nullspace_basis(self) -> list[dict[int, Fraction]]:
        """Deterministic basis, one sparse vector per free column."""
        # back-substitute to fully reduced form
        for c in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[c]
            for c2 in [k for k in row if k != c and k in self.pivot_rows]:
                f = row[c2]
                for k, v in self.pivot_rows[c2].items():
                    s = row.get(k, Fraction(0)) - f * v
                    if s:
                        row[k] = s
                    elif k in row:
                        del row[k]
        basis = []
        pivot_cols = set(self.pivot_rows)
        for free in range(self.ncols):
            if free in pivot_cols:
                continue
            v = {free: Fraction(1)}
            for pc, row in self.pivot_rows.items():
                coef = row.get(free)
                if coef:
                    v[pc] = -coef
            basis.append(v)
        return basis

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def span_rref(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis (RREF rows) of the span of the given vectors."""
    red, _ = rref(vectors)
    return [row for row in red if any(row)]


def same_span(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    """Exact span equality via canonical RREF comparison."""
    if not a and not b:
        return True
    if (not a) != (not b):
        return bool(not span_rref(a or b))
    return span_rref(a) == span_rref(b)
