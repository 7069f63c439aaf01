"""Exact linear algebra over Q, which also serves Q(i) (GaussianRational
entries have field arithmetic too).

Each job has one routine.  ``rref`` is the one Gauss-Jordan elimination:
``inverse`` (the right half of the reduced [A | I]), ``solve`` and
``span_rref`` read it.  ``mat_mul`` is the one matrix product, summing only
products of nonzero entries: over ints and linear forms in the unknowns for
the condition streams of ``families``, over plain ints for ``pointcheck``'s
frames, the powers in the Segre rank sequences of ``spectral`` and the
Segre affinor's arrays, and over ints or parameter polynomials for the
connection and torsion contractions of ``geometry``, the Nijenhuis
arrays of ``verify``'s proofs and the Horner steps of
``matrices.adjugate_det``.
Ranks are taken over Z only: ``int_rank`` is fraction-free
Bareiss elimination, which also decides singularity at a point
(``metrics.degenerate_at``), and ``gaussian_rank`` reads the rank of X + iY
off the real embedding.  ``SparseSystem``
eliminates homogeneous systems over Q row by row, sparse in the columns, and
``nullspace`` is built on it.  The coefficient equations of metric families
are sparse: the n = 8 Jordan-block family of ``families`` has 344 rows over
288 unknowns, with about three nonzeros a row.  Its nullspace takes 0.04 s
by ``SparseSystem`` and 2.7-3.9 s by a dense ``rref`` (Python 3.11, one
core of a shared 2-core host).

Dense routines take lists of lists of field elements.  Nullspace bases are
deterministic: the reduced row echelon form is unique, and each free column
gives one basis vector, with a unit at that column.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rref rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        # Fraction(1) / x, not 1 / x: an int x must give an exact inverse
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination.

    After the k-th pivot every entry below the pivot rows is a (k+1)-minor
    of the input, so the division by the previous pivot is exact and the
    entries stay integers no larger than those minors."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            row[c] = 0
            for j in range(c + 1, ncols):
                row[j] = (piv * row[j] - f * top[j]) // prev
        prev = piv
        r += 1
        if r == len(m):
            break
    return r


def gaussian_rank(x: list[list[int]], y: list[list[int]]) -> int:
    """Rank over Q(i) of X + iY with integer X, Y: half the rank of the
    real embedding [[X, -Y], [Y, X]], which is similar over C to
    (X + iY) (+) (X - iY)."""
    upper = [xr + [-v for v in yr] for xr, yr in zip(x, y)]
    lower = [yr + xr for xr, yr in zip(x, y)]
    return int_rank(upper + lower) // 2


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    """The product of two matrices, in row form: output row i starts as int
    0s, and each nonzero a[i][s] adds x * b[s][j] into it, only where
    b[s][j] is nonzero.  These are the additions of the sum over s of the
    products of two nonzero entries, in the same order from int 0, so an
    entry is int 0 exactly where no such product exists."""
    zero = [0] * len(b[0])
    out = []
    for row in a:
        acc = zero
        for x, brow in zip(row, b):
            if x:
                acc = [r + x * y if y else r for r, y in zip(acc, brow)]
        out.append(acc if acc is not zero else zero[:])
    return out


def inverse(a: list[list]) -> list[list] | None:
    """Inverse of a square matrix over Q, or None if it is singular: the
    right half of the reduced [A | I]."""
    n = len(a)
    one, zero = Fraction(1), Fraction(0)
    red, pivots = rref(
        [row[:] + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    )
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve(rows: list[list], rhs: list) -> list | None:
    """A solution x of rows * x = rhs over Q, with every free unknown 0, or
    None if the system is inconsistent (a pivot in the right-hand column).
    The reduced system is equivalent to the given one, so the solution
    satisfies every row."""
    ncols = len(rows[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][ncols]
    return sol


def nullspace(rows: list[list], ncols: int | None = None) -> list[list]:
    """Basis of the right nullspace over Q, one vector per free column."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty system")
        ncols = len(rows[0])
    system = SparseSystem(ncols)
    for row in rows:
        system.add_row(dict(enumerate(row)))
    return [
        [v.get(c, Fraction(0)) for c in range(ncols)] for v in system.nullspace_basis()
    ]


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
    """Canonical basis (the nonzero RREF rows) of the span of the vectors."""
    return rref(vectors)[0]


def same_span(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    """Exact span equality via canonical RREF comparison."""
    return span_rref(a) == span_rref(b)
