"""Exact linear algebra over Q, and ranks over Z.

Each job has one routine.  ``SparseSystem`` is the one Gauss-Jordan
elimination: it reduces rows one at a time, sparse in the columns.
``rref`` reads its reduced rows back as dense rows; ``inverse`` (the right
half of the reduced [A | I]), ``solve``, ``span_rref`` and ``same_span``
read ``rref``, and ``nullspace`` reads the system's nullspace basis.  The
elimination is sparse because the coefficient equations of metric families
are: the n = 8 Jordan-block family of ``families`` has 344 rows over 288
unknowns, with about three nonzeros a row.  Its nullspace takes 0.04 s
sparse and 2.7-3.9 s by a dense Gauss-Jordan loop (Python 3.11, one core
of a shared 2-core host).
``mat_mul`` is the one matrix product, summing only
products of nonzero entries: over ints and linear forms in the unknowns for
the condition streams of ``families``, over plain ints for ``pointcheck``'s
frames, the powers in the Segre rank sequences of ``spectral`` and the
Segre affinor's arrays, over ints or parameter polynomials for the
connection and torsion contractions of ``geometry``, the Nijenhuis
arrays of ``verify``'s proofs and the Horner steps of
``matrices.adjugate_det``, and over polynomials or rational functions for
``PolyMatrix @`` and ``frobenius.intersection_form``.
``int_rank`` is the one rank, over Z by fraction-free Bareiss elimination:
it decides singularity at a point (``metrics.degenerate_at``) and gives the
Segre rank sequences of ``spectral``, whose Gaussian eigenvalues are ranked
through their real quadratic factor.

The eliminations take rows of rationals (ints or Fractions).  Nullspace
bases are deterministic: the reduced row echelon form is unique, and each
free column gives one basis vector, with a unit at that column.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rref rows, pivot columns):
    the reduced rows of a ``SparseSystem`` in pivot order, as dense rows
    with ``Fraction(0)`` where a row has no entry."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    system = SparseSystem(ncols)
    for row in rows:
        system.add_row(dict(enumerate(row)))
    reduced = system.reduced()
    pivots = sorted(reduced)
    zero = Fraction(0)
    return [[reduced[c].get(k, zero) for k in range(ncols)] for c in pivots], pivots


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


def _subtract(row: dict, f, pivot_row: dict) -> None:
    """row -= f * pivot_row, in place, dropping the entries that vanish."""
    for k, v in pivot_row.items():
        s = row.get(k, Fraction(0)) - f * v
        if s:
            row[k] = s
        elif k in row:
            del row[k]


class SparseSystem:
    """Incremental sparse Gauss-Jordan elimination over Q.

    Rows are dicts column->coefficient, entries kept as given; a pivot is
    inverted as ``Fraction(1) / x``, so int rows give exact rationals.
    Pivot choice is the smallest column in a row, which together with the
    fixed unknown ordering makes the nullspace basis deterministic.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict] = {}

    def add_row(self, row: dict) -> None:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivot_rows.get(c)
            if piv is None:
                inv = Fraction(1) / row[c]
                self.pivot_rows[c] = {k: v * inv for k, v in row.items()}
                return
            _subtract(row, row[c], piv)

    def reduced(self) -> dict[int, dict]:
        """The pivot rows, back-substituted in place to the reduced form:
        pivot column -> row, each row zero at every other pivot column."""
        for c in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[c]
            for c2 in [k for k in row if k != c and k in self.pivot_rows]:
                _subtract(row, row[c2], self.pivot_rows[c2])
        return self.pivot_rows

    def nullspace_basis(self) -> list[dict[int, Fraction]]:
        """Deterministic basis, one sparse vector per free column."""
        reduced = self.reduced()
        basis = []
        for free in range(self.ncols):
            if free in reduced:
                continue
            v = {free: Fraction(1)}
            for pc, row in reduced.items():
                coef = row.get(free)
                if coef:
                    v[pc] = -coef
            basis.append(v)
        return basis


def span_rref(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis (the nonzero RREF rows) of the span of the vectors."""
    return rref(vectors)[0]


def same_span(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    """Exact span equality via canonical RREF comparison."""
    return span_rref(a) == span_rref(b)
