import random
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
import sympy

from hamop import linsolve
from hamop.frobenius import build_cp_frobenius, intersection_form
from hamop.linsolve import (
    SparseSystem,
    int_rank,
    inverse,
    mat_mul,
    nullspace,
    rref,
    same_span,
    solve,
)
from hamop.matrices import PolyMatrix
from hamop.roots import char_poly


def _matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _singular(rng, n):
    """A random n x n matrix whose last row is a combination of the others."""
    m = _matrix(rng, n - 1, n)
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)]
    return m + [[sum(ci * row[j] for ci, row in zip(c, m)) for j in range(n)]]


def _cases(seed):
    rng = random.Random(seed)
    square = [_matrix(rng, n, n) for n in (1, 2, 3, 4, 5)]
    singular = [_singular(rng, n) for n in (2, 3, 4, 5)]
    singular.append([[Fraction(0)] * 3 for _ in range(3)])
    rect = [_matrix(rng, r, c) for r, c in ((2, 5), (5, 2), (3, 4), (4, 3))]
    rect.append([row + row for row in _matrix(rng, 3, 2)])  # rank <= 2
    return square, singular, rect


def _det(a):
    """The determinant (-1)^n chi_a(0), from Berkowitz's characteristic
    polynomial."""
    return (-1) ** len(a) * char_poly(a)[0]


def _integer_rows(m):
    """Each row times the lcm of its denominators: the same row space."""
    out = []
    for row in m:
        mult = lcm(*(x.denominator for x in row))
        out.append([int(x * mult) for x in row])
    return out


@pytest.mark.parametrize("seed", range(4))
def test_inverse_det_and_singular_matrices(seed):
    square, singular, _ = _cases(seed)
    for a in singular:
        assert _det(a) == 0 and int_rank(_integer_rows(a)) < len(a)
        assert inverse(a) is None
    for a in square:
        n = len(a)
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inv = inverse(a)
        assert (inv is None) == (_det(a) == 0) == (int_rank(_integer_rows(a)) < n)
        if inv is not None:
            assert mat_mul(a, inv) == eye == mat_mul(inv, a)
            assert _det(a) * _det(inv) == 1


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_basis(seed):
    square, singular, rect = _cases(seed)
    for a in square + singular + rect:
        ncols = len(a[0])
        basis = nullspace(a)
        _, pivots = rref(a)
        free = [c for c in range(ncols) if c not in pivots]
        assert len(basis) == ncols - int_rank(_integer_rows(a)) == len(free)
        for v, c in zip(basis, free):
            assert all(x == 0 for row in mat_mul(a, [[x] for x in v]) for x in row)
            assert [v[f] for f in free] == [int(f == c) for f in free]


def test_nullspace_of_no_rows():
    assert nullspace([], 3) == [
        [Fraction(int(i == j)) for i in range(3)] for j in range(3)
    ]
    with pytest.raises(ValueError):
        nullspace([])


def test_solve():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    assert solve(rows, [Fraction(5), Fraction(10), Fraction(2)]) == [1, 2]
    assert solve(rows, [Fraction(5), Fraction(11), Fraction(2)]) is None
    # a free unknown is set to 0
    assert solve([[Fraction(1), Fraction(1)]], [Fraction(3)]) == [3, 0]


def _exact(values):
    return all(type(x) is Fraction for x in values)


def test_int_matrices_give_exact_rationals():
    a = [[3, 1], [1, 1]]
    red, pivots = rref([[3, 1, 1], [1, 1, 0]])
    assert pivots == [0, 1] and _exact(x for row in red for x in row)
    assert red == [[1, 0, Fraction(1, 2)], [0, 1, Fraction(-1, 2)]]
    inv = inverse(a)
    assert _exact(x for row in inv for x in row)
    assert inv == [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]]
    x = solve(a, [1, 0])
    assert _exact(x) and x == [Fraction(1, 2), Fraction(-1, 2)]
    third = inverse([[3]])
    assert third == [[Fraction(1, 3)]]


def _int_matrix(rng, rows, cols, rank_at_most):
    """A seeded integer matrix, a product rows x k times k x cols, with
    some zero columns spliced in."""
    k = rng.randint(0, rank_at_most)
    left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(k)]
    m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    zero = rng.randrange(cols)
    return [row[:zero] + [0] + row[zero:] for row in m]


@pytest.mark.parametrize("seed", range(4))
def test_int_rank_is_the_rref_rank(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _int_matrix(rng, rows, cols, min(rows, cols))
        assert int_rank(m) == len(rref(m)[1])
    assert int_rank([]) == 0
    assert int_rank([[10**30, 1], [10**30 + 1, 1]]) == 2


def _oracle_cases(seed):
    """Seeded matrices of each kind the elimination meets: dense, at least
    60 % zeros, rank-deficient, and rectangular (wide and tall)."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def sparse(rows, cols):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for i, j in rng.sample(cells, (2 * len(cells)) // 5):
            m[i][j] = entry()
        return m

    def low_rank(rows, cols, k):
        left = [[entry() for _ in range(k)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(k)]
        return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
                for row in left]

    cases = {
        "dense": [[[entry() for _ in range(n)] for _ in range(n)] for n in (1, 3, 5)],
        "sparse": [sparse(r, c) for r, c in ((4, 4), (5, 7), (7, 5), (6, 6))],
        "rank-deficient": [low_rank(r, c, k) for r, c, k in ((4, 4, 2), (5, 6, 3), (6, 3, 1))],
        "rectangular": [[[entry() for _ in range(c)] for _ in range(r)]
                        for r, c in ((2, 6), (6, 2), (3, 5), (5, 3))],
    }
    return cases


def _sympy(x):
    return sympy.Rational(x.numerator, x.denominator)


@pytest.mark.parametrize("seed", range(3))
def test_rref_is_sympy_rref(seed):
    for kind, matrices in _oracle_cases(seed).items():
        for m in matrices:
            red, pivots = rref(m)
            want, want_pivots = sympy.Matrix([[_sympy(x) for x in row] for row in m]).rref()
            assert tuple(pivots) == want_pivots, kind
            assert len(red) == len(pivots) and all(len(row) == len(m[0]) for row in red)
            for i, row in enumerate(red):
                for j, x in enumerate(row):
                    assert sympy.simplify(_sympy(x) - want[i, j]) == 0, (kind, i, j)
            assert all(type(x) is Fraction for row in red for x in row), kind


@pytest.fixture
def routine_calls(monkeypatch):
    """Counts of the calls to ``SparseSystem.add_row`` and of every binding
    of ``mat_mul`` in the library."""
    calls = Counter()
    add_row, product = SparseSystem.add_row, linsolve.mat_mul

    def counted_add_row(self, row):
        calls["add_row"] += 1
        return add_row(self, row)

    def counted_mat_mul(a, b):
        calls["mat_mul"] += 1
        return product(a, b)

    monkeypatch.setattr(SparseSystem, "add_row", counted_add_row)
    for name, module in list(sys.modules.items()):
        if name.startswith("hamop") and getattr(module, "mat_mul", None) is product:
            monkeypatch.setattr(module, "mat_mul", counted_mat_mul)
    return calls


_A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]


@pytest.mark.parametrize("routine, run", [
    ("add_row", lambda: rref(_A)),
    ("add_row", lambda: inverse(_A)),
    ("add_row", lambda: solve(_A, [Fraction(1), Fraction(0)])),
    ("add_row", lambda: same_span(_A, _A[:1])),
    ("mat_mul", lambda: PolyMatrix.from_scalars(2, _A) @ PolyMatrix.identity(2, 2)),
    ("mat_mul", lambda: intersection_form(build_cp_frobenius(3))),
], ids=["rref", "inverse", "solve", "same_span", "PolyMatrix-matmul", "intersection_form"])
def test_each_job_runs_its_one_routine(routine_calls, routine, run):
    # one elimination (SparseSystem) and one matrix product (mat_mul)
    run()
    assert routine_calls[routine] > 0
