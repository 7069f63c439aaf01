import random
from fractions import Fraction

import pytest

from hamop.linsolve import det, inverse, mat_mul, nullspace, rank, rref, solve
from hamop.pointcheck import FP


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


def _mod_p(m):
    return [[FP.of(x) for x in row] for row in m]


@pytest.mark.parametrize("seed", range(4))
def test_fp_results_are_q_results_mod_p(seed):
    square, singular, rect = _cases(seed)
    for a in square + singular + rect:
        red, pivots = rref(a)
        assert rref(_mod_p(a), FP) == (_mod_p(red), pivots)
    for a in square + singular:
        assert det(_mod_p(a), FP) == FP.of(det(a))
        inv = inverse(a)
        assert (inverse(_mod_p(a), FP) is None) == (inv is None)
        if inv is not None:
            assert inverse(_mod_p(a), FP) == _mod_p(inv)
    products = 0
    for a in square + singular + rect:
        for b in square + singular + rect:
            if len(a[0]) == len(b):
                assert mat_mul(_mod_p(a), _mod_p(b), FP) == _mod_p(mat_mul(a, b))
                products += 1
    assert products > 20


@pytest.mark.parametrize("seed", range(4))
def test_inverse_det_and_singular_matrices(seed):
    square, singular, _ = _cases(seed)
    for a in singular:
        assert det(a) == 0
        assert inverse(a) is None
        assert inverse(_mod_p(a), FP) is None
    for a in square:
        n = len(a)
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inv = inverse(a)
        assert (inv is None) == (det(a) == 0)
        if inv is not None:
            assert mat_mul(a, inv) == eye == mat_mul(inv, a)
            assert det(a) * det(inv) == 1


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_basis(seed):
    square, singular, rect = _cases(seed)
    for a in square + singular + rect:
        ncols = len(a[0])
        basis = nullspace(a)
        _, pivots = rref(a)
        free = [c for c in range(ncols) if c not in pivots]
        assert len(basis) == ncols - rank(a) == len(free)
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
    d = det([[3, 1], [1, 2]])
    assert type(d) is Fraction and d == 5
    x = solve(a, [1, 0])
    assert _exact(x) and x == [Fraction(1, 2), Fraction(-1, 2)]
    third = inverse([[3]])
    assert third == [[Fraction(1, 3)]]
