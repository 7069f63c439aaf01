"""sympy as a differential oracle for ``matrices.determinant`` and
``matrices.adjugate_det`` (Berkowitz's characteristic polynomial and
Cayley-Hamilton) on seeded symmetric matrices linear in the u-block, some
with trailing formal-parameter variables.  The reference determinant is
sympy's fraction-free elimination over QQ[u] (``DomainMatrix.det``), and
the reference adjugate is the transposed matrix of cofactors, each a
``DomainMatrix.det`` of a minor."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from hamop.matrices import adjugate_det, determinant  # noqa: E402

from test_matrices import _linear_symmetric  # noqa: E402

CASES = [(n, 0) for n in range(1, 6)] + [(n, 2) for n in range(1, 5)]


@pytest.mark.parametrize("n, params", CASES, ids=[f"n{n}+{p}" for n, p in CASES])
def test_det_and_adjugate_match_sympy(n, params):
    m = _linear_symmetric(random.Random(100 * n + params), n, n + params)
    ring = sympy.QQ[sympy.symbols(f"u1:{n + params + 1}")]

    def to_ring(p):
        return ring.ring.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()})

    a = [[to_ring(x) for x in row] for row in m.entries]

    def det(rows):
        return DomainMatrix(rows, (len(rows), len(rows)), ring).det() if rows else ring.one

    adj, d = adjugate_det(m)
    assert d == determinant(m)
    assert to_ring(d) == det(a)
    for i in range(n):
        for j in range(n):
            minor = [[x for c, x in enumerate(row) if c != i] for r, row in enumerate(a) if r != j]
            assert to_ring(adj[i, j]) == (-1) ** (i + j) * det(minor), (i, j)
