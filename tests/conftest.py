"""Shared helpers for the test suite."""

import random
import sys
from fractions import Fraction

import pytest

from hamop import geometry, matrices
from hamop import pointcheck as pc
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec, identically_degenerate
from hamop.poly import MultiPoly
from hamop.scalars import GaussianRational


def u_vars(nvars):
    return [MultiPoly.variable(nvars, k) for k in range(1, nvars + 1)]


def operator5_pair():
    """The classical two-component pair (antidiagonal, [[-2u1,u2],[u2,0]])."""
    u1, u2 = u_vars(2)
    g = LinearMetric.antidiagonal(2)
    gt = LinearMetric(2, PolyMatrix([[-2 * u1, u2], [u2, MultiPoly.zero(2)]]))
    return g, gt


def random_rational(rng, bound=6, dens=(1, 2, 3)):
    return Fraction(rng.randint(-bound, bound), rng.choice(dens))


def random_linear_bivector(rng, n, nondegenerate=True, max_tries=50, nvars=None):
    """Seeded random symmetric linear bivector in ``nvars`` (default n)
    variables, linear in u1..un, resampled until det != 0."""
    nvars = nvars or n
    for _ in range(max_tries):
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                p = MultiPoly.const(nvars, random_rational(rng))
                for k in range(1, n + 1):
                    c = random_rational(rng, bound=3)
                    if c:
                        p = p + MultiPoly.variable(nvars, k) * c
                rows[i][j] = p
                rows[j][i] = p
        mat = PolyMatrix(rows)
        if not nondegenerate or not identically_degenerate(mat):
            return mat
    raise AssertionError("could not draw a non-degenerate bivector")


def refuse_symbolic_work(monkeypatch, message):
    """Make the passing path's forbidden symbolic work raise AssertionError:
    the linearity and Nijenhuis point kernels,
    ``LinearMetric.inverse``, and, in every hamop module that binds them,
    ``adjugate_det`` of a PolyMatrix and ``levi_civita`` of a non-constant
    metric.  ``adjugate_det`` on coefficient arrays (lists of rows) and the
    connection of a constant metric still run."""

    def refuse(*args):
        raise AssertionError(message)

    adjugate_det, levi_civita = matrices.adjugate_det, geometry.levi_civita

    def arrays_only(m):
        if isinstance(m, PolyMatrix):
            refuse()
        return adjugate_det(m)

    def constant_only(g):
        if not g.is_constant():
            refuse()
        return levi_civita(g)

    for kernel in ("linearity_at", "nijenhuis_at"):
        monkeypatch.setattr(pc, kernel, refuse)
    monkeypatch.setattr(LinearMetric, "inverse", refuse)
    guards = (("adjugate_det", adjugate_det, arrays_only),
              ("levi_civita", levi_civita, constant_only))
    for name, module in list(sys.modules.items()):
        if name.startswith("hamop"):
            for attr, original, guard in guards:
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, guard)
    return refuse


def one_coefficient_mutants(spec, b):
    """(label, spec) of every one-coefficient mutant of metric ``b``
    (0-based) of ``spec``: one entry m^{ij} = m^{ji}, i <= j, raised by 1
    or by a u_k, labelled "{bump}@{i}{j}" (1-based); a mutant that makes
    the metric identically degenerate is skipped."""
    n, nvars = spec.n, spec.nvars
    z = MultiPoly.zero(nvars)
    out = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n + 1):
                bump = MultiPoly.variable(nvars, k) if k else MultiPoly.const(nvars, 1)
                mat = spec.metrics[b].mat + PolyMatrix(
                    [[bump if {a, c} == {i, j} else z for c in range(n)] for a in range(n)])
                if not identically_degenerate(mat):
                    metrics = list(spec.metrics)
                    metrics[b] = LinearMetric(n, mat)
                    out.append((f"{bump}@{i + 1}{j + 1}", OperatorSpec(metrics)))
    return out


def specialized_catalog(d=None, max_n=None):
    """(id, spec) of the catalog entries, formal parameters replaced by
    their ``default_param_values``; ``d`` selects d = 2 (2) or d >= 3 (3)."""
    from hamop.catalog import catalog
    from hamop.specfile import default_param_values, specialize_spec

    out = []
    for e in catalog():
        if (d is None or (e.spec.d >= 3) == (d >= 3)) and (max_n is None or e.n <= max_n):
            values = default_param_values(e.spec)
            out.append((e.id, specialize_spec(e.spec, values) if values else e.spec))
    return out


@pytest.fixture
def rng():
    return random.Random(20240915)


def corpus_pairs(n, rng, raw=8, killing=6, family=6, constant=5):
    """Seeded mixed corpus of linear bivectors over the antidiagonal metric:
    raw random (generically failing), random Killing-space members (failing
    the torsion condition), random single-block family members (passing), and
    random constants (passing)."""
    from hamop.families import jordan_gt0, killing_bivector_space, solve_jordan_family

    g = LinearMetric.antidiagonal(n)
    out = []
    for _ in range(raw):
        out.append(LinearMetric(n, random_linear_bivector(rng, n)))
    space = killing_bivector_space(g)
    tries = 0
    made = 0
    while made < killing and tries < 200:
        tries += 1
        mat = None
        for b in space:
            c = random_rational(rng, bound=3)
            if not c:
                continue
            term = b.scale(c)
            mat = term if mat is None else mat + term
        if mat is None or identically_degenerate(mat):
            continue
        out.append(LinearMetric(n, mat))
        made += 1
    fam = solve_jordan_family(n, verify=False)
    made = 0
    tries = 0
    while made < family and tries < 200:
        tries += 1
        lam = random_rational(rng, bound=4)
        kappas = [random_rational(rng, bound=4) for _ in range(fam.dimension)]
        mat = jordan_gt0(n, lam)
        for k, b in zip(kappas, fam.basis):
            if k:
                mat = mat + b.scale(k)
        if identically_degenerate(mat):
            continue
        out.append(LinearMetric(n, mat))
        made += 1
    made = 0
    tries = 0
    while made < constant and tries < 200:
        tries += 1
        vals = [[random_rational(rng, bound=4) for _ in range(n)] for _ in range(n)]
        sym = [[vals[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        mat = PolyMatrix.from_scalars(n, sym)
        if identically_degenerate(mat):
            continue
        out.append(LinearMetric(n, mat))
        made += 1
    return g, out


def jordan_block(lam, size):
    return [[lam if i == j else int(j == i + 1) for j in range(size)] for i in range(size)]


def real_jordan_block(re, im, size):
    """The real Jordan block of the pair re +- i im with size x size complex
    blocks: [[C, I], [0, C]] with C = [[re, -im], [im, re]]."""
    out = [[0] * (2 * size) for _ in range(2 * size)]
    for k in range(size):
        out[2 * k][2 * k : 2 * k + 2] = [re, -im]
        out[2 * k + 1][2 * k : 2 * k + 2] = [im, re]
        if k + 1 < size:
            out[2 * k][2 * k + 2] = out[2 * k + 1][2 * k + 3] = 1
    return out


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k : k + len(b)] = row
        k += len(b)
    return out


def unimodular(rng, n):
    """A seeded integer matrix of determinant 1 and its integer inverse:
    a product of elementary row additions."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in pinv:  # right-multiply by the inverse elementary matrix
            row[j] -= c * row[i]
    return p, pinv


def jordan_conjugate(blocks, rng):
    """(A, partitions) for the integer matrix A = P J P^-1 with a seeded
    unimodular P.  J is the direct sum of ``blocks``: ("R", lam, k) is the
    k x k Jordan block of the integer lam, and ("C", a, b, k) the real
    Jordan block of a +- b i with k x k complex blocks.  ``partitions`` maps
    each eigenvalue, a Fraction or a GaussianRational, to its descending
    Jordan block sizes."""
    parts, partitions = [], {}
    for kind, *values, k in blocks:
        if kind == "R":
            parts.append(jordan_block(values[0], k))
            keys = [Fraction(values[0])]
        else:
            a, b = values
            parts.append(real_jordan_block(a, b, k))
            keys = [GaussianRational.of(a, b), GaussianRational.of(a, -b)]
        for key in keys:
            partitions[key] = tuple(sorted(partitions.get(key, ()) + (k,), reverse=True))

    def mul(x, y):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]

    j = block_diag(*parts)
    p, pinv = unimodular(rng, len(j))
    return mul(mul(p, j), pinv), partitions


# Jordan structures at n <= 6, one for every kind of partition: simple, one
# block (m = 2..6), all 1s, and mixed (2,1), (2,2), (3,1), (2,1,1), (3,2),
# (2,2,1); with Gaussian eigenvalues also simple, one block (m = 2, 3), all 1s
# and (2,1); and three for root finding: five simple eigenvalues whose
# pairwise differences are multiples of 35, so that chi has a repeated root
# mod 5 and the prime search moves past it, three simple integers beside a
# Gaussian pair, and two Gaussian pairs of the same partition, which the
# search finds by pairing lifted roots: ("R", lam, k) is a k-block of the
# integer lam, ("C", a, b, k) a k-block of each of a +- b i
JORDAN_CASES = [
    [("R", 2, 1), ("R", -1, 1), ("R", 0, 1)],
    [("C", 1, 2, 1), ("R", 3, 1)],
    *([("R", 2, m)] for m in range(2, 7)),
    [("R", -1, 2), ("C", -1, 3, 1)],
    [("C", 1, 1, 2)],
    [("C", 0, 1, 3)],
    [("R", 2, 1), ("R", 2, 1), ("R", -1, 1)],
    [("R", 1, 1)] * 4,
    [("C", 2, 1, 1)] * 2,
    [("C", 1, 1, 1)] * 3,
    [("R", 3, 2), ("R", 3, 1)],
    [("R", -1, 2), ("R", -1, 2), ("C", 0, 2, 1)],
    [("R", 2, 3), ("R", 2, 1)],
    [("R", 1, 2), ("R", 1, 1), ("R", 1, 1), ("R", 4, 1)],
    [("R", 0, 3), ("R", 0, 2)],
    [("R", 1, 2), ("R", 1, 2), ("R", 1, 1), ("R", -2, 1)],
    [("C", 1, 2, 2), ("C", 1, 2, 1)],
    [("R", 35 * k, 1) for k in range(-2, 3)],
    [("R", 2, 1), ("R", -1, 1), ("R", 4, 1), ("C", 1, 2, 1)],
    [("C", 0, 1, 1), ("C", 1, 2, 1)],
]


def jordan_id(blocks):
    """A test id for the blocks of ``jordan_conjugate``, e.g. "J2(3)+J1(1+-2i)"."""
    return "+".join(f"J{k}({v[0]})" if kind == "R" else f"J{k}({v[0]}+-{v[1]}i)"
                    for kind, *v, k in blocks)
