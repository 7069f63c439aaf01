"""Catalog of named canonical operators and metric families.

Every entry stores exact matrices transcribed from the classification
(locations refer to the numbered statements of the underlying classification
of 2D/3D operators), the expected Segre data at generic points, and the
expected affinor eigenvalues as exact polynomials.  Free constants (lambda,
kappa_i) are carried as formal polynomial variables appended after u1..un,
so "passes for all parameter values" is a single polynomial identity; the
CLI specializes them to rationals when emitting spec files.

Entries whose published form has degenerate individual metrics (the 3D
operators and the N-dimensional example, where some coefficient matrices are
rank one) are stored after an invertible linear recombination of the metric
tuple, which corresponds to a linear change of the independent variables and
preserves Hamiltonianity; the recombination is recorded in the entry notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .families import complexify_matrix, jordan_gt0, mu_bivector
from .matrices import PolyMatrix
from .metrics import LinearMetric, OperatorSpec
from .poly import MultiPoly


@dataclass
class CatalogEntry:
    id: str
    family: str
    location: str
    spec: OperatorSpec
    params: list = field(default_factory=list)   # formal parameter names, ring order
    expected_segre: tuple | None = None           # canonical type key
    expected_eigenvalues: list | None = None      # [(re, im)] MultiPoly pairs
    reducible: bool = False
    notes: str = ""

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def d(self) -> int:
        return self.spec.d


def _vars(nvars: int):
    return [MultiPoly.variable(nvars, k) for k in range(1, nvars + 1)]


def _sym(rows) -> PolyMatrix:
    """Fill the lower triangle from the upper one."""
    n = len(rows)
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return PolyMatrix(rows)


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------


def mokhov_operator(n: int, nvars: int | None = None) -> OperatorSpec:
    """Antidiagonal first metric with second metric mu(n;0):
    gt^{ij} = [3(i+j) - 2(n+2)] u^{i+j-1}."""
    nvars = nvars or n
    g = LinearMetric.antidiagonal(n, nvars)
    gt = LinearMetric(n, mu_bivector(n, 0, nvars))
    return OperatorSpec([g, gt])


def example2_operator(n: int, lam=None) -> OperatorSpec:
    """Second metric mu(n;1) + lambda*g (constant-eigenvalue single block);
    defined for n >= 3.  lam=None uses a formal parameter."""
    if n < 3:
        raise ValueError("example2_operator needs n >= 3 (n = 2 is trivial)")
    nvars = n + (1 if lam is None else 0)
    g = LinearMetric.antidiagonal(n, nvars)
    lam_poly = (
        MultiPoly.variable(nvars, n + 1) if lam is None else MultiPoly.const(nvars, lam)
    )
    gt = LinearMetric(n, mu_bivector(n, 1, nvars) + g.mat.scale(lam_poly))
    return OperatorSpec([g, gt])


def theorem4_metric(n: int, kappa1=None, lam=None) -> OperatorSpec:
    """Single-Jordan-block normal forms with non-constant eigenvalue:
    mu(n;0) for n != 1 mod 3; mu(n;0) + kappa1*mu(n;(n-1)/3) for n = 1 mod 3
    (n != 4); mu(4;0) + kappa1*mu(4;1) + gt0(lam) for n = 4."""
    if n < 2:
        raise ValueError("need n >= 2")
    params = []
    if n % 3 == 1:
        params.append("kappa1")
        if n == 4:
            params.append("lambda")
    nvars = n + sum(
        1
        for name, val in zip(params, [kappa1, lam])
        if val is None
    )
    # assign formal slots in order for the params actually free
    slot = n
    g = LinearMetric.antidiagonal(n, nvars)
    mat = mu_bivector(n, 0, nvars)
    if n % 3 == 1:
        if kappa1 is None:
            slot += 1
            k_poly = MultiPoly.variable(nvars, slot)
        else:
            k_poly = MultiPoly.const(nvars, kappa1)
        shift = 1 if n == 4 else (n - 1) // 3
        mat = mat + mu_bivector(n, shift, nvars).scale(k_poly)
        if n == 4:
            if lam is None:
                slot += 1
                l_poly = MultiPoly.variable(nvars, slot)
            else:
                l_poly = MultiPoly.const(nvars, lam)
            mat = mat + jordan_gt0(4, l_poly, nvars)
    gt = LinearMetric(n, mat)
    return OperatorSpec([g, gt])


def theorem7_metric(n: int, alpha: int, kappa=None, lam=None) -> OperatorSpec:
    """Constant-eigenvalue single-block normal forms:
    mu(n;alpha) + kappa*mu(n;alpha+m) + gt0 with m = (n-1+2 alpha)/3 when m is
    a positive integer <= n-2-alpha, else mu(n;alpha) + gt0."""
    if not 1 <= alpha <= n - 2:
        raise ValueError("need 1 <= alpha <= n-2")
    m3 = n - 1 + 2 * alpha
    m = m3 // 3 if m3 % 3 == 0 else None
    if m is not None and not (1 <= m <= n - 2 - alpha):
        m = None
    free = []
    if m is not None and kappa is None:
        free.append("kappa")
    if lam is None:
        free.append("lambda")
    nvars = n + len(free)
    slot = n
    g = LinearMetric.antidiagonal(n, nvars)
    mat = mu_bivector(n, alpha, nvars)
    if m is not None:
        if kappa is None:
            slot += 1
            k_poly = MultiPoly.variable(nvars, slot)
        else:
            k_poly = MultiPoly.const(nvars, kappa)
        mat = mat + mu_bivector(n, alpha + m, nvars).scale(k_poly)
    if lam is None:
        slot += 1
        l_poly = MultiPoly.variable(nvars, slot)
    else:
        l_poly = MultiPoly.const(nvars, lam)
    mat = mat + jordan_gt0(n, l_poly, nvars)
    gt = LinearMetric(n, mat)
    return OperatorSpec([g, gt])


def direct_sum(a: OperatorSpec, b: OperatorSpec) -> OperatorSpec:
    """Block-diagonal join on the combined dependent variables (same d).

    Formal parameters of both operands are appended after the combined
    u-block, first a's then b's."""
    if a.d != b.d:
        raise ValueError("direct sum needs operators of the same spatial dimension")
    n = a.n + b.n
    pa = a.nvars - a.n
    pb = b.nvars - b.n
    nvars = n + pa + pb

    # a's u-block stays 1..a.n and b's follows it; a's params move to
    # n+1..n+pa, b's after them
    slots_a = [k if k <= a.n else n + k - a.n for k in range(1, a.nvars + 1)]
    slots_b = [a.n + k if k <= b.n else n + pa + k - b.n for k in range(1, b.nvars + 1)]

    metrics = []
    zero = MultiPoly.zero(nvars)
    for ma, mb in zip(a.metrics, b.metrics):
        rows = [[zero] * n for _ in range(n)]
        for i in range(a.n):
            for j in range(a.n):
                rows[i][j] = ma.mat[i, j].extended(nvars, slots_a)
        for i in range(b.n):
            for j in range(b.n):
                rows[a.n + i][a.n + j] = mb.mat[i, j].extended(nvars, slots_b)
        metrics.append(LinearMetric(n, PolyMatrix(rows)))
    return OperatorSpec(metrics)


# ---------------------------------------------------------------------------
# 4-component normal-form data
# ---------------------------------------------------------------------------


def _s22_data(case: int, nvars: int):
    """(g, gt0(lam), [gt1..gt4]) for Segre type [2,2], case 1 or 2."""
    u = _vars(nvars)
    h = Fraction(1, 2)
    s = 1 if case == 1 else -1
    g = LinearMetric.constant(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, s], [0, 0, s, 0]], nvars
    )

    def gt0(lam_poly):
        z = MultiPoly.zero(nvars)
        one = MultiPoly.const(nvars, 1)
        return PolyMatrix(
            [
                [one, lam_poly, z, z],
                [lam_poly, z, z, z],
                [z, z, one * s, lam_poly * s],
                [z, z, lam_poly * s, z],
            ]
        )

    z = MultiPoly.zero(nvars)
    gt1 = _sym(
        [
            [u[0], -h * u[1], h * u[2], z],
            [None, z, z, z],
            [None, None, z, -s * h * u[1]],
            [None, None, None, z],
        ]
    )
    gt2 = _sym(
        [
            [u[3], z, -s * h * u[1], z],
            [None, z, z, z],
            [None, None, z, z],
            [None, None, None, z],
        ]
    )
    gt3 = _sym(
        [
            [z, h * u[3], -s * h * u[0], z],
            [None, z, z, z],
            [None, None, -s * u[2], s * h * u[3]],
            [None, None, None, z],
        ]
    )
    gt4 = _sym(
        [
            [z, z, h * u[3], z],
            [None, z, z, z],
            [None, None, -s * u[1], z],
            [None, None, None, z],
        ]
    )
    return g, gt0, [gt1, gt2, gt3, gt4]


def _s31_data(case: int, nvars: int):
    """(g, gt0(lam), [gt1..gt4]) for Segre type [3,1], case 1 or 2."""
    u = _vars(nvars)
    h = Fraction(1, 2)
    s = 1 if case == 1 else -1
    g = LinearMetric.constant(
        [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, s]], nvars
    )

    def gt0(lam_poly):
        z = MultiPoly.zero(nvars)
        one = MultiPoly.const(nvars, 1)
        return PolyMatrix(
            [
                [z, one, lam_poly, z],
                [one, lam_poly, z, z],
                [lam_poly, z, z, z],
                [z, z, z, lam_poly * s],
            ]
        )

    z = MultiPoly.zero(nvars)
    gt1 = _sym(
        [
            [2 * u[0], h * u[1], -u[2], h * u[3]],
            [None, -u[2], z, z],
            [None, None, z, z],
            [None, None, None, -s * u[2]],
        ]
    )
    gt2 = _sym(
        [
            [u[1], -h * u[2], z, z],
            [None, z, z, z],
            [None, None, z, z],
            [None, None, None, z],
        ]
    )
    gt3 = _sym(
        [
            [u[3], z, z, -s * h * u[2]],
            [None, z, z, z],
            [None, None, z, z],
            [None, None, None, z],
        ]
    )
    gt4 = _sym(
        [
            [z, h * u[3], z, -s * h * u[1]],
            [None, z, z, z],
            [None, None, z, z],
            [None, None, None, z],
        ]
    )
    return g, gt0, [gt1, gt2, gt3, gt4]


def _s4_data(nvars: int):
    """(g, gt0(lam), [gt1..gt3]) for Segre type [4]."""
    u = _vars(nvars)
    h = Fraction(1, 2)
    g = LinearMetric.antidiagonal(4, nvars)

    def gt0(lam_poly):
        return jordan_gt0(4, lam_poly, nvars)

    z = MultiPoly.zero(nvars)
    gt1 = _sym(
        [
            [-u[0], -h * u[1], z, h * u[3]],
            [None, z, h * u[3], z],
            [None, None, z, z],
            [None, None, None, z],
        ]
    )
    gt2 = _sym(
        [
            [2 * u[1], h * u[2], -u[3], z],
            [None, -u[3], z, z],
            [None, None, z, z],
            [None, None, None, z],
        ]
    )
    gt3 = _sym(
        [
            [u[2], -h * u[3], z, z],
            [None, z, z, z],
            [None, None, z, z],
            [None, None, None, z],
        ]
    )
    return g, gt0, [gt1, gt2, gt3]


def complexified_2d_operator() -> OperatorSpec:
    """Real 4-component form of the complexified two-component operator:
    z^1 = u^1 + i u^2, z^2 = u^3 + i u^4, complex metrics
    [[0,1],[1,0]] and [[-2 z^1, z^2],[z^2, 0]]."""
    nvars = 4
    u = _vars(nvars)
    z = MultiPoly.zero(nvars)
    one = MultiPoly.const(nvars, 1)
    gc = [[(z, z), (one, z)], [(one, z), (z, z)]]
    gtc = [
        [(-2 * u[0], -2 * u[1]), (u[2], u[3])],
        [(u[2], u[3]), (z, z)],
    ]
    g = LinearMetric(4, complexify_matrix(gc))
    gt = LinearMetric(4, complexify_matrix(gtc))
    return OperatorSpec([g, gt])


# ---------------------------------------------------------------------------
# 3D and N-dimensional operators
# ---------------------------------------------------------------------------


def theorem5_3d_operators() -> list[OperatorSpec]:
    """The two 3-component 3D canonical operators.

    Stored with each metric made non-degenerate by adding the constant first
    metric to the degenerate slots (a linear change of independent
    variables)."""
    n = 3
    eta = LinearMetric.antidiagonal(n)
    m_mu = LinearMetric(n, mu_bivector(n, 1) + eta.mat)
    e11 = PolyMatrix.from_scalars(n, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    m_z = LinearMetric(n, e11 + eta.mat)
    first = OperatorSpec([eta, m_mu, m_z])

    u = _vars(n)
    z = MultiPoly.zero(n)
    gx = PolyMatrix.from_scalars(n, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    gz = PolyMatrix.from_scalars(n, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    gy = PolyMatrix([[-2 * u[0], u[1], z], [u[1], z, z], [z, z, z]])
    m1 = LinearMetric(n, gx + gz)
    m2 = LinearMetric(n, gy + m1.mat)
    m3 = LinearMetric(n, gz + m1.mat)
    second = OperatorSpec([m1, m2, m3])
    return [first, second]


def exampleN_operator(N: int, lam=None) -> OperatorSpec:
    """Irreducible N-component operator in N dimensions: antidiagonal eta,
    g = mu(N;N-2) + gt0(lam), and N-2 constant bivectors e_mm (stored as
    e_mm + eta to keep each metric non-degenerate)."""
    if N < 3:
        raise ValueError("need N >= 3")
    nvars = N + (1 if lam is None else 0)
    eta = LinearMetric.antidiagonal(N, nvars)
    lam_poly = (
        MultiPoly.variable(nvars, N + 1) if lam is None else MultiPoly.const(nvars, lam)
    )
    gmat = mu_bivector(N, N - 2, nvars) + jordan_gt0(N, lam_poly, nvars)
    g = LinearMetric(N, gmat)
    metrics = [eta, g]
    for m in range(1, N - 1):
        emm = PolyMatrix.from_scalars(
            nvars, [[1 if (i == j == m - 1) else 0 for j in range(N)] for i in range(N)]
        )
        metrics.append(LinearMetric(N, emm + eta.mat))
    return OperatorSpec(metrics)


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------


def _type_key(*blocks) -> tuple:
    """blocks: (partition tuple, 'R'|'C') pairs."""
    return tuple(
        sorted(blocks, key=lambda t: (sum(t[0]), t[0], t[1]), reverse=True)
    )


def _eig(re: MultiPoly, im: MultiPoly | None = None):
    return (re, im if im is not None else MultiPoly.zero(re.nvars))


def _theorem3_entries() -> list[CatalogEntry]:
    # case 1 (constant eigenvalue) with formal lambda
    nvars = 4
    u = _vars(nvars)
    lam = u[3]
    g = LinearMetric.constant([[0, 0, 1], [0, 1, 0], [1, 0, 0]], nvars)
    z = MultiPoly.zero(nvars)
    gt1 = PolyMatrix(
        [[-2 * u[1], u[2], lam], [u[2], lam, z], [lam, z, z]]
    )
    case1 = CatalogEntry(
        "thm3-case1",
        "thm3",
        "three-component classification, case 1 (constant eigenvalue)",
        OperatorSpec([g, LinearMetric(3, gt1)]),
        params=["lambda"],
        expected_segre=_type_key(((3,), "R")),
        expected_eigenvalues=[_eig(lam)],
    )
    # case 2 (non-constant eigenvalue), parameter-free
    u3 = _vars(3)
    z3 = MultiPoly.zero(3)
    h = Fraction(1, 2)
    g3 = LinearMetric.constant([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    gt2 = PolyMatrix(
        [
            [-2 * u3[0], -h * u3[1], u3[2]],
            [-h * u3[1], u3[2], z3],
            [u3[2], z3, z3],
        ]
    )
    case2 = CatalogEntry(
        "thm3-case2",
        "thm3",
        "three-component classification, case 2 (non-constant eigenvalue)",
        OperatorSpec([g3, LinearMetric(3, gt2)]),
        expected_segre=_type_key(((3,), "R")),
        expected_eigenvalues=[_eig(u3[2])],
    )
    return [case1, case2]


def theorem3_operators() -> list[CatalogEntry]:
    return _theorem3_entries()


def segre4_families() -> list[CatalogEntry]:
    """All 4-component normal-form branches with formal parameters."""
    entries = []
    h = Fraction(1, 2)

    # ---- [2,2] case 1: gt0 + k1 gt1 + k2 gt2
    nvars = 7  # u1..u4, kappa1, kappa2, lambda
    k1, k2, lam = (MultiPoly.variable(nvars, s) for s in (5, 6, 7))
    g, gt0, gts = _s22_data(1, nvars)
    mat = gt0(lam) + gts[0].scale(k1) + gts[1].scale(k2)
    u4 = MultiPoly.variable(nvars, 2)
    entries.append(
        CatalogEntry(
            "s22-case1",
            "s22",
            "four-component, Segre [2,2], case 1 normal form",
            OperatorSpec([g, LinearMetric(4, mat)]),
            params=["kappa1", "kappa2", "lambda"],
            expected_segre=_type_key(((2, 2), "R")),
            expected_eigenvalues=[_eig(-h * k1 * u4 + lam)],
        )
    )
    # ---- [2,2] case 2 branches
    branch_defs = [
        ("b1", [("k1", 0), ("k2", 3)], 2),
        ("b2", [("k1", 1), ("k2", 2)], 2),
        ("b3p", [(1, 1), (1, 3)], 0),
        ("b3m", [(1, 1), (-1, 3)], 0),
        ("b4p", [(1, 0), (1, 2), ("k1", 3)], 1),
        ("b4m", [(1, 0), (-1, 2), ("k1", 3)], 1),
    ]
    for name, combo, nk in branch_defs:
        nvars = 4 + nk + 1
        g, gt0, gts = _s22_data(2, nvars)
        kvars = [MultiPoly.variable(nvars, 5 + t) for t in range(nk)]
        lam = MultiPoly.variable(nvars, 4 + nk + 1)
        mat = gt0(lam)
        kmap = {"k1": 0, "k2": 1}
        for coeff, idx in combo:
            factor = (
                kvars[kmap[coeff]]
                if isinstance(coeff, str)
                else MultiPoly.const(nvars, coeff)
            )
            mat = mat + gts[idx].scale(factor)
        u2 = MultiPoly.variable(nvars, 2)
        u4v = MultiPoly.variable(nvars, 4)
        # family eigenvalue: (k[gt3] u4 - k[gt1] u2)/2 + lambda
        coef = {0: MultiPoly.zero(nvars), 2: MultiPoly.zero(nvars)}
        for coeff, idx in combo:
            if idx in (0, 2):
                coef[idx] = (
                    kvars[kmap[coeff]]
                    if isinstance(coeff, str)
                    else MultiPoly.const(nvars, coeff)
                )
        eig = h * (coef[2] * u4v - coef[0] * u2) + lam
        entries.append(
            CatalogEntry(
                f"s22-case2-{name}",
                "s22",
                f"four-component, Segre [2,2], case 2 normal form, branch {name}",
                OperatorSpec([g, LinearMetric(4, mat)]),
                params=[f"kappa{t+1}" for t in range(nk)] + ["lambda"],
                expected_segre=_type_key(((2, 2), "R")),
                expected_eigenvalues=[_eig(eig)],
            )
        )
    # ---- [3,1] cases 1-2, three branches each
    branch31 = [
        ("b1", [("k1", 1), ("k2", 2)], 2),
        ("b2", [("k1", 2), ("k2", 3)], 2),
        ("b3", [("k1", 0), ("k2", 1), ("k3", 3)], 3),
    ]
    for case in (1, 2):
        for name, combo, nk in branch31:
            nvars = 4 + nk + 1
            g, gt0, gts = _s31_data(case, nvars)
            kvars = [MultiPoly.variable(nvars, 5 + t) for t in range(nk)]
            lam = MultiPoly.variable(nvars, 4 + nk + 1)
            kmap = {"k1": 0, "k2": 1, "k3": 2}
            mat = gt0(lam)
            gt1_coeff = MultiPoly.zero(nvars)
            for coeff, idx in combo:
                factor = (
                    kvars[kmap[coeff]]
                    if isinstance(coeff, str)
                    else MultiPoly.const(nvars, coeff)
                )
                mat = mat + gts[idx].scale(factor)
                if idx == 0:
                    gt1_coeff = factor
            u3v = MultiPoly.variable(nvars, 3)
            eig = lam - gt1_coeff * u3v
            entries.append(
                CatalogEntry(
                    f"s31-case{case}-{name}",
                    "s31",
                    f"four-component, Segre [3,1], case {case} normal form, branch {name}",
                    OperatorSpec([g, LinearMetric(4, mat)]),
                    params=[f"kappa{t+1}" for t in range(nk)] + ["lambda"],
                    expected_segre=_type_key(((3, 1), "R")),
                    expected_eigenvalues=[_eig(eig)],
                )
            )
    # ---- [4]: non-constant branch and the two constant-eigenvalue branches
    nvars = 6  # u1..u4, kappa1, lambda
    g, gt0, gts = _s4_data(nvars)
    k1 = MultiPoly.variable(nvars, 5)
    lam = MultiPoly.variable(nvars, 6)
    u4v = MultiPoly.variable(nvars, 4)
    entries.append(
        CatalogEntry(
            "s4-nonconstant",
            "s4",
            "four-component, Segre [4], non-constant eigenvalue normal form",
            OperatorSpec([g, LinearMetric(4, gt0(lam) + gts[0] + gts[1].scale(k1))]),
            params=["kappa1", "lambda"],
            expected_segre=_type_key(((4,), "R")),
            expected_eigenvalues=[_eig(h * u4v + lam)],
        )
    )
    nvars = 5
    g, gt0, gts = _s4_data(nvars)
    lam = MultiPoly.variable(nvars, 5)
    entries.append(
        CatalogEntry(
            "s4-const-b1",
            "s4",
            "four-component, Segre [4], constant eigenvalue, branch 1",
            OperatorSpec([g, LinearMetric(4, gt0(lam) + gts[1])]),
            params=["lambda"],
            expected_segre=_type_key(((4,), "R")),
            expected_eigenvalues=[_eig(lam)],
        )
    )
    nvars = 6
    g, gt0, gts = _s4_data(nvars)
    k1 = MultiPoly.variable(nvars, 5)
    lam = MultiPoly.variable(nvars, 6)
    entries.append(
        CatalogEntry(
            "s4-const-b2",
            "s4",
            "four-component, Segre [4], constant eigenvalue, branch 2",
            OperatorSpec([g, LinearMetric(4, gt0(lam) + gts[2].scale(k1))]),
            params=["kappa1", "lambda"],
            expected_segre=_type_key(((4,), "R")),
            expected_eigenvalues=[_eig(lam)],
        )
    )
    # ---- complex-conjugate case, normal form gt1
    spec = complexified_2d_operator()
    u = _vars(4)
    entries.append(
        CatalogEntry(
            "complex-2x2",
            "complex",
            "four-component, complex-conjugate eigenvalues (complexified "
            "two-component operator)",
            spec,
            expected_segre=_type_key(((2,), "C"), ((2,), "C")),
            expected_eigenvalues=[
                _eig(u[2], u[3]),
                _eig(u[2], -u[3]),
            ],
        )
    )
    return entries


def _mokhov_entries() -> list[CatalogEntry]:
    out = []
    for n in range(2, 8):
        spec = mokhov_operator(n)
        nv = spec.nvars
        un = MultiPoly.variable(nv, n)
        if n == 4:
            segre = _type_key(((2, 2), "R"))
        else:
            segre = _type_key(((n,), "R"))
        note = "the classical two-component operator" if n == 2 else ""
        out.append(
            CatalogEntry(
                f"mokhov-n{n}",
                "mokhov",
                f"n-component operator with second metric mu({n};0)",
                spec,
                expected_segre=segre,
                expected_eigenvalues=[_eig(un * (n - 1))],
                notes=note,
            )
        )
    return out


def _example2_entries() -> list[CatalogEntry]:
    out = []
    for n in range(3, 7):
        spec = example2_operator(n)
        lam = MultiPoly.variable(spec.nvars, n + 1)
        out.append(
            CatalogEntry(
                f"example2-n{n}",
                "example2",
                f"constant-eigenvalue {n}-component operator (second family)",
                spec,
                params=["lambda"],
                expected_segre=_type_key(((n,), "R")),
                expected_eigenvalues=[_eig(lam)],
            )
        )
    return out


def _theorem4_entries() -> list[CatalogEntry]:
    out = []
    for n in range(3, 8):
        spec = theorem4_metric(n)
        nv = spec.nvars
        params = []
        if n % 3 == 1:
            params.append("kappa1")
            if n == 4:
                params.append("lambda")
        un = MultiPoly.variable(nv, n)
        eig = un * (n - 1)
        if n == 4:
            eig = eig + MultiPoly.variable(nv, 6)
        out.append(
            CatalogEntry(
                f"thm4-n{n}",
                "thm4",
                f"single Jordan block, non-constant eigenvalue, n={n} normal form",
                spec,
                params=params,
                expected_segre=_type_key(((n,), "R")),
                expected_eigenvalues=[_eig(eig)],
            )
        )
    return out


def _theorem7_entries() -> list[CatalogEntry]:
    out = []
    for n in range(3, 7):
        for alpha in range(1, n - 1):
            spec = theorem7_metric(n, alpha)
            params = []
            m3 = n - 1 + 2 * alpha
            m = m3 // 3 if m3 % 3 == 0 else None
            if m is not None and 1 <= m <= n - 2 - alpha:
                params.append("kappa")
            params.append("lambda")
            lam = MultiPoly.variable(spec.nvars, spec.nvars)
            out.append(
                CatalogEntry(
                    f"thm7-n{n}-a{alpha}",
                    "thm7",
                    f"single Jordan block, constant eigenvalue, n={n}, leading "
                    f"coefficient at mu({n};{alpha})",
                    spec,
                    params=params,
                    expected_segre=_type_key(((n,), "R")),
                    expected_eigenvalues=[_eig(lam)],
                )
            )
    return out


def _theorem5_entries() -> list[CatalogEntry]:
    first, second = theorem5_3d_operators()
    one3 = MultiPoly.const(3, 1)
    u2 = MultiPoly.variable(3, 2)
    return [
        CatalogEntry(
            "thm5-3d-1",
            "thm5",
            "three-component 3D operator, irreducible case",
            first,
            expected_segre=_type_key(((3,), "R")),
            expected_eigenvalues=[_eig(one3)],
            notes="metrics stored as (eta, mu(3;1)+eta, e11+eta); adding eta "
            "is a linear change of independent variables",
        ),
        CatalogEntry(
            "thm5-3d-2",
            "thm5",
            "three-component 3D operator, reducible case",
            second,
            expected_segre=_type_key(((2,), "R"), ((1,), "R")),
            expected_eigenvalues=[_eig(u2 + 1), _eig(one3)],
            reducible=True,
            notes="direct sum of the two-component operator and a "
            "one-component operator; metrics recombined to be non-degenerate",
        ),
    ]


def _exampleN_entries() -> list[CatalogEntry]:
    out = []
    for N in range(3, 6):
        spec = exampleN_operator(N)
        lam = MultiPoly.variable(spec.nvars, N + 1)
        out.append(
            CatalogEntry(
                f"exampleN-N{N}",
                "exampleN",
                f"irreducible {N}-component operator in {N} dimensions",
                spec,
                params=["lambda"],
                expected_segre=_type_key(((N,), "R")),
                expected_eigenvalues=[_eig(lam)],
                notes="constant bivectors e_mm stored as e_mm + eta "
                "(linear change of independent variables)",
            )
        )
    return out


def _constant_entry() -> CatalogEntry:
    g = LinearMetric.antidiagonal(2)
    gt = LinearMetric.constant([[1, 0], [0, 1]])
    one = MultiPoly.const(2, 1)
    return CatalogEntry(
        "constant-n2",
        "constant",
        "constant-coefficient two-component representative (diagonal affinor)",
        OperatorSpec([g, gt]),
        expected_segre=_type_key(((1,), "R"), ((1,), "R")),
        expected_eigenvalues=[_eig(one), _eig(-one)],
        notes="representative of the constant-reducible class used in "
        "negative/property tests",
    )


_CATALOG_CACHE: list[CatalogEntry] | None = None


def catalog() -> list[CatalogEntry]:
    """All catalog entries (built once, immutable afterwards)."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        entries = []
        entries.extend(_mokhov_entries())
        entries.extend(_theorem3_entries())
        entries.extend(_example2_entries())
        entries.extend(_theorem4_entries())
        entries.extend(_theorem7_entries())
        entries.extend(segre4_families())
        entries.extend(_theorem5_entries())
        entries.extend(_exampleN_entries())
        entries.append(_constant_entry())
        _CATALOG_CACHE = entries
    return _CATALOG_CACHE


def get_entry(entry_id: str) -> CatalogEntry:
    for e in catalog():
        if e.id == entry_id:
            return e
    raise KeyError(entry_id)


def find_entries(
    entry_id: str | None = None, n: int | None = None, d: int | None = None
) -> list[CatalogEntry]:
    out = []
    for e in catalog():
        if entry_id is not None and e.id != entry_id and e.family != entry_id:
            continue
        if n is not None and e.n != n:
            continue
        if d is not None and e.d != d:
            continue
        out.append(e)
    return out


MANIFEST_VERSION = 1


def catalog_manifest() -> dict:
    from .spectral import format_segre_type

    return {
        "version": MANIFEST_VERSION,
        "entries": [
            {
                "id": e.id,
                "family": e.family,
                "location": e.location,
                "n": e.n,
                "d": e.d,
                "params": list(e.params),
                "segre": format_segre_type(e.expected_segre)
                if e.expected_segre
                else None,
                "reducible": e.reducible,
            }
            for e in catalog()
        ],
    }
