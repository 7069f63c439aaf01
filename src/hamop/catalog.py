"""Catalog of named canonical operators and metric families.

Every entry stores exact matrices transcribed from the classification
(locations refer to the numbered statements of the underlying classification
of 2D/3D operators), the expected Segre data at generic points, and the
expected affinor eigenvalues as exact polynomials.  Free constants (lambda,
kappa_i) are carried as formal polynomial variables appended after u1..un,
so "passes for all parameter values" is a single polynomial identity; the
CLI specializes them to rationals when emitting spec files.  A constructor
parameter given as None is such a formal variable, and any other value is
that constant; free parameters take the ring slots after u1..un in the
order the constructor lists them (kappa before lambda).

The single-Jordan-block normal forms mu(n;alpha) + kappa mu(n;alpha+m) +
gt0(lambda) of Theorems 4 and 7 and of the N-dimensional example come from
one builder; the kappa term sits on ``families.modulus_rung(n, alpha)``,
the rung the Lie-flow normalizer skips, and is absent when there is none.

Entries whose published form has degenerate individual metrics (the 3D
operators and the N-dimensional example, where some coefficient matrices are
rank one) are stored after an invertible linear recombination of the metric
tuple, which corresponds to a linear change of the independent variables and
preserves Hamiltonianity; the recombination is recorded in the entry notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .families import complexify_matrix, jordan_gt0, modulus_rung, mu_bivector
from .matrices import PolyMatrix
from .metrics import LinearMetric, OperatorSpec
from .poly import MultiPoly
from .spectral import format_segre_type, segre_key


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


def _formal_or(value, nvars: int, slots) -> MultiPoly:
    """The constant ``value``, or, if it is None, the formal variable on the
    next ring slot of the iterator ``slots``."""
    if value is None:
        return MultiPoly.variable(nvars, next(slots))
    return MultiPoly.const(nvars, value)


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
    lam_poly = _formal_or(lam, nvars, iter([n + 1]))
    gt = LinearMetric(n, mu_bivector(n, 1, nvars) + g.mat.scale(lam_poly))
    return OperatorSpec([g, gt])


def _single_block(n: int, alpha: int, kappa=None, lam=None, gt0: bool = True,
                  names=("kappa", "lambda")):
    """(spec, free parameter names) of the normal form
    mu(n;alpha) + kappa mu(n;alpha+m) + gt0(lam) over the antidiagonal metric.

    The kappa term is there only when m = ``modulus_rung(n, alpha)`` exists,
    the gt0 term only when ``gt0``.  A parameter given as None is formal;
    the free ones take ring slots n+1, n+2, ... in the order kappa, lambda,
    and ``names`` are their names."""
    m = modulus_rung(n, alpha)
    given = [(names[0], kappa)] if m is not None else []
    if gt0:
        given.append((names[1], lam))
    free = [name for name, value in given if value is None]
    nvars = n + len(free)
    slots = iter(range(n + 1, nvars + 1))
    mat = mu_bivector(n, alpha, nvars)
    if m is not None:
        mat = mat + mu_bivector(n, alpha + m, nvars).scale(_formal_or(kappa, nvars, slots))
    if gt0:
        mat = mat + jordan_gt0(n, _formal_or(lam, nvars, slots), nvars)
    return OperatorSpec([LinearMetric.antidiagonal(n, nvars), LinearMetric(n, mat)]), free


def theorem4_metric(n: int, kappa1=None, lam=None) -> OperatorSpec:
    """Single-Jordan-block normal forms with non-constant eigenvalue:
    mu(n;0) + kappa1*mu(n;m) on the rung m = ``modulus_rung(n, 0)`` (n = 1
    mod 3), mu(n;0) when there is none; n = 4 adds gt0(lam)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _theorem4(n, kappa1, lam)[0]


def _theorem4(n: int, kappa1=None, lam=None):
    """(spec, free parameter names) of Theorem 4's normal form."""
    return _single_block(n, 0, kappa1, lam, gt0=n == 4, names=("kappa1", "lambda"))


def theorem7_metric(n: int, alpha: int, kappa=None, lam=None) -> OperatorSpec:
    """Constant-eigenvalue single-block normal forms:
    mu(n;alpha) + kappa*mu(n;alpha+m) + gt0 on the rung m =
    ``modulus_rung(n, alpha)``, mu(n;alpha) + gt0 when there is none."""
    if not 1 <= alpha <= n - 2:
        raise ValueError("need 1 <= alpha <= n-2")
    return _single_block(n, alpha, kappa, lam)[0]


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
    spec = _single_block(N, N - 2, lam=lam)[0]
    metrics = list(spec.metrics)
    for m in range(1, N - 1):
        emm = PolyMatrix.from_scalars(
            spec.nvars, [[1 if (i == j == m - 1) else 0 for j in range(N)] for i in range(N)]
        )
        metrics.append(LinearMetric(N, emm + spec.g.mat))
    return OperatorSpec(metrics)


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------


def _eig(re: MultiPoly, im: MultiPoly | None = None):
    return (re, im if im is not None else MultiPoly.zero(re.nvars))


def theorem3_operators() -> list[CatalogEntry]:
    # case 1 (constant eigenvalue) with formal lambda
    nvars = 4
    u = _vars(nvars)
    lam = u[3]
    g = LinearMetric.antidiagonal(3, nvars)
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
        expected_segre=segre_key(((3,), "R")),
        expected_eigenvalues=[_eig(lam)],
    )
    # case 2 (non-constant eigenvalue), parameter-free
    u3 = _vars(3)
    z3 = MultiPoly.zero(3)
    h = Fraction(1, 2)
    g3 = LinearMetric.antidiagonal(3)
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
        expected_segre=segre_key(((3,), "R")),
        expected_eigenvalues=[_eig(u3[2])],
    )
    return [case1, case2]


def _segre4_branches():
    """(id, location, data(nvars), combo) of each 4-component normal form
    gt0(lam) + sum factor * gts[index], combo listing (factor, index) pairs;
    a factor "k<t>" is the formal kappa_t, any other is that constant."""
    yield "s22-case1", "Segre [2,2], case 1 normal form", lambda nv: _s22_data(1, nv), [
        ("k1", 0), ("k2", 1)]
    for name, combo in [
        ("b1", [("k1", 0), ("k2", 3)]),
        ("b2", [("k1", 1), ("k2", 2)]),
        ("b3p", [(1, 1), (1, 3)]),
        ("b3m", [(1, 1), (-1, 3)]),
        ("b4p", [(1, 0), (1, 2), ("k1", 3)]),
        ("b4m", [(1, 0), (-1, 2), ("k1", 3)]),
    ]:
        yield (f"s22-case2-{name}", f"Segre [2,2], case 2 normal form, branch {name}",
               lambda nv: _s22_data(2, nv), combo)
    for case in (1, 2):
        for name, combo in [
            ("b1", [("k1", 1), ("k2", 2)]),
            ("b2", [("k1", 2), ("k2", 3)]),
            ("b3", [("k1", 0), ("k2", 1), ("k3", 3)]),
        ]:
            yield (f"s31-case{case}-{name}", f"Segre [3,1], case {case} normal form, branch {name}",
                   lambda nv, case=case: _s31_data(case, nv), combo)
    yield "s4-nonconstant", "Segre [4], non-constant eigenvalue normal form", _s4_data, [
        (1, 0), ("k1", 1)]
    yield "s4-const-b1", "Segre [4], constant eigenvalue, branch 1", _s4_data, [(1, 1)]
    yield "s4-const-b2", "Segre [4], constant eigenvalue, branch 2", _s4_data, [("k1", 2)]


def segre4_families() -> list[CatalogEntry]:
    """All 4-component normal-form branches with formal parameters."""
    entries = []
    h = Fraction(1, 2)
    # family -> (partition, eigenvalue from the factors c of gts, u and lam)
    families = {
        "s22": ((2, 2), lambda c, u, lam: h * (c[2] * u[3] - c[0] * u[1]) + lam),
        "s31": ((3, 1), lambda c, u, lam: lam - c[0] * u[2]),
        "s4": ((4,), lambda c, u, lam: h * c[0] * u[3] + lam),
    }
    for eid, location, data, combo in _segre4_branches():
        nk = sum(isinstance(k, str) for k, _ in combo)
        nvars = 4 + nk + 1
        g, gt0, gts = data(nvars)
        u = _vars(nvars)
        c = [MultiPoly.zero(nvars)] * len(gts)
        mat = gt0(u[-1])
        for k, idx in combo:
            c[idx] = u[3 + int(k[1:])] if isinstance(k, str) else MultiPoly.const(nvars, k)
            mat = mat + gts[idx].scale(c[idx])
        family = eid.split("-")[0]
        partition, eig = families[family]
        entries.append(
            CatalogEntry(
                eid,
                family,
                "four-component, " + location,
                OperatorSpec([g, LinearMetric(4, mat)]),
                params=[f"kappa{t+1}" for t in range(nk)] + ["lambda"],
                expected_segre=segre_key((partition, "R")),
                expected_eigenvalues=[_eig(eig(c, u, u[-1]))],
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
            expected_segre=segre_key(((2,), "C"), ((2,), "C")),
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
            segre = segre_key(((2, 2), "R"))
        else:
            segre = segre_key(((n,), "R"))
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
                expected_segre=segre_key(((n,), "R")),
                expected_eigenvalues=[_eig(lam)],
            )
        )
    return out


def _theorem4_entries() -> list[CatalogEntry]:
    out = []
    for n in range(3, 8):
        spec, params = _theorem4(n)
        eig = MultiPoly.variable(spec.nvars, n) * (n - 1)
        if "lambda" in params:
            eig = eig + MultiPoly.variable(spec.nvars, spec.nvars)
        out.append(
            CatalogEntry(
                f"thm4-n{n}",
                "thm4",
                f"single Jordan block, non-constant eigenvalue, n={n} normal form",
                spec,
                params=params,
                expected_segre=segre_key(((n,), "R")),
                expected_eigenvalues=[_eig(eig)],
            )
        )
    return out


def _theorem7_entries() -> list[CatalogEntry]:
    out = []
    for n in range(3, 7):
        for alpha in range(1, n - 1):
            spec, params = _single_block(n, alpha)
            lam = MultiPoly.variable(spec.nvars, spec.nvars)
            out.append(
                CatalogEntry(
                    f"thm7-n{n}-a{alpha}",
                    "thm7",
                    f"single Jordan block, constant eigenvalue, n={n}, leading "
                    f"coefficient at mu({n};{alpha})",
                    spec,
                    params=params,
                    expected_segre=segre_key(((n,), "R")),
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
            expected_segre=segre_key(((3,), "R")),
            expected_eigenvalues=[_eig(one3)],
            notes="metrics stored as (eta, mu(3;1)+eta, e11+eta); adding eta "
            "is a linear change of independent variables",
        ),
        CatalogEntry(
            "thm5-3d-2",
            "thm5",
            "three-component 3D operator, reducible case",
            second,
            expected_segre=segre_key(((2,), "R"), ((1,), "R")),
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
                expected_segre=segre_key(((N,), "R")),
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
        expected_segre=segre_key(((1,), "R"), ((1,), "R")),
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
        entries.extend(theorem3_operators())
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


def catalog_manifest(entries: list[CatalogEntry] | None = None) -> dict:
    """The manifest of ``entries``, by default the whole catalog."""
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
            for e in (catalog() if entries is None else entries)
        ],
    }
