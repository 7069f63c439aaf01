"""Solution families: Killing solvers, shifted bivectors, Lie-flow
normalization, scaling, and complexification.

Over a constant first metric g the Hamiltonian conditions on a linear second
metric are linear in its coefficients c^{ij}_k, apart from the quadratic
part of the Nijenhuis torsion.  The bivector solvers state no condition of
their own: they run ``geometry.killing_components`` and
``geometry.nijenhuis_components`` once, on derivatives d_k E whose entries
are the unknowns themselves, as variables of a polynomial ring.  Each
nonzero component is then a linear form in the unknowns, one equation row,
and the nullspace of the rows spans the linear parts.  The streams read
integer data (the metrics' coefficient arrays and the adjugate of g), which
scales every row by one nonzero constant and leaves the nullspace as it is.

The shifted symmetric bivectors

    mu(n;k)^{ij} = [3(i+j) - 2(n+2-k)] u^{i+j-1+k}

(u^a = 0 for a > n, and mu(n;k) = 0 for k > n-2) span, for each n, the linear
parts of all single-Jordan-block solutions over the antidiagonal metric; the
k = 0 member is the second metric of the Mokhov operator.  The flow fields
X_(k) act on that span with the ladder coefficients p[n,k,a] = 3k+1-n-2a
(``p_coeff``, the one statement of the ladder rule).  The normalization
pipeline kills the coefficient of mu(n;a+k) on every rung k whose ladder
coefficient is nonzero; the rung where it vanishes (``modulus_rung``) keeps
the one surviving modulus kappa of the normal forms of Theorems 4 (a = 0)
and 7 (a >= 1), which the catalog builds from the same rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import factorial, lcm

from .errors import NonSquareGamma, ScalingNotNormalized
from .geometry import killing_components, nijenhuis_components
from .linsolve import SparseSystem, mat_mul, nullspace, same_span
from .matrices import PolyMatrix
from .metrics import AffineArrays, LinearMetric, coefficient_arrays
from .poly import MultiPoly
from .scalars import rational_sqrt
from .verify import pair_conditions


# ---------------------------------------------------------------------------
# shifted bivectors and flow fields
# ---------------------------------------------------------------------------


def mu_bivector(n: int, k: int, nvars: int | None = None) -> PolyMatrix:
    """mu(n;k) as a symmetric polynomial matrix; zero for k > n-2."""
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 0:
        raise ValueError("need k >= 0")
    nvars = nvars or n
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            power = i + j - 1 + k
            coeff = 3 * (i + j) - 2 * (n + 2 - k)
            if k > n - 2 or power > n or coeff == 0:
                row.append(MultiPoly.zero(nvars))
            else:
                row.append(MultiPoly.variable(nvars, power) * Fraction(coeff))
        rows.append(row)
    return PolyMatrix(rows)


def jordan_gt0(n: int, lam, nvars: int | None = None) -> PolyMatrix:
    """Constant part gt0^{ij} = delta_{i+j,n} + lam * delta_{i+j,n+1}.

    lam may be a rational or a polynomial in the ring (formal parameter)."""
    nvars = nvars or n
    lam_poly = lam if isinstance(lam, MultiPoly) else MultiPoly.const(nvars, lam)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i + j == n:
                row.append(MultiPoly.const(nvars, 1))
            elif i + j == n + 1:
                row.append(lam_poly)
            else:
                row.append(MultiPoly.zero(nvars))
        rows.append(row)
    return PolyMatrix(rows)


def p_coeff(n: int, k: int, alpha: int) -> int:
    """Ladder coefficient p[n,k,alpha] = 3k + 1 - n - 2*alpha."""
    return 3 * k + 1 - n - 2 * alpha


def modulus_rung(n: int, alpha: int) -> int | None:
    """The rung k in 1..n-2-alpha with p[n,k,alpha] = 0, or None.

    The flow X_(k) cannot move the coefficient of mu(n;alpha+k) on this rung,
    so it is the surviving modulus kappa of the single-block normal form
    mu(n;alpha) + kappa mu(n;alpha+k) (+ gt0)."""
    return next((k for k in range(1, n - 1 - alpha) if not p_coeff(n, k, alpha)), None)


def flow_field(n: int, k: int, nvars: int | None = None) -> list[MultiPoly]:
    """X_(k) = sum_{i=1}^{n-k} (n-k+1-2i) u^{i+k} d_i, for k = 1..n-2."""
    if not 1 <= k <= n - 2:
        raise ValueError("flow index k must satisfy 1 <= k <= n-2")
    nvars = nvars or n
    X = [MultiPoly.zero(nvars) for _ in range(n)]
    for i in range(1, n - k + 1):
        X[i - 1] = MultiPoly.variable(nvars, i + k) * Fraction(n - k + 1 - 2 * i)
    return X


# ---------------------------------------------------------------------------
# Killing solvers for a constant metric
# ---------------------------------------------------------------------------


@dataclass
class KillingBasis:
    """Basis of affine Killing fields X = A u + c of a constant metric.

    The full isometry algebra of a non-degenerate constant metric has
    dimension n(n+1)/2: n(n-1)/2 rotational fields plus n translations."""

    n: int
    vectors: list          # list of vector fields, each a list[MultiPoly]
    rotational_count: int

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _integer_constant(arrays) -> list[list[int]]:
    """The int matrix M0 = D m of a rational constant matrix m, from its
    coefficient arrays (D, [M0, ..., Mn]) (``coefficient_arrays``); an
    entry that involves u or a formal parameter is refused."""
    form = arrays and AffineArrays(arrays[1])
    if not form or form.terms or form.symbolic:
        raise ValueError("metric entry is not a plain rational constant")
    return arrays[1][0]


def killing_vector_basis(g: LinearMetric) -> KillingBasis:
    """All affine fields with Lie_X g = 0: solve A G + G A^T = 0 on G = D g,
    c free.  Each nullspace vector holds the entries of one A, and its
    field X = A u is built from them over their common denominator
    (``MultiPoly.from_affine_parts``); the n translations follow."""
    if not g.is_constant():
        raise ValueError("killing_vector_basis needs a constant metric")
    n = g.n
    gv = _integer_constant(g.arrays)
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [0] * (n * n)
            for s in range(n):
                row[i * n + s] += gv[s][j]
                row[j * n + s] += gv[i][s]
            rows.append(row)
    nvars = g.nvars
    vectors = []
    for vec in nullspace(rows, n * n):
        D = lcm(*(x.denominator for x in vec))
        a = [x.numerator * (D // x.denominator) for x in vec]
        vectors.append([MultiPoly.from_affine_parts(nvars, D, [0, *a[i * n:i * n + n]])
                        for i in range(n)])
    rotational = len(vectors)
    for gamma in range(n):
        vectors.append([MultiPoly.const(nvars, int(i == gamma)) for i in range(n)])
    return KillingBasis(n, vectors, rotational)


def proposition_field(n: int, alpha: int, beta: int, nvars: int | None = None):
    """X_(alpha,beta) = u^alpha d_beta - u^{n+1-beta} d_{n+1-alpha}
    (isometry of the antidiagonal metric for alpha + beta < n + 1)."""
    nvars = nvars or n
    X = [MultiPoly.zero(nvars) for _ in range(n)]
    X[beta - 1] = X[beta - 1] + MultiPoly.variable(nvars, alpha)
    X[n - alpha] = X[n - alpha] - MultiPoly.variable(nvars, n + 1 - beta)
    return X


class _BivectorIndex:
    """Flat layout for linear-bivector unknowns: c^{ij}_k for i<=j, k=1..n,
    followed (optionally) by constant entries g0^{ij} for i<=j.  Unknown t
    is also variable t + 1 of a polynomial ring in ``total`` variables,
    which is how the condition streams carry it (``dE``)."""

    def __init__(self, n: int, with_constant: bool = False):
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self.pair_pos = {p: t for t, p in enumerate(self.pairs)}
        self.c_count = len(self.pairs) * n
        self.with_constant = with_constant
        self.total = self.c_count + (len(self.pairs) if with_constant else 0)

    def c_idx(self, i: int, j: int, k: int) -> int:
        if i > j:
            i, j = j, i
        return self.pair_pos[(i, j)] * self.n + k

    def g0_idx(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.c_count + self.pair_pos[(i, j)]

    @cached_property
    def dE(self) -> list:
        """[d_1 E, ..., d_n E] of the unknown bivector E: d_{k+1} E^{ij} is
        the ring variable of c^{ij}_k."""
        n, total = self.n, self.total
        return [[[MultiPoly.variable(total, self.c_idx(i, j, k) + 1) for j in range(n)]
                 for i in range(n)] for k in range(n)]

    def solve(self, stream, nvars: int) -> list[PolyMatrix]:
        """Bivectors in ``nvars`` variables spanning the solutions of a
        condition stream that is linear in the unknowns: each nonzero
        component is one equation row, read off its linear part, and each
        vector of the nullspace basis gives one bivector."""
        system = SparseSystem(self.total)
        for _, form in stream:
            if form:
                parts = form.affine_parts(self.total)[1]
                system.add_row({t: x for t, x in enumerate(parts[1:]) if x})
        return [self.to_bivector(v, nvars) for v in system.nullspace_basis()]

    def to_bivector(self, vec: dict, nvars: int) -> PolyMatrix:
        """The bivector in ``nvars`` variables of a sparse vector of the
        unknowns' values, each entry built from its arrays over the
        vector's common denominator."""
        n = self.n
        D = lcm(*(x.denominator for x in vec.values()))
        parts = {}
        for t, x in vec.items():
            pos, k = divmod(t, n) if t < self.c_count else (t - self.c_count, -1)
            entry = parts.setdefault(self.pairs[pos], [0] * (n + 1))
            entry[k + 1] = x.numerator * (D // x.denominator)
        entries = {p: MultiPoly.from_affine_parts(nvars, D, v) for p, v in parts.items()}
        zero = MultiPoly.zero(nvars)
        return PolyMatrix(
            [[entries.get((min(i, j), max(i, j)), zero) for j in range(n)] for i in range(n)]
        )

    def from_bivector(self, mat: PolyMatrix) -> list[Fraction]:
        """The unknowns' values for a rational bivector at most linear in u,
        read off its coefficient arrays."""
        D, M = coefficient_arrays(mat, self.n)
        vec = [Fraction(0)] * self.total
        for i, j in self.pairs:
            for k in range(self.n):
                vec[self.c_idx(i, j, k)] = Fraction(M[k + 1][i][j], D)
            if self.with_constant:
                vec[self.g0_idx(i, j)] = Fraction(M[0][i][j], D)
        return vec


def killing_bivector_space(g: LinearMetric) -> list[PolyMatrix]:
    """Basis of degree-<=1 symmetric bivectors h with killing_residual(g,h)=0.

    For constant g the condition is linear in the u-coefficients of h and
    leaves the constant part free; linear members come first (deterministic
    RREF order) followed by the constant unit bivectors."""
    if not g.is_constant():
        raise ValueError("killing_bivector_space needs a constant metric")
    idx = _BivectorIndex(g.n, with_constant=True)
    return idx.solve(_killing_stream(g, idx), g.nvars)


def symmetrized_product(X, Y) -> PolyMatrix:
    """Bivector X^i Y^j + X^j Y^i of two vector fields."""
    n = len(X)
    return PolyMatrix(
        [[X[i] * Y[j] + X[j] * Y[i] for j in range(n)] for i in range(n)]
    )


# ---------------------------------------------------------------------------
# family solvers
# ---------------------------------------------------------------------------


@dataclass
class SolutionFamily:
    """Affine family gt0 + span(basis) of second metrics over a fixed g."""

    g: LinearMetric
    gt0: PolyMatrix
    basis: list  # list[PolyMatrix], linear in u
    verified: bool = False

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def member(self, kappas) -> PolyMatrix:
        mat = self.gt0
        for k, b in zip(kappas, self.basis):
            if k:
                mat = mat + b.scale(Fraction(k))
        return mat

    def formal_metric(self) -> LinearMetric:
        """g-tilde with one fresh formal parameter per basis element."""
        n = self.g.n
        base = self.g.nvars
        nvars = base + len(self.basis)
        mat = self.gt0.map(lambda p: p.extended(nvars))
        for t, b in enumerate(self.basis):
            kappa = MultiPoly.variable(nvars, base + t + 1)
            mat = mat + b.map(lambda p: p.extended(nvars)).scale(kappa)
        return LinearMetric(n, mat)

    def formal_g(self) -> LinearMetric:
        return self.g.extended(self.g.nvars + len(self.basis))


def _killing_stream(g: LinearMetric, idx: _BivectorIndex):
    """``killing_components`` of the constant g, read as G0 = D g, and the
    unknown bivector E: the terms E d g vanish because dg = 0, so E enters
    only through dE, and zero stands in for its values (its rows list no
    nonzero entry)."""
    n = g.n
    zero = [[0] * n for _ in range(n)]
    return killing_components(_integer_constant(g.arrays), [zero] * n, zero, idx.dE, n)


def _nijenhuis_stream(g: LinearMetric, gt0: PolyMatrix, idx: _BivectorIndex):
    """The Nijenhuis condition linearized around the constant affinor
    L0 = gt0 g^{-1}: since d L0 = 0, ``nijenhuis_components(L0, d L_E)`` is
    N(L0 + L_E) - N(L_E) for L_E = E g^{-1}.  It reads the integer
    multiples (D' gt0) adj G and d E adj G of L0 and d L_E (G = D g), so
    every component is scaled by one nonzero constant."""
    n = g.n
    adj = g.constant_inverse_parts()[1]
    L0 = mat_mul(_integer_constant(coefficient_arrays(gt0, n)), adj)
    return nijenhuis_components(L0, [mat_mul(d, adj) for d in idx.dE], n)


def _verify_family(family: SolutionFamily) -> None:
    """Check the three pair conditions identically in the formal parameters
    (this includes the full quadratic part of the Nijenhuis condition)."""
    try:
        gt = family.formal_metric()
    except ValueError as ex:
        raise ValueError(
            f"the family's formal second metric gt0 + sum kappa_t b_t (dimension "
            f"{family.dimension}) is identically degenerate (det = 0)") from ex
    g = family.formal_g()
    results = pair_conditions(g, gt, None)
    bad = [r.name for r in results if not r.passed]
    if bad:
        raise ValueError(f"family fails {bad} for formal parameters")
    family.verified = True


def solve_linear_conditions(
    g: LinearMetric, gt0: PolyMatrix, verify: bool = True
) -> SolutionFamily:
    """The family gt0 + span(basis) over the constant metric g: the basis
    spans the linear bivectors E that are Killing for g and solve the
    Nijenhuis condition linearized around the constant gt0.  With
    ``verify`` the three pair conditions, the quadratic part of Nijenhuis
    included, are checked with formal parameters."""
    if not g.is_constant():
        raise ValueError("solve_linear_conditions needs a constant first metric")
    idx = _BivectorIndex(g.n)
    stream = chain(_killing_stream(g, idx), _nijenhuis_stream(g, gt0, idx))
    family = SolutionFamily(g, gt0, idx.solve(stream, g.nvars))
    if verify:
        _verify_family(family)
    return family


def solve_jordan_family(n: int, lam=Fraction(0), verify: bool = True) -> SolutionFamily:
    """Single-Jordan-block family over the antidiagonal metric: the
    ``solve_linear_conditions`` family around ``jordan_gt0(n, lam)``, which
    is asserted to have dimension n - 1 and the span of mu(n;0), ...,
    mu(n;n-2).  The linearized conditions do not depend on lam."""
    if n < 2:
        raise ValueError("need n >= 2")
    family = solve_linear_conditions(
        LinearMetric.antidiagonal(n), jordan_gt0(n, lam), verify=False
    )
    idx = _BivectorIndex(n)
    mu_span = [idx.from_bivector(mu_bivector(n, m)) for m in range(n - 1)]
    if not same_span(mu_span, [idx.from_bivector(b) for b in family.basis]):
        raise AssertionError("jordan family span differs from the mu(n;m) span")
    if family.dimension != n - 1:
        raise AssertionError(f"jordan family dimension {family.dimension} != n-1")
    if verify:
        _verify_family(family)
    return family


# ---------------------------------------------------------------------------
# normalization pipeline
# ---------------------------------------------------------------------------


@dataclass
class JordanFamilyCoeffs:
    """Coefficients xi_0..xi_{n-2} of gt = gt0 + sum xi_m mu(n;m)."""

    n: int
    xi: list
    lam: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.xi) != self.n - 1:
            raise ValueError("xi must have length n-1")
        self.xi = [Fraction(x) for x in self.xi]
        self.lam = Fraction(self.lam)

    def to_bivector(self, nvars: int | None = None, include_gt0: bool = True) -> PolyMatrix:
        nvars = nvars or self.n
        mat = jordan_gt0(self.n, self.lam, nvars) if include_gt0 else None
        for m, x in enumerate(self.xi):
            if not x:
                continue
            term = mu_bivector(self.n, m, nvars).scale(x)
            mat = term if mat is None else mat + term
        if mat is None:
            mat = PolyMatrix.zeros(self.n, self.n, nvars)
        return mat

    def eigenvalue(self, nvars: int | None = None) -> MultiPoly:
        """Eigenvalue of the affinor: xi_0 (n-1) u^n + lam."""
        nvars = nvars or self.n
        return (
            MultiPoly.variable(nvars, self.n) * (self.xi[0] * (self.n - 1))
            + MultiPoly.const(nvars, self.lam)
        )


def apply_flow(n: int, xi: list, k: int, t: Fraction) -> list:
    """exp(t * Lie_{X_(k)}) on mu-span coefficients; exact and terminating
    because mu(n;m) = 0 beyond m = n-2."""
    t = Fraction(t)
    out = []
    for beta in range(len(xi)):
        acc = xi[beta]
        m = 1
        while beta - m * k >= 0:
            src = beta - m * k
            if xi[src]:
                p = p_coeff(n, k, src)
                prod = Fraction(1)
                for s in range(m):
                    prod *= p - 2 * k * s
                acc += t**m / factorial(m) * xi[src] * prod
            m += 1
        out.append(acc)
    return out


def _flow_loop(n: int, xi: list, base: int):
    transcript = []
    xi = list(xi)
    for k in range(1, n - 1 - base):
        p = p_coeff(n, k, base)
        if p == 0:
            transcript.append((k, None))
            continue
        t = -xi[base + k] / p
        if t:
            xi = apply_flow(n, xi, k, t)
        transcript.append((k, t))
    return xi, transcript


def lie_flow_normalize(coeffs: JordanFamilyCoeffs):
    """Normal form of a non-constant-eigenvalue family member with xi_0 = 1.

    Successively kills the coefficient of mu(n;k) with the flow exp(t_k
    Lie_{X_(k)}) whenever p[n,k,0] != 0; the skipped rung
    (``modulus_rung(n, 0)``) carries the one surviving modulus."""
    if coeffs.xi[0] != 1:
        raise ScalingNotNormalized("xi_0 must be normalized to 1")
    xi, transcript = _flow_loop(coeffs.n, coeffs.xi, 0)
    return JordanFamilyCoeffs(coeffs.n, xi, coeffs.lam), transcript


def lie_flow_normalize_constant_eig(coeffs: JordanFamilyCoeffs):
    """Constant-eigenvalue normal form: leading nonzero xi_alpha must be 1.

    Returns (normalized coeffs, transcript, alpha, m) where the family is
    mu(n;alpha) + kappa*mu(n;alpha+m) + gt0 when the ladder has a rung m =
    ``modulus_rung(n, alpha)`` whose coefficient vanishes (the one flow the
    transcript skips), and mu(n;alpha) + gt0 when it has none (m is None)."""
    alpha = next((i for i, x in enumerate(coeffs.xi) if x), None)
    if alpha is None or alpha == 0:
        raise ScalingNotNormalized(
            "constant-eigenvalue mode needs xi_0 = 0 and some xi_alpha != 0"
        )
    if coeffs.xi[alpha] != 1:
        raise ScalingNotNormalized("leading coefficient xi_alpha must be 1")
    n = coeffs.n
    xi, transcript = _flow_loop(n, coeffs.xi, alpha)
    return JordanFamilyCoeffs(n, xi, coeffs.lam), transcript, alpha, modulus_rung(n, alpha)


def scaling_action(n: int, k: int, gamma) -> Fraction:
    """Exact factor gamma^((n-1)/2 + k) of the scaling v^i = gamma^{(n+1)/2-i} u^i
    on mu(n;k); even n needs gamma to be a rational square."""
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    e2 = n - 1 + 2 * k  # twice the exponent
    if e2 % 2 == 0:
        return gamma ** (e2 // 2)
    s = rational_sqrt(gamma)
    if s is None:
        raise NonSquareGamma(
            f"gamma^({e2}/2) needs a rational square root of {gamma}"
        )
    return s**e2


# ---------------------------------------------------------------------------
# complexification
# ---------------------------------------------------------------------------


def complexify_matrix(entries) -> PolyMatrix:
    """Real 2m x 2m bivector from an m x m complex one.

    entries[i][j] is the pair (a, b) of MultiPoly for the complex entry
    a + i b, written in the doubled real variables (z^k = u^{2k-1} + i u^{2k}).
    Each entry becomes the block [[-b, a], [a, b]]."""
    m = len(entries)
    nvars = entries[0][0][0].nvars
    zero = MultiPoly.zero(nvars)
    rows = [[zero] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            a, b = entries[i][j]
            rows[2 * i][2 * j] = -b
            rows[2 * i][2 * j + 1] = a
            rows[2 * i + 1][2 * j] = a
            rows[2 * i + 1][2 * j + 1] = b
    return PolyMatrix(rows)
