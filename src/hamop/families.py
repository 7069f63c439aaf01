"""Solution families: Killing solvers, shifted bivectors, Lie-flow
normalization, scaling, and complexification.

The shifted symmetric bivectors

    mu(n;k)^{ij} = [3(i+j) - 2(n+2-k)] u^{i+j-1+k}

(u^a = 0 for a > n, and mu(n;k) = 0 for k > n-2) span, for each n, the linear
parts of all single-Jordan-block solutions over the antidiagonal metric; the
k = 0 member is the second metric of the Mokhov operator.  The flow fields
X_(k) act on that span with the ladder coefficients p[n,k,a] = 3k+1-n-2a,
which is what the normalization pipeline exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import NonSquareGamma, ScalingNotNormalized
from .geometry import killing_residual, lie_derivative_bivector, nijenhuis_torsion
from .linsolve import SparseSystem, nullspace, same_span
from .matrices import PolyMatrix
from .metrics import LinearMetric
from .poly import MultiPoly
from .scalars import rational_sqrt
from .verify import constant_inverse, pair_conditions


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


def _const_value(p: MultiPoly) -> Fraction:
    if not p.is_constant():
        raise ValueError("metric entry is not a plain rational constant")
    return p.constant_value()


def killing_vector_basis(g: LinearMetric) -> KillingBasis:
    """All affine fields with Lie_X g = 0: solve A g + g A^T = 0, c free."""
    if not g.is_constant():
        raise ValueError("killing_vector_basis needs a constant metric")
    n = g.n
    gv = [[_const_value(g.mat[i, j]) for j in range(n)] for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [Fraction(0)] * (n * n)
            for s in range(n):
                row[i * n + s] += gv[s][j]
                row[j * n + s] += gv[i][s]
            rows.append(row)
    basis = nullspace(rows, n * n)
    nvars = g.nvars
    u = [MultiPoly.variable(nvars, k + 1) for k in range(n)]
    vectors = []
    for vec in basis:
        X = []
        for i in range(n):
            acc = MultiPoly.zero(nvars)
            for j in range(n):
                if vec[i * n + j]:
                    acc = acc + u[j] * vec[i * n + j]
            X.append(acc)
        vectors.append(X)
    rotational = len(vectors)
    for gamma in range(n):
        X = [MultiPoly.zero(nvars) for _ in range(n)]
        X[gamma] = MultiPoly.const(nvars, 1)
        vectors.append(X)
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
    followed (optionally) by constant entries g0^{ij} for i<=j."""

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

    def to_bivector(self, vec, nvars: int) -> PolyMatrix:
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                p = MultiPoly.zero(nvars)
                for k in range(n):
                    coeff = vec[self.c_idx(i, j, k)]
                    if coeff:
                        p = p + MultiPoly.variable(nvars, k + 1) * coeff
                if self.with_constant:
                    c0 = vec[self.g0_idx(i, j)]
                    if c0:
                        p = p + MultiPoly.const(nvars, c0)
                row.append(p)
            rows.append(row)
        return PolyMatrix(rows)

    def from_bivector(self, mat: PolyMatrix):
        n = self.n
        vec = [Fraction(0)] * self.total
        zeros = {k: Fraction(0) for k in range(1, n + 1)}
        for i in range(n):
            for j in range(i, n):
                p = mat[i, j]
                for k in range(n):
                    vec[self.c_idx(i, j, k)] = _const_value(p.partial(k + 1))
                if self.with_constant:
                    vec[self.g0_idx(i, j)] = _const_value(p.substitute(zeros))
        return vec


def killing_bivector_space(g: LinearMetric) -> list[PolyMatrix]:
    """Basis of degree-<=1 symmetric bivectors h with killing_residual(g,h)=0.

    For constant g the condition is linear in the u-coefficients of h and
    leaves the constant part free; linear members come first (deterministic
    RREF order) followed by the constant unit bivectors."""
    if not g.is_constant():
        raise ValueError("killing_bivector_space needs a constant metric")
    idx = _BivectorIndex(g.n, with_constant=True)
    basis = nullspace(_killing_rows_constant_g(g, idx), idx.total)
    return [idx.to_bivector(v, g.nvars) for v in basis]


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


def _nijenhuis_bilinear_rows(g: LinearMetric, gt0: PolyMatrix, idx: _BivectorIndex):
    """Columns of the linearized Nijenhuis condition around L0 = gt0 g^{-1}.

    For each unknown basis bivector E the bilinear part of N(L0 + L_E) is
    constant in u; its components give one equation row per (k, i<j)."""
    n = g.n
    nvars = g.nvars
    gcov = constant_inverse(g)
    L0 = gt0 @ gcov
    ncomp = [(k, i, j) for k in range(n) for i in range(n) for j in range(i + 1, n)]
    columns = []
    for col in range(idx.c_count):
        vec = [Fraction(0)] * idx.total
        vec[col] = Fraction(1)
        E = idx.to_bivector(vec, nvars)
        LE = E @ gcov
        n_full = nijenhuis_torsion(L0 + LE, n)
        n_quad = nijenhuis_torsion(LE, n)
        columns.append(
            [
                (n_full[k][i][j] - n_quad[k][i][j]).constant_value()
                for (k, i, j) in ncomp
            ]
        )
    rows = []
    for r in range(len(ncomp)):
        row = [columns[c][r] for c in range(idx.c_count)]
        if any(row):
            rows.append(row)
    return rows


def _killing_rows_constant_g(g: LinearMetric, idx: _BivectorIndex):
    """The Killing condition of a constant g on the unknowns of ``idx``, one
    row per i <= j <= k; it involves only the linear coefficients, so the
    constant columns (when ``idx`` has them) stay zero."""
    n = g.n
    gv = [[_const_value(g.mat[i, j]) for j in range(n)] for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                row = [Fraction(0)] * idx.total
                for s in range(n):
                    for (a, b, c) in ((i, j, k), (j, i, k), (k, i, j)):
                        if gv[a][s]:
                            row[idx.c_idx(b, c, s)] += gv[a][s]
                if any(row):
                    rows.append(row)
    return rows


def _verify_family(family: SolutionFamily) -> None:
    """Check the three pair conditions identically in the formal parameters
    (this includes the full quadratic part of the Nijenhuis condition)."""
    gt = family.formal_metric()
    g = family.formal_g()
    results = pair_conditions(g, gt, None)
    bad = [r.name for r in results if not r.passed]
    if bad:
        raise ValueError(f"family fails {bad} for formal parameters")
    family.verified = True


def solve_linear_conditions(
    g: LinearMetric, gt0: PolyMatrix, verify: bool = True
) -> SolutionFamily:
    """General solution of the joint linear system (Killing + symmetry +
    linearized Nijenhuis around gt0) for the linear part of the second
    metric, verified against the quadratic Nijenhuis condition with formal
    parameters."""
    if not g.is_constant():
        raise ValueError("solve_linear_conditions needs a constant first metric")
    n = g.n
    idx = _BivectorIndex(n)
    rows = _killing_rows_constant_g(g, idx)
    rows.extend(_nijenhuis_bilinear_rows(g, gt0, idx))
    basis_vecs = nullspace(rows, idx.c_count)
    basis = [idx.to_bivector(v, g.nvars) for v in basis_vecs]
    family = SolutionFamily(g, gt0, basis)
    if verify:
        _verify_family(family)
    return family


def solve_jordan_family(n: int, lam=Fraction(0), verify: bool = True) -> SolutionFamily:
    """Single-Jordan-block family over the antidiagonal metric.

    Builds the three quoted linear equation systems on the affinor
    coefficients c^k_{ij} (linearized Nijenhuis, bivector symmetry, Killing),
    solves the sparse nullspace, checks the quadratic Nijenhuis part on the
    result, and asserts the span equals {mu(n;0), ..., mu(n;n-2)}."""
    if n < 2:
        raise ValueError("need n >= 2")
    N3 = n * n * n

    def cidx(k: int, i: int, j: int) -> int:
        # 1-based tensor indices to flat 0-based
        return ((k - 1) * n + (i - 1)) * n + (j - 1)

    sys = SparseSystem(N3)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                # linearized Nijenhuis: c^k_{j,i-1} - c^k_{i,j-1}
                #                      + c^{k+1}_{ij} - c^{k+1}_{ji} = 0
                row: dict[int, Fraction] = {}

                def bump(idx_, val):
                    row[idx_] = row.get(idx_, Fraction(0)) + val

                if i >= 2:
                    bump(cidx(k, j, i - 1), Fraction(1))
                if j >= 2:
                    bump(cidx(k, i, j - 1), Fraction(-1))
                if k <= n - 1:
                    bump(cidx(k + 1, i, j), Fraction(1))
                    bump(cidx(k + 1, j, i), Fraction(-1))
                sys.add_row(row)
                # symmetry: c^{n+1-i}_{jk} = c^{n+1-j}_{ik}
                row2: dict[int, Fraction] = {}
                row2[cidx(n + 1 - i, j, k)] = Fraction(1)
                a2 = cidx(n + 1 - j, i, k)
                row2[a2] = row2.get(a2, Fraction(0)) - 1
                sys.add_row(row2)
                # Killing: c^{n+1-i}_{jk} + c^{n+1-k}_{ij} + c^{n+1-j}_{ki} = 0
                row3: dict[int, Fraction] = {}
                for idx_ in (cidx(n + 1 - i, j, k), cidx(n + 1 - k, i, j), cidx(n + 1 - j, k, i)):
                    row3[idx_] = row3.get(idx_, Fraction(0)) + 1
                sys.add_row(row3)
    basis_sparse = sys.nullspace_basis()
    # affinor coefficients -> bivector linear part: c_biv^{ij}_k = c^i_{n+1-j,k}
    g = LinearMetric.antidiagonal(n)
    biv_idx = _BivectorIndex(n)
    vectors = []
    for vec in basis_sparse:
        bv = [Fraction(0)] * biv_idx.total
        for flat, val in vec.items():
            k1 = flat // (n * n) + 1
            i1 = (flat // n) % n + 1
            j1 = flat % n + 1
            # c^{k1}_{i1,j1} contributes to bivector entry (k1, n+1-i1) coeff of u^{j1}
            a, b = k1 - 1, n - i1
            if a > b:
                a, b = b, a
            bv[biv_idx.c_idx(a, b, j1 - 1)] = val
        vectors.append(bv)
    basis = [biv_idx.to_bivector(v, n) for v in vectors]
    gt0 = jordan_gt0(n, lam)
    family = SolutionFamily(g, gt0, basis)
    mu_span = [biv_idx.from_bivector(mu_bivector(n, m))[: biv_idx.c_count] for m in range(n - 1)]
    got_span = [v[: biv_idx.c_count] for v in vectors]
    if not same_span(mu_span, got_span):
        raise AssertionError("jordan family span differs from the mu(n;m) span")
    if len(basis) != n - 1:
        raise AssertionError(f"jordan family dimension {len(basis)} != n-1")
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
    Lie_{X_(k)}) whenever p[n,k,0] != 0; the skipped rung (k = (n-1)/3 when n
    = 1 mod 3) carries the one surviving modulus."""
    if coeffs.xi[0] != 1:
        raise ScalingNotNormalized("xi_0 must be normalized to 1")
    xi, transcript = _flow_loop(coeffs.n, coeffs.xi, 0)
    return JordanFamilyCoeffs(coeffs.n, xi, coeffs.lam), transcript


def lie_flow_normalize_constant_eig(coeffs: JordanFamilyCoeffs):
    """Constant-eigenvalue normal form: leading nonzero xi_alpha must be 1.

    Returns (normalized coeffs, transcript, alpha, m) where the family is
    mu(n;alpha) + kappa*mu(n;alpha+m) + gt0 when m = (n-1+2 alpha)/3 is a
    positive integer with alpha+m <= n-2, and mu(n;alpha) + gt0 otherwise."""
    alpha = next((i for i, x in enumerate(coeffs.xi) if x), None)
    if alpha is None or alpha == 0:
        raise ScalingNotNormalized(
            "constant-eigenvalue mode needs xi_0 = 0 and some xi_alpha != 0"
        )
    if coeffs.xi[alpha] != 1:
        raise ScalingNotNormalized("leading coefficient xi_alpha must be 1")
    n = coeffs.n
    xi, transcript = _flow_loop(n, coeffs.xi, alpha)
    m3 = n - 1 + 2 * alpha
    m = m3 // 3 if m3 % 3 == 0 else None
    if m is not None and not (1 <= m <= n - 2 - alpha):
        m = None
    return JordanFamilyCoeffs(n, xi, coeffs.lam), transcript, alpha, m


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
