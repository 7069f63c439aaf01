import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hamop.errors import NonSquareGamma, ScalingNotNormalized
from hamop.families import (
    JordanFamilyCoeffs,
    apply_flow,
    complexify_matrix,
    flow_field,
    jordan_gt0,
    killing_bivector_space,
    killing_vector_basis,
    lie_flow_normalize,
    lie_flow_normalize_constant_eig,
    modulus_rung,
    mu_bivector,
    p_coeff,
    proposition_field,
    scaling_action,
    solve_jordan_family,
    solve_linear_conditions,
    symmetrized_product,
    _BivectorIndex,
)
from hamop.geometry import (
    killing_components,
    killing_residual,
    lie_derivative_bivector,
    nijenhuis_components,
)
from hamop.linsolve import SparseSystem, inverse, mat_mul, nullspace, same_span, span_rref
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric
from hamop.poly import MultiPoly

from conftest import operator5_pair, u_vars


# -- flow fields and ladder identities -------------------------------------


def test_lemma_identities_all_n():
    for n in range(2, 8):
        g = LinearMetric.antidiagonal(n)
        for k in range(1, n - 1):
            X = flow_field(n, k)
            assert lie_derivative_bivector(g.mat, X, n).is_zero(), (n, k)
            for alpha in range(0, n - 1):
                lhs = lie_derivative_bivector(mu_bivector(n, alpha), X, n)
                rhs = mu_bivector(n, alpha + k).scale(Fraction(p_coeff(n, k, alpha)))
                assert (lhs - rhs).is_zero(), (n, k, alpha)


def test_iterated_flow_product_factor():
    for n in range(2, 8):
        for k in range(1, n - 1):
            X = flow_field(n, k)
            for alpha in range(0, n - 1):
                cur = mu_bivector(n, alpha)
                for m in range(1, (n - 1) // k + 2):
                    cur = lie_derivative_bivector(cur, X, n)
                    prod = Fraction(1)
                    for s in range(m):
                        prod *= p_coeff(n, k, alpha) - 2 * k * s
                    if alpha + m * k <= n - 2:
                        expect = mu_bivector(n, alpha + m * k).scale(prod)
                    else:
                        expect = PolyMatrix.zeros(n, n, n)
                    assert (cur - expect).is_zero(), (n, k, alpha, m)


# -- Killing vector bases ---------------------------------------------------


def field_coeff_vector(X, n):
    """Flatten an affine field to its (A, c) coefficients for span tests."""
    out = []
    for i in range(n):
        for j in range(1, n + 1):
            out.append(X[i].partial(j).constant_value())
        zeros = {k: Fraction(0) for k in range(1, n + 1)}
        out.append(X[i].substitute(zeros).constant_value())
    return out


def test_killing_vectors_antidiag_n2():
    g = LinearMetric.antidiagonal(2)
    kb = killing_vector_basis(g)
    assert kb.dimension == 3 and kb.rotational_count == 1
    # span contains u1 d1 - u2 d2, d1 and d2
    u1, u2 = u_vars(2)
    targets = [
        [u1, -u2],
        [MultiPoly.const(2, 1), MultiPoly.zero(2)],
        [MultiPoly.zero(2), MultiPoly.const(2, 1)],
    ]
    basis_vecs = [field_coeff_vector(X, 2) for X in kb.vectors]
    for t in targets:
        tv = field_coeff_vector(t, 2)
        assert same_span(basis_vecs, basis_vecs + [tv])


def test_killing_vectors_antidiag_n3_contains_listed_fields():
    # the full isometry algebra has dimension n(n+1)/2 = 6: the listed
    # rotational fields (count n(n-1)/2 = 3) plus the n translations
    g = LinearMetric.antidiagonal(3)
    kb = killing_vector_basis(g)
    assert kb.dimension == 6 and kb.rotational_count == 3
    basis_vecs = [field_coeff_vector(X, 3) for X in kb.vectors]
    for alpha in range(1, 4):
        for beta in range(1, 4):
            if alpha + beta < 4:
                X = proposition_field(3, alpha, beta)
                xv = field_coeff_vector(X, 3)
                assert same_span(basis_vecs, basis_vecs + [xv]), (alpha, beta)
    for X in kb.vectors:
        assert lie_derivative_bivector(g.mat, X, 3).is_zero()


def test_killing_vectors_euclidean_plane():
    kb = killing_vector_basis(LinearMetric.constant([[1, 0], [0, 1]]))
    assert kb.dimension == 3 and kb.rotational_count == 1


# -- Killing bivector spaces -------------------------------------------------


def killing_space_oracle(g, n, max_degree=1):
    """Independent oracle: degree-<=1 members of the span of symmetrized
    products of Killing vectors."""
    kb = killing_vector_basis(g)
    prods = []
    for i in range(kb.dimension):
        for j in range(i, kb.dimension):
            prods.append(symmetrized_product(kb.vectors[i], kb.vectors[j]))
    monos2 = []
    for d in range(3):
        for e in _exps(n, d):
            monos2.append(e)

    def vec(b):
        out = []
        for i in range(n):
            for j in range(i, n):
                for e in monos2:
                    out.append(b[i, j].terms.get(e, Fraction(0)))
        return out

    prod_vecs = [vec(b) for b in prods]
    quad_cols = [
        t for t, e in enumerate(monos2 * (n * (n + 1) // 2)) if sum(e) > max_degree
    ]
    # combos of products with vanishing quadratic part
    rows = [[v[c] for v in prod_vecs] for c in quad_cols]
    combos = nullspace(rows, len(prod_vecs))
    out = []
    for cmb in combos:
        acc = [Fraction(0)] * len(prod_vecs[0])
        for coef, v in zip(cmb, prod_vecs):
            if coef:
                acc = [a + coef * x for a, x in zip(acc, v)]
        out.append(acc)
    lin_cols = [
        t for t, e in enumerate(monos2 * (n * (n + 1) // 2)) if sum(e) <= max_degree
    ]
    return [[v[c] for c in lin_cols] for v in out], lin_cols, monos2


def _exps(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in _exps(n - 1, d - first):
            out.append((first,) + rest)
    return out


def space_vectors(space, n):
    monos = [e for d in range(2) for e in _exps(n, d)]
    out = []
    for b in space:
        v = []
        for i in range(n):
            for j in range(i, n):
                for e in monos:
                    v.append(b[i, j].terms.get(e, Fraction(0)))
        out.append(v)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_killing_bivector_space_equals_product_span(n):
    g = LinearMetric.antidiagonal(n)
    space = killing_bivector_space(g)
    for b in space:
        K = killing_residual(g, b, n)
        assert all(
            not K[i][j][k] for i in range(n) for j in range(n) for k in range(n)
        )
    got = space_vectors(space, n)
    oracle, _, _ = killing_space_oracle(g, n)
    assert same_span(got, oracle)


def test_killing_bivector_space_n1_constants_only():
    # in one component the condition 3 g^{11} c^{11}_1 = 0 kills the linear
    # part, leaving exactly the constant bivectors
    g = LinearMetric.constant([[1]])
    space = killing_bivector_space(g)
    assert len(space) == 1
    assert space[0][0, 0].is_constant()


def test_operator5_metric_in_killing_space():
    g, gt = operator5_pair()
    space = killing_bivector_space(g)
    vecs = space_vectors(space, 2)
    target = space_vectors([gt.mat], 2)
    assert same_span(vecs, vecs + target)
    # constant bivectors always included
    const = space_vectors([PolyMatrix.from_scalars(2, [[1, 0], [0, 0]])], 2)
    assert same_span(vecs, vecs + const)


# -- family solvers ----------------------------------------------------------


def test_theorem3_family_dimension_and_basis():
    g = LinearMetric.constant([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    gt0 = PolyMatrix.from_scalars(3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    fam = solve_linear_conditions(g, gt0)
    assert fam.dimension == 2 and fam.verified
    u1, u2, u3 = u_vars(3)
    z = MultiPoly.zero(3)
    h = Fraction(1, 2)
    gt1 = PolyMatrix(
        [[-2 * u1, -h * u2, u3], [-h * u2, u3, z], [u3, z, z]]
    )
    gt2 = PolyMatrix([[-2 * u2, u3, z], [u3, z, z], [z, z, z]])
    got = space_vectors(fam.basis, 3)
    expect = space_vectors([gt1, gt2], 3)
    assert same_span(got, expect)


def test_a_degenerate_formal_family_is_named_as_such():
    # gt0 + kappa_1 b_1 + kappa_2 b_2 is singular for every kappa here: the
    # family has dimension 2, and verifying it says that its formal second
    # metric is identically degenerate
    g = LinearMetric.antidiagonal(3)
    gt0 = PolyMatrix.from_scalars(3, [[0, 0, 2], [0, 0, 0], [2, 0, 0]])
    assert solve_linear_conditions(g, gt0, verify=False).dimension == 2
    with pytest.raises(ValueError, match="formal second metric .* is identically degenerate"):
        solve_linear_conditions(g, gt0)


def test_lambda_independence_of_family_equations():
    g = LinearMetric.constant([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    base = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    fam0 = solve_linear_conditions(g, PolyMatrix.from_scalars(3, base), verify=False)
    shifted = [[0, 1, 5], [1, 5, 0], [5, 0, 0]]
    fam5 = solve_linear_conditions(g, PolyMatrix.from_scalars(3, shifted), verify=False)
    assert same_span(space_vectors(fam0.basis, 3), space_vectors(fam5.basis, 3))


def quoted_affinor_family(n):
    """The Jordan family's linear parts from the paper's three quoted systems
    on the affinor coefficients c^k_{ij} (1-based; a term with an index 0
    or n + 1 is absent):

        c^k_{j,i-1} - c^k_{i,j-1} + c^{k+1}_{ij} - c^{k+1}_{ji} = 0
        c^{n+1-i}_{jk} = c^{n+1-j}_{ik}
        c^{n+1-i}_{jk} + c^{n+1-k}_{ij} + c^{n+1-j}_{ki} = 0

    as vectors in the layout of _BivectorIndex(n), by
    c_biv^{ij}_k = c^i_{n+1-j,k}."""

    def c(k, i, j):
        return ((k - 1) * n + i - 1) * n + j - 1

    def equation(*terms):
        row = {}
        for coeff, k, i, j in terms:
            if 1 <= min(k, i, j) and max(k, i, j) <= n:
                row[c(k, i, j)] = row.get(c(k, i, j), 0) + coeff
        system.add_row(row)

    system = SparseSystem(n**3)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                equation((1, k, j, i - 1), (-1, k, i, j - 1), (1, k + 1, i, j), (-1, k + 1, j, i))
                equation((1, n + 1 - i, j, k), (-1, n + 1 - j, i, k))
                equation((1, n + 1 - i, j, k), (1, n + 1 - k, i, j), (1, n + 1 - j, k, i))
    idx = _BivectorIndex(n)
    out = []
    for v in system.nullspace_basis():
        biv = [Fraction(0)] * idx.total
        for i, j in idx.pairs:
            for k in range(n):
                biv[idx.c_idx(i, j, k)] = v.get(c(i + 1, n - j, k + 1), Fraction(0))
        out.append(biv)
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_jordan_family_dimension_and_span(n):
    fam = solve_jordan_family(n, verify=(n <= 5))
    assert fam.dimension == n - 1
    idx = _BivectorIndex(n)
    mu_span = [idx.from_bivector(mu_bivector(n, m))[: idx.c_count] for m in range(n - 1)]
    got = [idx.from_bivector(b)[: idx.c_count] for b in fam.basis]
    assert same_span(mu_span, got)
    # the geometry streams give the family of the paper's affinor systems
    assert same_span(quoted_affinor_family(n), got)


# -- the one-pass equation rows against unit-unknown columns ------------------


def unit_column_rows(idx, condition):
    """Reference rows of a condition linear in the unknowns of ``idx``:
    column t holds the stream ``condition(dE)`` on unit unknown t = c^{ij}_k,
    whose one nonzero derivative d_{k+1} E is the unit bivector on {i, j}.
    Zero rows are dropped, and constant unknowns get zero columns."""
    n = idx.n
    zero = [[0] * n for _ in range(n)]
    columns = []
    for i, j in idx.pairs:
        unit = [[int({a, b} == {i, j}) for b in range(n)] for a in range(n)]
        for k in range(n):
            columns.append([v for _, v in condition([unit if s == k else zero for s in range(n)])])
    pad = [0] * (idx.total - idx.c_count)
    return [list(row) + pad for row in zip(*columns) if any(row)]


_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _constant_symmetric(draw, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(draw(_ENTRY))
    return m


@settings(max_examples=25, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_constant_symmetric(n), _constant_symmetric(n))))
def test_one_pass_rows_match_unit_columns(pair):
    """The solvers' bases, the nullspaces of the rows read off one stream
    pass over the unknowns, are the nullspaces of the unit-unknown columns
    computed on the rational g^-1 and gt0 g^-1, vector for vector: the two
    systems have the same RREF."""
    gv, gt0v = pair
    n = len(gv)
    ginv = inverse(gv)
    assume(ginv is not None)
    g, gt0 = LinearMetric.constant(gv), PolyMatrix.from_scalars(n, gt0v)
    zero = [[0] * n for _ in range(n)]
    L0 = mat_mul(gt0v, ginv)

    def killing(dE):
        return killing_components(gv, [zero] * n, zero, dE, n)

    def nijenhuis(dE):
        return nijenhuis_components(L0, [mat_mul(d, ginv) for d in dE], n)

    space = _BivectorIndex(n, with_constant=True)
    expect = nullspace(unit_column_rows(space, killing), space.total)
    assert [space.from_bivector(b) for b in killing_bivector_space(g)] == expect

    idx = _BivectorIndex(n)
    expect = nullspace(unit_column_rows(idx, killing) + unit_column_rows(idx, nijenhuis), idx.total)
    family = solve_linear_conditions(g, gt0, verify=False)
    assert [idx.from_bivector(b) for b in family.basis] == expect


def _formal_parameter_inputs():
    """Metrics and gt0 with a formal parameter kappa = u3 of a ring over
    two components: not plain rational constants."""
    kappa, one, zero = MultiPoly.variable(3, 3), MultiPoly.const(3, 1), MultiPoly.zero(3)
    g = LinearMetric(2, PolyMatrix([[kappa, one], [one, zero]]))
    plain_gt0 = PolyMatrix.from_scalars(3, [[1, 0], [0, 0]])
    antidiagonal = LinearMetric.antidiagonal(2, 3)
    return {
        "killing-vectors": lambda: killing_vector_basis(g),
        "killing-space": lambda: killing_bivector_space(g),
        "family-g": lambda: solve_linear_conditions(g, plain_gt0),
        "family-gt0": lambda: solve_linear_conditions(antidiagonal, jordan_gt0(2, kappa, 3)),
    }


@pytest.mark.parametrize("case", sorted(_formal_parameter_inputs()))
def test_formal_parameters_are_refused(case):
    with pytest.raises(ValueError, match="metric entry is not a plain rational constant"):
        _formal_parameter_inputs()[case]()


def test_jordan_family_member_eigenvalue():
    # eigenvalue of the affinor is xi_0 (n-1) u^n + lambda
    from hamop.spectral import affinor, spectrum_at_point

    n = 4
    co = JordanFamilyCoeffs(n, [Fraction(2), Fraction(1), Fraction(-1)], lam=Fraction(3))
    gt = co.to_bivector()
    g = LinearMetric.antidiagonal(n)
    L = affinor(g, gt)
    pt = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3)]
    s = spectrum_at_point(L, pt, n)
    assert len(s.blocks) == 1
    assert s.blocks[0].value == co.eigenvalue().eval(pt)


# -- normalization pipeline ---------------------------------------------------


def matrix_flow_oracle(n, xi, k, t):
    """exp(t Lie_{X_(k)}) applied literally to the bivector."""
    S = JordanFamilyCoeffs(n, xi).to_bivector(include_gt0=False)
    X = flow_field(n, k)
    term, acc = S, S
    for m in range(1, 2 * n):
        term = lie_derivative_bivector(term, X, n)
        if term.is_zero():
            break
        acc = acc + term.scale(Fraction(t) ** m / math.factorial(m))
    return acc


def test_apply_flow_matches_matrix_oracle():
    rng = random.Random(99)
    for n in (4, 5, 7):
        for k in (1, 2):
            xi = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n - 1)]
            t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            via_coeffs = JordanFamilyCoeffs(
                n, apply_flow(n, xi, k, t)
            ).to_bivector(include_gt0=False)
            assert (matrix_flow_oracle(n, xi, k, t) - via_coeffs).is_zero(), (n, k)


def test_normalize_nonconstant_branches():
    rng = random.Random(5)
    # n not = 1 mod 3: always exactly mu(n;0)
    for n in (5, 6):
        for _ in range(5):
            xi = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 2)]
            norm, transcript = lie_flow_normalize(JordanFamilyCoeffs(n, xi))
            assert norm.xi == [1] + [0] * (n - 2)
            assert all(t is not None for _, t in transcript)
    # n = 7: mu(7;0) + c mu(7;2), rung k = 2 is skipped
    for _ in range(5):
        xi = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
        norm, transcript = lie_flow_normalize(JordanFamilyCoeffs(7, xi))
        assert norm.xi[0] == 1
        assert all(norm.xi[i] == 0 for i in (1, 3, 4, 5))
        skipped = [k for k, t in transcript if t is None]
        assert skipped == [2]


def test_normalize_fixed_point():
    n = 6
    norm, transcript = lie_flow_normalize(JordanFamilyCoeffs(n, [1, 0, 0, 0, 0]))
    assert norm.xi == [1, 0, 0, 0, 0]
    assert all(t == 0 for _, t in transcript)


def test_normalize_requires_unit_leading_coefficient():
    with pytest.raises(ScalingNotNormalized):
        lie_flow_normalize(JordanFamilyCoeffs(5, [2, 0, 0, 0]))
    with pytest.raises(ScalingNotNormalized):
        lie_flow_normalize_constant_eig(JordanFamilyCoeffs(5, [0, 3, 0, 0]))
    with pytest.raises(ScalingNotNormalized):
        lie_flow_normalize_constant_eig(JordanFamilyCoeffs(5, [1, 0, 0, 0]))


def test_modulus_rung_is_the_integer_solution_of_the_ladder_rule():
    # the paper's index m = (n - 1 + 2 alpha)/3, when it is an integer with
    # 1 <= m <= n - 2 - alpha (Theorem 4 at alpha = 0, Theorem 7 above)
    for n in range(2, 14):
        for alpha in range(n - 1):
            m, r = divmod(n - 1 + 2 * alpha, 3)
            expected = m if r == 0 and 1 <= m <= n - 2 - alpha else None
            assert modulus_rung(n, alpha) == expected, (n, alpha)


def test_normalize_constant_eig_branches():
    # n=5, alpha=1: m = 2 is a positive integer within range -> kappa survives
    co = JordanFamilyCoeffs(5, [0, 1, Fraction(3), Fraction(4)])
    norm, transcript, alpha, m = lie_flow_normalize_constant_eig(co)
    assert (alpha, m) == (1, 2)
    assert norm.xi[1] == 1 and norm.xi[2] == 0
    # n=5, alpha=2: m = 8/3 not an integer -> bare mu(n;alpha)
    co2 = JordanFamilyCoeffs(5, [0, 0, 1, Fraction(7)])
    norm2, _, alpha2, m2 = lie_flow_normalize_constant_eig(co2)
    assert (alpha2, m2) == (2, None)
    assert norm2.xi == [0, 0, 1, 0]
    # n=3, alpha=1 reproduces the constant-eigenvalue three-component form
    co3 = JordanFamilyCoeffs(3, [0, 1], lam=Fraction(2))
    norm3, _, alpha3, m3 = lie_flow_normalize_constant_eig(co3)
    assert (alpha3, m3) == (1, None)
    gt = norm3.to_bivector()
    expected = mu_bivector(3, 1) + jordan_gt0(3, Fraction(2))
    assert (gt - expected).is_zero()


# -- scaling -----------------------------------------------------------------


def test_scaling_action_values():
    assert scaling_action(3, 0, Fraction(4)) == 4
    assert scaling_action(2, 0, Fraction(9)) == 3
    assert scaling_action(5, 1, Fraction(2)) == 8  # exponent (n-1)/2 + k = 3
    assert scaling_action(4, 0, Fraction(1)) == 1
    with pytest.raises(NonSquareGamma):
        scaling_action(2, 0, Fraction(2))


def test_scaling_action_is_the_scaling_law():
    # v^i = gamma^{(n+1)/2 - i} u^i multiplies mu(n;k) by gamma^{(n-1)/2 + k}:
    # check entrywise on the bivector for odd n where the exponents are
    # integers: mu^{ij}(u) = gamma^{(n-1)/2+k} mu^{ij}(v) under the
    # substitution, i.e. coefficientwise
    n, k, gamma = 5, 1, Fraction(4)
    mu = mu_bivector(n, k)
    factor = scaling_action(n, k, gamma)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = mu[i - 1, j - 1]
            if entry.is_zero():
                continue
            power = i + j - 1 + k
            # bivector components transform with weight gamma^{(n+1)/2-i}
            # * gamma^{(n+1)/2-j} on the indices and the variable u^power
            # carries gamma^{-((n+1)/2-power)}... combined: the identity
            # gamma^{(n+1-2i)/2} * gamma^{(n+1-2j)/2} / gamma^{(n+1-2*power)/2}
            # == gamma^{(n-1)/2+k}
            e2 = (n + 1 - 2 * i) + (n + 1 - 2 * j) - (n + 1 - 2 * power)
            assert Fraction(e2, 2) == Fraction(n - 1, 2) + k
    assert factor == gamma ** ((n - 1) // 2 + k)


# -- complexification ---------------------------------------------------------


def test_complexify_reproduces_four_component_normal_form():
    from hamop.catalog import complexified_2d_operator

    spec = complexified_2d_operator()
    u = u_vars(4)
    z = MultiPoly.zero(4)
    expected_g = PolyMatrix.from_scalars(
        4, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )
    expected_gt = PolyMatrix(
        [
            [2 * u[1], -2 * u[0], -u[3], u[2]],
            [-2 * u[0], -2 * u[1], u[2], u[3]],
            [-u[3], u[2], z, z],
            [u[2], u[3], z, z],
        ]
    )
    assert spec.g.mat == expected_g
    assert spec.gt.mat == expected_gt


def test_complexify_real_input_blocks():
    # purely real entries a become [[0, a], [a, 0]]
    nvars = 2
    a = MultiPoly.variable(nvars, 1)
    z = MultiPoly.zero(nvars)
    out = complexify_matrix([[(a, z)]])
    assert out[0, 0].is_zero() and out[1, 1].is_zero()
    assert out[0, 1] == a and out[1, 0] == a


def test_complexified_operator_verifies():
    from hamop.catalog import complexified_2d_operator
    from hamop.verify import verify_operator

    assert verify_operator(complexified_2d_operator()).verdict
