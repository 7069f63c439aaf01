from fractions import Fraction

import pytest

from hamop.catalog import (
    catalog,
    catalog_manifest,
    direct_sum,
    example2_operator,
    exampleN_operator,
    get_entry,
    mokhov_operator,
    theorem3_operators,
    theorem4_metric,
    theorem5_3d_operators,
    theorem7_metric,
)
from hamop.families import (
    JordanFamilyCoeffs,
    _BivectorIndex,
    jordan_gt0,
    lie_flow_normalize,
    lie_flow_normalize_constant_eig,
    modulus_rung,
    mu_bivector,
)
from hamop.linsolve import same_span
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.poly import MultiPoly
from hamop.spectral import segre_of_spec
from hamop.verify import verify_operator

from conftest import u_vars


def mat_from(nvars, rows):
    out = []
    for row in rows:
        r = []
        for x in row:
            r.append(x if isinstance(x, MultiPoly) else MultiPoly.const(nvars, x))
        out.append(r)
    return PolyMatrix(out)


# -- mu bivectors against the displayed matrices ----------------------------


def test_mu_31_display():
    u = u_vars(3)
    expected = mat_from(3, [[-2 * u[1], u[2], 0], [u[2], 0, 0], [0, 0, 0]])
    assert mu_bivector(3, 1) == expected


def test_mu_41_and_42_displays():
    u = u_vars(4)
    expected41 = mat_from(
        4,
        [
            [-4 * u[1], -u[2], 2 * u[3], 0],
            [-u[2], 2 * u[3], 0, 0],
            [2 * u[3], 0, 0, 0],
            [0, 0, 0, 0],
        ],
    )
    assert mu_bivector(4, 1) == expected41
    expected42 = mat_from(
        4,
        [
            [-2 * u[2], u[3], 0, 0],
            [u[3], 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ],
    )
    assert mu_bivector(4, 2) == expected42


def test_mu_vanishes_beyond_range():
    for n in range(2, 7):
        assert mu_bivector(n, n - 1).is_zero()
        assert mu_bivector(n, n + 3).is_zero()


# -- Mokhov operators ---------------------------------------------------------


def test_mokhov_n2_is_two_component_operator():
    spec = mokhov_operator(2)
    u = u_vars(2)
    assert spec.g.mat == mat_from(2, [[0, 1], [1, 0]])
    assert spec.gt.mat == mat_from(2, [[-2 * u[0], u[1]], [u[1], 0]])


def test_mokhov_n3_display():
    spec = mokhov_operator(3)
    u = u_vars(3)
    expected = mat_from(
        3,
        [
            [-4 * u[0], -u[1], 2 * u[2]],
            [-u[1], 2 * u[2], 0],
            [2 * u[2], 0, 0],
        ],
    )
    assert spec.gt.mat == expected


def test_mokhov_n4_follows_defining_formula():
    # the defining coefficients are b^{ij}_{i+j-1} = 3j - n - 2, giving
    # gt^{ij} = [3(i+j) - 2(n+2)] u^{i+j-1}; at n = 4 the antidiagonal
    # entries are 3*u^4 (the printed matrix in the source text shows u^3
    # there, inconsistent with its own formula and with the affinor
    # eigenvalue 3*u^4)
    spec = mokhov_operator(4)
    u = u_vars(4)
    assert spec.gt.mat[0, 3] == 3 * u[3]
    assert spec.gt.mat[1, 2] == 3 * u[3]
    assert spec.gt.mat[0, 0] == -6 * u[0]
    assert spec.gt.mat[0, 1] == -3 * u[1]
    assert spec.gt.mat[0, 2].is_zero()


def test_mokhov_matches_mu0():
    for n in range(2, 8):
        spec = mokhov_operator(n)
        assert spec.gt.mat == mu_bivector(n, 0)


# -- second constant-eigenvalue family ---------------------------------------


def test_example2_displays():
    u = u_vars(4)  # ring has lambda appended
    lam = MultiPoly.variable(4, 4)
    spec = example2_operator(3)
    expected = PolyMatrix(
        [
            [-2 * u[1], u[2], lam],
            [u[2], lam, MultiPoly.zero(4)],
            [lam, MultiPoly.zero(4), MultiPoly.zero(4)],
        ]
    )
    assert spec.gt.mat == expected
    u5 = u_vars(5)
    lam5 = MultiPoly.variable(5, 5)
    z = MultiPoly.zero(5)
    spec4 = example2_operator(4)
    expected4 = PolyMatrix(
        [
            [-4 * u5[1], -u5[2], 2 * u5[3], lam5],
            [-u5[2], 2 * u5[3], lam5, z],
            [2 * u5[3], lam5, z, z],
            [lam5, z, z, z],
        ]
    )
    assert spec4.gt.mat == expected4


def test_example2_rejects_n2():
    with pytest.raises(ValueError):
        example2_operator(2)


def test_example2_at_lambda_zero_equals_constant_eig_case1_linear_part():
    # at lambda = 0 the bivector data coincides with the three-component
    # constant-eigenvalue canonical form at lambda = 0 (as matrices; the
    # operator itself is degenerate there, so no OperatorSpec is built)
    spec = example2_operator(3)
    gt0 = spec.gt.mat.map(lambda p: p.substitute({4: Fraction(0)}).extended(3))
    assert gt0 == mu_bivector(3, 1)
    case1 = get_entry("thm3-case1")
    case1_at0 = case1.spec.gt.mat.map(
        lambda p: p.substitute({4: Fraction(0)}).extended(3)
    )
    assert gt0 == case1_at0


# -- single-block normal forms -------------------------------------------------


def test_theorem4_branches():
    assert theorem4_metric(3).gt.mat == mu_bivector(3, 0)
    assert theorem4_metric(5).gt.mat == mu_bivector(5, 0)
    assert theorem4_metric(6).gt.mat == mu_bivector(6, 0)
    # n = 4: mu(4;0) + kappa1 mu(4;1) + (delta^{i,4-j} + lambda delta^{i,5-j})
    spec = theorem4_metric(4)
    nv = spec.nvars
    k1 = MultiPoly.variable(nv, 5)
    lam = MultiPoly.variable(nv, 6)
    mubar = jordan_gt0(4, lam, nv)
    expected_mat = (
        mu_bivector(4, 0, nv)
        + mu_bivector(4, 1, nv).scale(k1)
        + mubar
    )
    assert spec.gt.mat == expected_mat
    # mubar itself is delta^{i,4-j} + lambda delta^{i,5-j}
    for i in range(1, 5):
        for j in range(1, 5):
            e = mubar[i - 1, j - 1]
            if i + j == 4:
                assert e == MultiPoly.const(nv, 1)
            elif i + j == 5:
                assert e == lam
            else:
                assert e.is_zero()
    # n = 7: mu(7;0) + kappa1 mu(7;2)
    spec7 = theorem4_metric(7)
    k7 = MultiPoly.variable(8, 8)
    assert spec7.gt.mat == mu_bivector(7, 0, 8) + mu_bivector(7, 2, 8).scale(k7)
    # kappa1 sits on the rung the Lie-flow normalizer skips (ladder
    # coefficient 0); there is a kappa1 slot only when it skips one
    for n in range(3, 13):
        transcript = lie_flow_normalize(JordanFamilyCoeffs(n, [1] + [0] * (n - 2)))[1]
        skipped = [k for k, t in transcript if t is None]
        assert theorem4_metric(n, lam=1).nvars == n + len(skipped), n
        for m in skipped:
            diff = theorem4_metric(n, 1, 1).gt.mat - theorem4_metric(n, 0, 1).gt.mat
            assert diff == mu_bivector(n, m)


def test_theorem7_kappa_branch_only_for_valid_m():
    # kappa sits on the rung m that the constant-eigenvalue normalizer reports
    # and skips (ladder coefficient 0); there is a kappa slot only when it has one
    for n in range(3, 13):
        for alpha in range(1, n - 1):
            xi = [0] * alpha + [1] + [0] * (n - 2 - alpha)
            _, transcript, a, m = lie_flow_normalize_constant_eig(JordanFamilyCoeffs(n, xi))
            assert a == alpha
            assert [k for k, t in transcript if t is None] == ([] if m is None else [m])
            assert theorem7_metric(n, alpha, lam=1).nvars == n + (m is not None), (n, alpha)
            if m is not None:
                diff = theorem7_metric(n, alpha, 1, 1).gt.mat - theorem7_metric(n, alpha, 0, 1).gt.mat
                assert diff == mu_bivector(n, alpha + m)


@pytest.mark.parametrize("n", range(3, 13))
def test_normal_forms_are_fixed_points_of_their_normalizer(n):
    kappa, lam = Fraction(-3, 2), Fraction(5)
    for alpha in range(n - 1):
        xi = [0] * alpha + [1] + [0] * (n - 2 - alpha)
        m = modulus_rung(n, alpha)
        if m is not None:
            xi[alpha + m] = kappa
        coeffs = JordanFamilyCoeffs(n, xi, lam)
        if alpha == 0:
            spec = theorem4_metric(n, kappa, lam)
            norm = lie_flow_normalize(coeffs)[0]
        else:
            spec = theorem7_metric(n, alpha, kappa, lam)
            norm = lie_flow_normalize_constant_eig(coeffs)[0]
        # the catalog form is this family member, and the normalizer keeps it
        assert coeffs.to_bivector(include_gt0=alpha > 0 or n == 4) == spec.gt.mat
        assert norm.xi == coeffs.xi, (n, alpha)


def test_theorem3_case2_in_mokhov_ray():
    # case 2 equals the n = 3 operator up to an overall factor 1/2 of the
    # second metric: same ray inside the solution family
    case2 = get_entry("thm3-case2")
    mok = mokhov_operator(3)
    assert case2.spec.gt.mat == mok.gt.mat.scale(Fraction(1, 2))
    idx = _BivectorIndex(3)
    v1 = idx.from_bivector(case2.spec.gt.mat)[: idx.c_count]
    v2 = idx.from_bivector(mok.gt.mat)[: idx.c_count]
    assert same_span([v1], [v2])


# -- direct sums ---------------------------------------------------------------


def one_component(lam):
    return OperatorSpec(
        [LinearMetric.constant([[1]]), LinearMetric.constant([[lam]])]
    )


def test_direct_sum_reproduces_reducible_three_component_pair():
    # the reducible pair: g = diag(antidiag(2), 1), gt = diag(op5-metric, lam)
    s = direct_sum(mokhov_operator(2), one_component(Fraction(7)))
    u = u_vars(3)
    assert s.g.mat == mat_from(3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert s.gt.mat == PolyMatrix(
        [
            [-2 * u[0], u[1], MultiPoly.zero(3)],
            [u[1], MultiPoly.zero(3), MultiPoly.zero(3)],
            [MultiPoly.zero(3), MultiPoly.zero(3), MultiPoly.const(3, 7)],
        ]
    )
    assert verify_operator(s).verdict


def test_direct_sum_of_passing_pairs_passes():
    pairs = [
        (mokhov_operator(2), one_component(Fraction(3))),
        (mokhov_operator(2), get_entry("thm3-case2").spec),
        (get_entry("thm3-case2").spec, one_component(Fraction(-2))),
    ]
    for a, b in pairs:
        assert verify_operator(direct_sum(a, b)).verdict


def test_direct_sum_dimension_mismatch():
    with pytest.raises(ValueError):
        direct_sum(mokhov_operator(2), exampleN_operator(3))


# -- 3D / N-dimensional entries -------------------------------------------------


def test_exampleN3_equals_first_3d_operator_after_transformation():
    # substituting u3 -> u3 - 1 in the N = 3 operator at lambda = 1 gives
    # exactly the stored irreducible 3D operator (whose metrics carry the
    # same independent-variable mixing by the antidiagonal)
    ex = exampleN_operator(3, lam=Fraction(1))
    first = theorem5_3d_operators()[0]
    shift = {3: None}  # u3 -> u3 - 1 done via substitution on each entry

    def shifted(mat):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                p = mat[i, j]
                # substitute u3 = u3' - 1: expand p(u1,u2,u3'-1)
                acc = MultiPoly.zero(3)
                for e, c in p.terms.items():
                    term = MultiPoly.const(3, c)
                    for var, exp in enumerate(e):
                        if not exp:
                            continue
                        base = MultiPoly.variable(3, var + 1)
                        if var == 2:
                            base = base - 1
                        term = term * base**exp
                    acc = acc + term
                row.append(acc)
            rows.append(row)
        return PolyMatrix(rows)

    assert len(ex.metrics) == 3 and len(first.metrics) == 3
    for m_ex, m_first in zip(ex.metrics, first.metrics):
        assert shifted(m_ex.mat) == m_first.mat


def test_theorem5_entries_verify_and_classify():
    e1 = get_entry("thm5-3d-1")
    e2 = get_entry("thm5-3d-2")
    assert not e1.reducible and e2.reducible
    assert verify_operator(e1.spec).verdict
    assert verify_operator(e2.spec).verdict


def test_exampleN_sizes():
    for N in (3, 4, 5):
        spec = exampleN_operator(N)
        assert spec.d == N and spec.n == N
        assert spec.metrics[0].is_constant()
    with pytest.raises(ValueError):
        exampleN_operator(2)


# -- catalog-wide metadata -----------------------------------------------------


def test_manifest_round_trip():
    man = catalog_manifest()
    assert man["version"] == 1
    ids = [m["id"] for m in man["entries"]]
    assert len(ids) == len(set(ids)) == len(catalog())
    by_id = {m["id"]: m for m in man["entries"]}
    assert by_id["mokhov-n4"]["segre"] == "[2,2]"
    assert by_id["complex-2x2"]["segre"] == "[2]C+[2]C"
    assert by_id["thm5-3d-2"]["reducible"] is True


def test_catalog_segre_metadata_matches_computation():
    from hamop.scalars import GaussianRational

    for e in catalog():
        rep = segre_of_spec(e.spec, seed=0)
        assert rep.consistent, e.id
        assert rep.segre_type == e.expected_segre, e.id
        if e.expected_eigenvalues is None:
            continue
        for s in rep.spectra:
            expected = set()
            for re_p, im_p in e.expected_eigenvalues:
                expected.add((re_p.eval(s.point), im_p.eval(s.point)))
            got = set()
            for b in s.blocks:
                v = b.value
                if isinstance(v, GaussianRational):
                    got.add((v.re, v.im))
                else:
                    got.add((Fraction(v), Fraction(0)))
            assert got == expected, e.id


def test_the_package_attribute_catalog_is_the_module():
    # ``hamop.catalog`` names the module, so the dotted import binds it and
    # its functions resolve through it
    import hamop
    import hamop.catalog as c

    assert c is hamop.catalog
    assert c.catalog_manifest is catalog_manifest and c.catalog is catalog
