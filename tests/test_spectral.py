import random
from collections import Counter
from fractions import Fraction

import pytest

from hamop import spectral
from hamop.catalog import catalog, direct_sum, get_entry, mokhov_operator
from hamop.errors import DegenerateEverywhere, FirstMetricNotConstant, UnsupportedEigenvalueField
from hamop.linsolve import inverse, mat_mul
from hamop.matrices import PolyMatrix
from hamop.metrics import LinearMetric, OperatorSpec
from hamop.pointcheck import sample_points
from hamop.poly import MultiPoly
from hamop.roots import RootReport
from hamop.scalars import GaussianRational
from hamop.specfile import default_param_values, specialize_spec
from hamop.spectral import (
    affinor,
    format_segre_type,
    integer_affinor,
    segre_of_pair,
    segre_of_spec,
    segre_type,
    spectrum_at_point,
)
from hamop.verify import _sample

from conftest import (
    JORDAN_CASES,
    block_diag,
    jordan_block,
    jordan_conjugate,
    jordan_id,
    operator5_pair,
    real_jordan_block,
    u_vars,
    unimodular,
)


def test_affinor_identity():
    g = LinearMetric.antidiagonal(3)
    L = affinor(g, g)
    assert L == PolyMatrix.identity(3, 3)


def test_affinor_operator5():
    g, gt = operator5_pair()
    u1, u2 = u_vars(2)
    L = affinor(g, gt)
    assert L == PolyMatrix([[u2, -2 * u1], [MultiPoly.zero(2), u2]])


def test_affinor_mokhov_formula():
    # L^i_j = [3(i-j)+n-1] u^{n+i-j} (entries with exponent > n vanish)
    for n in (3, 5):
        spec = mokhov_operator(n)
        L = affinor(spec.g, spec.gt)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                power = n + i - j
                if power > n:
                    expected = MultiPoly.zero(n)
                else:
                    expected = MultiPoly.variable(n, power) * Fraction(3 * (i - j) + n - 1)
                assert L[i - 1, j - 1] == expected, (n, i, j)


def test_affinor_requires_constant_first_metric():
    g, gt = operator5_pair()
    with pytest.raises(FirstMetricNotConstant):
        affinor(gt, g)


def test_operator5_spectrum_at_explicit_point():
    g, gt = operator5_pair()
    L = affinor(g, gt)
    s = spectrum_at_point(L, [Fraction(1), Fraction(2)], 2)
    assert len(s.blocks) == 1
    assert s.blocks[0].value == 2 and s.blocks[0].partition == (2,)


def test_theorem3_case2_is_single_3_block():
    e = get_entry("thm3-case2")
    rep = segre_of_spec(e.spec)
    assert rep.consistent
    assert format_segre_type(rep.segre_type) == "[3]"


def test_complex_case_eigenvalues_and_blocks():
    # eigenvalues are u3 +- i u4; at (0,0,1,1) they evaluate to 1 +- i, but
    # that point is non-generic (the 2x2 blocks decouple when u1 = u2 = 0 and
    # the affinor diagonalizes); the complex Jordan blocks of size 2 appear at
    # generic points
    e = get_entry("complex-2x2")
    L = affinor(e.spec.g, e.spec.gt)
    s = spectrum_at_point(L, [Fraction(0), Fraction(0), Fraction(1), Fraction(1)], 4)
    values = {b.value for b in s.blocks}
    assert values == {GaussianRational.of(1, 1), GaussianRational.of(1, -1)}
    assert all(b.partition == (1, 1) for b in s.blocks)
    generic = spectrum_at_point(L, [Fraction(3), Fraction(-2), Fraction(5), Fraction(7)], 4)
    assert {b.value for b in generic.blocks} == {
        GaussianRational.of(5, 7),
        GaussianRational.of(5, -7),
    }
    assert all(b.partition == (2,) for b in generic.blocks)


def test_mokhov_n4_two_blocks():
    rep = segre_of_spec(mokhov_operator(4))
    assert rep.consistent
    assert format_segre_type(rep.segre_type) == "[2,2]"


def test_direct_sum_multiset_union():
    a = mokhov_operator(2)
    one = OperatorSpec(
        [
            LinearMetric.constant([[1]]),
            LinearMetric.constant([[5]]),
        ]
    )
    s = direct_sum(a, one)
    rep = segre_of_spec(s)
    assert rep.consistent
    # [2] with nonconstant eigenvalue plus [1] with eigenvalue 5
    assert format_segre_type(rep.segre_type) == "[2]+[1]"


def test_conjugation_invariance(rng):
    # transforming both bivectors by a constant invertible S (m -> S m S^T)
    # conjugates the affinor pointwise, so the Segre type at the same sample
    # points must be unchanged
    g, gt = operator5_pair()
    pts = [[Fraction(1), Fraction(2)], [Fraction(-3), Fraction(5)], [Fraction(2), Fraction(7)]]
    rep = segre_of_pair(g, gt, points=pts)
    n = 2
    for _ in range(3):
        while True:
            s = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            if inverse(s) is not None:
                break
        sm = PolyMatrix.from_scalars(2, s)
        g2 = LinearMetric(2, sm @ g.mat @ sm.transpose())
        gt2 = LinearMetric(2, sm @ gt.mat @ sm.transpose())
        rep2 = segre_of_pair(g2, gt2, points=pts)
        assert rep2.segre_type == rep.segre_type
        for s1, s2 in zip(rep.spectra, rep2.spectra):
            assert [b.value for b in s1.blocks] == [b.value for b in s2.blocks]
            assert [b.partition for b in s1.blocks] == [b.partition for b in s2.blocks]


def test_generic_type_is_the_most_generic_seen():
    # s22-case2-b3p has type [2,2]; at seed 125 three of its five sample
    # points lie where the ranks drop to [2,1,1].  Ranks are lower
    # semicontinuous, so the generic type is the maximum seen, not the
    # majority.  The points are also passed explicitly, so that a change of
    # the sampling cannot hide a regression of the rule
    e = get_entry("s22-case2-b3p")
    spec = specialize_spec(e.spec, default_param_values(e.spec))
    points = [(-2, -2, 9, -4), (2, -5, -9, -7), (-5, 6, 7, 4), (-6, -1, -4, 6),
              (-4, 6, -5, -8)]
    for rep in (segre_of_spec(spec, seed=125), segre_of_spec(spec, points=points)):
        assert [format_segre_type(s.type_key()) for s in rep.spectra] == \
            ["[2,1,1]"] * 3 + ["[2,2]"] * 2
        assert rep.segre_type == e.expected_segre
        assert [format_segre_type(t) for t in rep.observed_types] == ["[2,2]", "[2,1,1]"]
        assert not rep.consistent


def test_unsupported_eigenvalue_field():
    g = LinearMetric.antidiagonal(2)
    h = LinearMetric.constant([[2, 0], [0, 1]])
    # L = [[0,2],[1,0]] has eigenvalues +-sqrt(2) at every point
    with pytest.raises(UnsupportedEigenvalueField):
        segre_of_pair(g, h)


def test_segre_points_can_be_singular_everywhere():
    # h = diag(u1 - k) over the 18 nonzero k in [-9, 9] is singular at every
    # point with a nonzero u1 in the Segre range, and at none of the scan
    # sampler's first points
    n = 18
    u1 = MultiPoly.variable(n, 1)
    h = LinearMetric(n, PolyMatrix([[u1 - k if i == j else MultiPoly.zero(n) for j in range(n)]
                                    for i, k in enumerate(x for x in range(-9, 10) if x)]))
    g = LinearMetric.antidiagonal(n)
    with pytest.raises(DegenerateEverywhere, match="^no generic sample point found$"):
        segre_of_pair(g, h)
    assert len(sample_points(n, [g, h], 0, 5)) == 5
    # a 0 coordinate is redrawn
    assert {abs(x) for pt in sample_points(n, [g], 0, 5, 1) for x in pt} == {1}


def test_report_shape():
    g, gt = operator5_pair()
    rep = segre_of_pair(g, gt)
    d = rep.to_dict()
    assert d["segre_type"] == "[2]"
    assert d["consistent"] is True
    assert len(d["points"]) == 5


def _planted(rng, j):
    """P J P^-1 for a seeded unimodular P, as a constant PolyMatrix."""
    p, pinv = unimodular(rng, len(j))
    assert mat_mul(p, pinv) == [[int(a == b) for b in range(len(j))] for a in range(len(j))]
    m = mat_mul(mat_mul(p, j), pinv)
    return PolyMatrix.from_scalars(1, m), m


PLANTED = {
    # [3, 1] at a non-unit denominator: the rank sequence is that of 3A + 5D I
    "rational": (
        lambda: block_diag(jordan_block(Fraction(-5, 3), 3), jordan_block(Fraction(-5, 3), 1),
                           jordan_block(Fraction(7), 2)),
        {Fraction(-5, 3): (3, 1), Fraction(7): (2,)},
    ),
    # one 2 x 2 complex Jordan block per conjugate, beside a rational block
    "gaussian": (
        lambda: block_diag(real_jordan_block(Fraction(1, 2), Fraction(3, 2), 2),
                           jordan_block(Fraction(-1), 1)),
        {GaussianRational.of(Fraction(1, 2), Fraction(3, 2)): (2,),
         GaussianRational.of(Fraction(1, 2), Fraction(-3, 2)): (2,),
         Fraction(-1): (1,)},
    ),
    # eigenvalues near 10^6 over coprime denominators: D^n is about 10^19
    "large": (
        lambda: block_diag(jordan_block(Fraction(10**6 + 1, 999), 2),
                           jordan_block(Fraction(10**6 + 1, 999), 2),
                           jordan_block(Fraction(-(10**6), 7), 1)),
        {Fraction(10**6 + 1, 999): (2, 2), Fraction(-(10**6), 7): (1,)},
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_jordan_structure(case, seed):
    make, expected = PLANTED[case]
    L, m = _planted(random.Random(seed), make())
    assert m != make()  # the conjugation really mixed the blocks
    s = spectrum_at_point(L, [Fraction(seed + 1)], len(m))
    assert {b.value: b.partition for b in s.blocks} == expected
    rep = segre_type(L, points=[[Fraction(1)], [Fraction(-2)]])
    assert rep.consistent


def _count_rank_reads(monkeypatch):
    """Counter of the rank reads of the Segre rank sequences."""
    counts = Counter()
    rank = spectral.int_rank

    def counted(*args):
        counts["int_rank"] += 1
        return rank(*args)
    monkeypatch.setattr(spectral, "int_rank", counted)
    return counts


def _ranks_read(partition):
    """How many ranks rank(M^k) a partition takes: none for a simple
    eigenvalue, rank(M) alone for one block or for m blocks of size 1, and
    otherwise rank(M), ..., rank(M^k) up to the largest block size k."""
    if partition == (1,):
        return 0
    return 1 if len(partition) in (1, sum(partition)) else partition[0]


@pytest.mark.parametrize("case", JORDAN_CASES, ids=[jordan_id(c) for c in JORDAN_CASES])
def test_each_partition_reads_the_fewest_ranks(monkeypatch, case):
    a, partitions = jordan_conjugate(case, random.Random(2))
    n = len(a)
    counts = _count_rank_reads(monkeypatch)
    s = spectrum_at_point(PolyMatrix.from_scalars(n, a), [Fraction(1)] * n, n)
    assert {b.value: b.partition for b in s.blocks} == partitions
    # one rank sequence per real eigenvalue and per conjugate pair
    assert counts["int_rank"] == sum(_ranks_read(p) for v, p in partitions.items()
                                     if not isinstance(v, GaussianRational) or v.im > 0)


def test_one_block_takes_one_rank_at_each_mokhov_n6_segre_point(monkeypatch):
    spec = get_entry("mokhov-n6").spec
    report = segre_of_spec(spec)
    L = integer_affinor(spec.metrics[0], spec.metrics[1])
    counts = _count_rank_reads(monkeypatch)
    for s in report.spectra:
        counts.clear()
        assert [b.partition for b in spectrum_at_point(L, s.point, spec.n).blocks] == [(6,)]
        assert counts == {"int_rank": 1}


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                       "__mod__", "__rmod__", "__pow__", "__rpow__")


def test_segre_path_and_sample_rejection_do_no_fraction_arithmetic(monkeypatch):
    # between L(pt) and the partitions, and in the rejection of sample
    # points, everything is int arithmetic: PolyMatrix.int_at, Berkowitz,
    # Yun over Z, Bareiss ranks.  Only the Fraction evaluation of a
    # polynomial could feed a Fraction path, so it must not be called at all;
    # the Fraction operators are refused too once the affinors (which invert
    # g over Q) are built
    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the integer path")

    monkeypatch.setattr(MultiPoly, "eval", refuse)
    specs = [e.spec for e in catalog() if e.n <= 5]
    pencils = [(s, affinor(s.metrics[0], s.metrics[1])) for s in specs if s.d >= 2]
    types = [segre_of_spec(s, seed=11).segre_type for s, _ in pencils]
    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    for seed in (0, 11):
        for spec in specs:
            _sample(spec.nvars, spec.metrics, seed)
        got = [segre_type(L, seed=seed, n=s.n, metrics=s.metrics).segre_type for s, L in pencils]
        if seed == 11:
            assert got == types
    assert len(pencils) >= 40


@pytest.mark.parametrize("root", [
    ({Fraction(1, 2): 2}, {}),
    ({}, {GaussianRational(Fraction(1, 2), Fraction(3, 2)): 1,
          GaussianRational(Fraction(1, 2), Fraction(-3, 2)): 1}),
])
def test_a_non_integer_root_of_chi_is_refused(monkeypatch, root):
    # chi of the integer matrix A is monic, so its roots in Q(i) are
    # integers; a root with a denominator is a fault, not a value to scale
    g, h = get_entry("mokhov-n2").spec.metrics
    L = integer_affinor(g, h)
    monkeypatch.setattr(spectral, "rational_roots", lambda c: RootReport(*root, [1]))
    with pytest.raises(AssertionError, match="not an integer"):
        spectrum_at_point(L, [1, 2], 2)
