"""Standalone property suites under seeded randomization.

Each test here is one of the structural invariants: Leibniz,
the matrix-inverse identity, obstruction-tensor symmetry, Killing-residual
symmetry, Nijenhuis antisymmetry, redundancy of the fifth obstruction
identity, exactness of the flat pencil, constancy of eigenvalues for
diagonalizable affinors, the rewritten Killing identity for the contravariant
symbols, and agreement of the two verification criteria.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hamop.families import killing_bivector_space
from hamop.geometry import (
    flatness_witness,
    killing_residual,
    levi_civita,
    nijenhuis_torsion,
    obstruction_tensor,
)
from hamop.matrices import PolyMatrix, determinant, matrix_inverse
from hamop.metrics import LinearMetric
from hamop.poly import MultiPoly, RationalFunction
from hamop.scalars import GaussianRational
from hamop.spectral import segre_of_pair
from hamop.verify import exactness_check, mokhov_conditions, theorem2_conditions

from conftest import corpus_pairs, random_linear_bivector, u_vars
from test_poly import random_poly


def test_leibniz():
    rng = random.Random(102)
    for _ in range(30):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        for k in (1, 2, 3):
            assert (a * b).partial(k) == a.partial(k) * b + a * b.partial(k)


def test_matrix_inverse_identity():
    rng = random.Random(103)
    done = 0
    ident = PolyMatrix.identity(3, 3).map(RationalFunction)
    while done < 6:
        m = random_linear_bivector(rng, 3, nondegenerate=False)
        if determinant(m).is_zero():
            continue
        assert m @ matrix_inverse(m) == ident
        done += 1


def test_obstruction_symmetry():
    rng = random.Random(104)
    g, pairs = corpus_pairs(2, rng, raw=4, killing=2, family=3, constant=2)
    for h in pairs:
        t = obstruction_tensor(g, h)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert t.t[i][j][k] == t.t[i][k][j]


def test_killing_residual_symmetry():
    rng = random.Random(105)
    g = LinearMetric.antidiagonal(3)
    for _ in range(6):
        h = random_linear_bivector(rng, 3, nondegenerate=False)
        K = killing_residual(g, h, 3)
        for i, j, k in itertools.product(range(3), repeat=3):
            for p in itertools.permutations((i, j, k)):
                assert K[i][j][k] == K[p[0]][p[1]][p[2]]


def test_nijenhuis_antisymmetry():
    rng = random.Random(106)
    for _ in range(6):
        L = random_linear_bivector(rng, 3, nondegenerate=False)
        N = nijenhuis_torsion(L, 3)
        for k, i, j in itertools.product(range(3), repeat=3):
            assert N[k][i][j] == -N[k][j][i]


def test_t5_redundancy():
    # whenever the first four obstruction identities hold, the fifth follows
    rng = random.Random(107)
    seen_antecedent = 0
    for n in (2, 3):
        g, pairs = corpus_pairs(n, rng, raw=5, killing=4, family=5, constant=3)
        for h in pairs:
            rep = mokhov_conditions(g, h)
            first_four = all(rep.condition(t).passed for t in ("T1", "T2", "T3", "T4"))
            if first_four:
                seen_antecedent += 1
                assert rep.condition("T5").passed
    assert seen_antecedent >= 10


def test_connection_skew_premise():
    # d_k g^{ij} = b^{ij}_k + b^{ji}_k and g^{il} b^{jk}_l = g^{jl} b^{ik}_l
    rng = random.Random(108)
    g, pairs = corpus_pairs(2, rng, raw=3, killing=2, family=3, constant=2)
    for h in pairs:
        n = 2
        conn = levi_civita(h)
        zero = RationalFunction(MultiPoly.zero(h.nvars))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = RationalFunction(h.mat[i, j].partial(k + 1))
                    assert conn.b_upper[i][j][k] + conn.b_upper[j][i][k] == lhs
                    a = zero
                    b = zero
                    for l in range(n):
                        a = a + h.mat[i, l] * conn.b_upper[j][k][l]
                        b = b + h.mat[j, l] * conn.b_upper[i][k][l]
                    assert a == b


def test_rewritten_killing_identity_for_passing_pairs():
    # b~^{ij}_s g^{sk} + (b~^{ki}_s + b~^{ik}_s) g^{sj} = 0 whenever the
    # linearity/torsion/Killing conditions hold
    rng = random.Random(109)
    checked = 0
    for n in (2, 3):
        g, pairs = corpus_pairs(n, rng, raw=3, killing=3, family=5, constant=3)
        for h in pairs:
            if not theorem2_conditions(g, h).verdict:
                continue
            checked += 1
            conn = levi_civita(h)
            zero = RationalFunction(MultiPoly.zero(g.nvars))
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        acc = zero
                        for s in range(n):
                            acc = acc + conn.b_upper[i][j][s] * g.mat[s, k]
                            acc = acc + (
                                conn.b_upper[k][i][s] + conn.b_upper[i][k][s]
                            ) * g.mat[s, j]
                        assert not acc, (n, i, j, k)
    assert checked >= 10


def test_exactness_for_passing_pairs():
    rng = random.Random(110)
    checked = 0
    for n in (2, 3):
        g, pairs = corpus_pairs(n, rng, raw=2, killing=2, family=6, constant=3)
        for h in pairs:
            if theorem2_conditions(g, h).verdict:
                checked += 1
                assert exactness_check(g, h)
    assert checked >= 10


def test_diagonal_affinor_has_constant_eigenvalues():
    # whenever a passing pair has all Jordan blocks of size 1 at the sample
    # points, every eigenvalue is constant across points
    from hamop.errors import UnsupportedEigenvalueField

    rng = random.Random(111)
    seen = 0
    for n in (2, 3):
        g, pairs = corpus_pairs(n, rng, raw=3, killing=3, family=5, constant=4)
        for h in pairs:
            if not theorem2_conditions(g, h).verdict:
                continue
            try:
                rep = segre_of_pair(g, h, seed=2)
            except UnsupportedEigenvalueField:
                # constant pairs may have eigenvalues outside Q(i); those are
                # diagonalizable with constant eigenvalues by construction
                continue
            if not rep.consistent:
                continue
            diagonal = all(
                all(size == 1 for size in partition)
                for partition, _ in rep.segre_type
            )
            if not diagonal:
                continue
            seen += 1
            reference = sorted(
                (b.value.re, b.value.im) if isinstance(b.value, GaussianRational) else (Fraction(b.value), Fraction(0))
                for b in rep.spectra[0].blocks
            )
            for s in rep.spectra[1:]:
                vals = sorted(
                    (b.value.re, b.value.im) if isinstance(b.value, GaussianRational) else (Fraction(b.value), Fraction(0))
                    for b in s.blocks
                )
                assert vals == reference
    assert seen >= 3


def test_criteria_agree_and_passing_implies_flat():
    rng = random.Random(112)
    for n in (2, 3):
        g, pairs = corpus_pairs(n, rng, raw=6, killing=4, family=5, constant=3)
        for h in pairs:
            mok = mokhov_conditions(g, h)
            th2 = theorem2_conditions(g, h)
            assert mok.verdict == th2.verdict
            if th2.verdict:
                assert flatness_witness(h) is None


def test_killing_space_members_satisfy_killing():
    rng = random.Random(113)
    for n in (2, 3):
        g = LinearMetric.antidiagonal(n)
        for b in killing_bivector_space(g):
            K = killing_residual(g, b, n)
            assert all(
                not K[i][j][k]
                for i in range(n)
                for j in range(n)
                for k in range(n)
            )
