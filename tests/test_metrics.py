"""Non-degeneracy of metrics: decided exactly at one point, with the symbolic
determinant only where that point gives 0."""

import random
from fractions import Fraction

import hamop.metrics as metrics
from hamop.catalog import catalog
from hamop.matrices import PolyMatrix, adjugate_det, determinant
from hamop.metrics import degenerate_at, identically_degenerate, probe_point
from hamop.poly import MultiPoly

from conftest import random_linear_bivector, u_vars
from test_poly import random_poly


def _degenerate_cases():
    u1, u2, u3 = u_vars(3)
    z = MultiPoly.zero(3)
    rng = random.Random(3)
    row = [random_poly(rng, 3, max_deg=1) for _ in range(3)]
    b = PolyMatrix([[random_poly(rng, 3, 5, 1) for _ in range(2)] for _ in range(3)])
    c = PolyMatrix([[random_poly(rng, 3, 5, 1) for _ in range(3)] for _ in range(2)])
    return [
        PolyMatrix([row, [random_poly(rng, 3) for _ in range(3)], row]),
        PolyMatrix([[u1, u1], [u1, u1]]),
        PolyMatrix([[u1 + 2, u2 * u3], [z, z]]),
        b @ c,  # rank <= 2 everywhere
    ]


def _random_square(rng, n, nvars=3):
    entries = [[random_poly(rng, nvars, 3, 1) for _ in range(n)] for _ in range(n)]
    return PolyMatrix(entries)


def test_identically_degenerate_matches_symbolic_determinant():
    rng = random.Random(20261018)
    degenerate = _degenerate_cases()
    assert all(identically_degenerate(m) for m in degenerate)
    cases = [_random_square(rng, n) for n in (1, 2, 3, 4) for _ in range(6)]
    cases += [random_linear_bivector(rng, n, nondegenerate=False) for n in (2, 3)]
    for m in degenerate + cases:
        assert identically_degenerate(m) == determinant(m).is_zero()


def test_symbolic_fallback_runs_only_on_a_zero_at_the_probe_point(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return determinant(m)

    monkeypatch.setattr(metrics, "determinant", counted)
    x1 = probe_point(2)[0]
    u1, _ = u_vars(2)
    one, zero = MultiPoly.const(2, 1), MultiPoly.zero(2)
    # det = u1 - x1 vanishes at the probe point but not identically
    m = PolyMatrix([[u1 - x1, zero], [zero, one]])
    assert degenerate_at(m, probe_point(2))
    assert not identically_degenerate(m)
    assert calls == [m]
    calls.clear()
    g = random_linear_bivector(random.Random(5), 3)
    assert not identically_degenerate(g)
    assert calls == []


def _param_family_cases(rng):
    """(metric matrix, point) pairs from the catalog entries with formal
    parameters: the point gives the parameters coordinates too."""
    out = []
    for e in catalog():
        if e.params and e.n <= 4:
            for m in e.spec.metrics:
                for _ in range(3):
                    out.append((m.mat, [Fraction(rng.randint(-2, 2)) for _ in range(m.nvars)]))
    return out


def test_degenerate_at_is_the_value_of_the_determinant():
    rng = random.Random(11)
    u1, _ = u_vars(2)
    one, zero = MultiPoly.const(2, 1), MultiPoly.zero(2)
    on_locus = PolyMatrix([[u1 - 3, zero], [zero, one]])
    x1 = probe_point(2)[0]
    on_probe = PolyMatrix([[u1 - x1, zero], [zero, one]])
    pairs = [(on_locus, [Fraction(3), Fraction(-7)]), (on_locus, [Fraction(4), Fraction(0)])]
    pairs += [(on_probe, probe_point(2))]
    for _ in range(20):
        m = _random_square(rng, rng.randint(1, 3), nvars=2)
        pairs.append((m, [Fraction(rng.randint(-3, 3)) for _ in range(2)]))
        # coefficient denominators that are not units of Z, and the probe point
        big = m.map(lambda p: p * Fraction(rng.randint(1, 9), rng.choice((7, 10**6 + 3, 2**40))))
        pairs += [(big, [Fraction(rng.randint(-3, 3)) for _ in range(2)]), (big, probe_point(2))]
    pairs += _param_family_cases(rng)
    assert sum(determinant(m).eval(pt) == 0 for m, pt in pairs) >= 5
    for m, pt in pairs:
        value = determinant(m).eval(pt)
        assert degenerate_at(m, pt) == (value == 0)
        # the determinant a ``pointcheck.PointFrame`` takes at the point
        assert (adjugate_det(m.int_at(pt)[0])[1] == 0) == (value == 0)
