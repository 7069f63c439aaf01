"""Trivial Frobenius manifold on n components modelled on the cohomology
ring of complex projective (n-1)-space, and its intersection form.

Data: antidiagonal flat metric g_{ij} = delta_{i+j,n+1}, constant structure
constants c^i_{jk} = 1 iff j+k-i = n, unity e = d/du^n, Euler field
E^k = (3k-2n-1) u^k d/du^k.

The printed Euler field satisfies Lie_E e = -(n-1) e, Lie_E c = (n-1) c and
Lie_E g_cov = (1-n) g_cov, so E/(n-1) satisfies the textbook normalization
with charge d = 3; the checker verifies the axioms for E/(n-1) and records
the measured scaling factors.  The intersection form g^{il} c^j_{lk} E^k is
computed with the unnormalized E, which is exactly what reproduces the
second metric of the Mokhov operator, [3(i+j)-2n-4] u^{i+j-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .families import mu_bivector
from .linsolve import inverse
from .matrices import PolyMatrix
from .poly import MultiPoly


@dataclass
class FrobeniusData:
    """Constant-structure Frobenius data on n components."""

    n: int
    g_cov: list        # g_{ij}, rationals (ints for the projective-space data)
    c: list            # c^i_{jk}, ints
    e_index: int       # unity direction (1-based)
    euler_coeffs: list # E^k = euler_coeffs[k-1] * u^k, ints
    charge: Fraction = Fraction(3)


def build_cp_frobenius(n: int) -> FrobeniusData:
    if n < 2:
        raise ValueError("need n >= 2")
    rng = range(1, n + 1)
    g_cov = [[int(i + j == n + 1) for j in rng] for i in rng]
    c = [[[int(j + k - i == n) for k in rng] for j in rng] for i in rng]
    euler = [3 * k - 2 * n - 1 for k in rng]
    return FrobeniusData(n, g_cov, c, n, euler)


@dataclass
class FrobeniusReport:
    n: int
    axioms: dict = field(default_factory=dict)   # name -> (bool, witness | None)
    scalings: dict = field(default_factory=dict) # measured Lie_E factors

    @property
    def verdict(self) -> bool:
        return all(ok for ok, _ in self.axioms.values())

    def to_dict(self):
        return {
            "n": self.n,
            "verdict": "pass" if self.verdict else "fail",
            "axioms": {
                name: {"pass": ok, **({"witness": str(w)} if w else {})}
                for name, (ok, w) in self.axioms.items()
            },
            "euler_scalings": {
                k: None if v is None else str(v) for k, v in self.scalings.items()
            },
        }


def check_frobenius_axioms(f: FrobeniusData) -> FrobeniusReport:
    """Commutativity, associativity, invariance, flat unity, potential
    existence, and the Euler scalings (measured exactly)."""
    n = f.n
    rep = FrobeniusReport(n)
    c, g = f.c, f.g_cov

    def first_fail(gen):
        for idx, val in gen:
            if val:
                return (False, idx)
        return (True, None)

    rep.axioms["commutative"] = first_fail(
        ((i, j, k), c[i][j][k] - c[i][k][j])
        for i in range(n)
        for j in range(n)
        for k in range(j + 1, n)
    )
    rep.axioms["associative"] = first_fail(
        (
            (i, j, k, hh),
            sum(c[i][j][l] * c[l][k][hh] - c[i][k][l] * c[l][j][hh] for l in range(n)),
        )
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for hh in range(n)
    )
    rep.axioms["invariant"] = first_fail(
        (
            (i, j, l),
            sum(g[i][k] * c[k][j][l] - g[j][k] * c[k][i][l] for k in range(n)),
        )
        for i in range(n)
        for j in range(n)
        for l in range(n)
    )
    # unity e = d/du^{e_index}: e o X = X means c^i_{e k} = delta^i_k;
    # constant e and flat g make nabla e = 0 automatic
    eidx = f.e_index - 1
    rep.axioms["flat-unity"] = first_fail(
        ((i, k), c[i][eidx][k] - (1 if i == k else 0))
        for i in range(n)
        for k in range(n)
    )
    # potential: c_{ijk} = g_{il} c^l_{jk} totally symmetric, which is exactly
    # third-derivative integrability of F = (1/6) c_{ijk} u^i u^j u^k
    c_low = [
        [
            [sum(g[i][l] * c[l][j][k] for l in range(n)) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    rep.axioms["potential"] = first_fail(
        ((i, j, k), any(c_low[a][b][d] != c_low[i][j][k] for a, b, d in permutations((i, j, k))))
        for i, j, k in product(range(n), repeat=3)
    )
    # compatibility nabla_l c = nabla_j c is automatic for constant c in flat
    # coordinates; record it for completeness
    rep.axioms["connection-compatible"] = (True, None)

    # Euler scalings, measured exactly on the printed E:
    #   Lie_E e = -w_e e (the "e" factor below is w_e, matching the
    #   normalization Lie e = -e after dividing E by w_e)
    #   (Lie_E c)^i_{jk} = c^i_{jk} (w_j + w_k - w_i)
    #   (Lie_E g_cov)_{ij} = g_{ij} (w_i + w_j)
    # Each tensor's factor is read on its first nonzero entry (None when it
    # has none), and it is an eigentensor if every nonzero entry agrees.
    w = f.euler_coeffs

    def scaling(factors):
        factors = list(factors)
        return all(x == factors[0] for x in factors), factors[0] if factors else None

    lie_e = w[eidx]
    rep.scalings["e"] = lie_e
    ok, factor_c = scaling(
        w[j] + w[k] - w[i] for i, j, k in product(range(n), repeat=3) if c[i][j][k]
    )
    rep.axioms["euler-c-eigentensor"] = (ok, None)
    rep.scalings["c"] = factor_c
    ok, factor_g = scaling(w[i] + w[j] for i, j in product(range(n), repeat=2) if g[i][j])
    rep.axioms["euler-g-eigentensor"] = (ok, None)
    rep.scalings["g_cov"] = factor_g
    # normalized Euler field E/(n-1) must realize the charge-3 normalization:
    # Lie e = -e, Lie c = c, Lie g = (2-d) g = -g; a c or g_cov with no
    # nonzero entry has no scaling factor and fails it
    nrm = n - 1
    rep.axioms["euler-normalized"] = (
        None not in (factor_c, factor_g)
        and lie_e == nrm
        and factor_c == nrm
        and factor_g == (2 - f.charge) * nrm,
        None,
    )
    return rep


def intersection_form(f: FrobeniusData) -> PolyMatrix:
    """gt^{ij} = g^{il} c^j_{lk} E^k with the printed (unnormalized) E: the
    product of g^-1 and b^{lj} = c^j_{lk} E^k, each entry of b built from
    its integer arrays (``MultiPoly.from_affine_parts``)."""
    n = f.n
    g_up = inverse(f.g_cov)
    if g_up is None:
        raise ValueError("metric is singular")
    w = f.euler_coeffs
    b = [[MultiPoly.from_affine_parts(n, 1, [0] + [f.c[j][l][k] * w[k] for k in range(n)])
          for j in range(n)] for l in range(n)]
    return PolyMatrix.from_scalars(n, g_up) @ PolyMatrix(b)


def intersection_matches_mu(f: FrobeniusData) -> bool:
    return (intersection_form(f) - mu_bivector(f.n, 0)).is_zero()


def cohomology_ring_correspondence(n: int) -> bool:
    """The projective-space ring constants (1 iff j+k-i = 1) map onto the
    Frobenius constants under the relabeling i -> n+1-i of all indices."""
    f = build_cp_frobenius(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                ring = 1 if j + k - i == 1 else 0
                relabeled = f.c[n - i][n - j][n - k]
                if ring != relabeled:
                    return False
    return True
