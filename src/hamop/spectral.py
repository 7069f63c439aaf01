"""Affinor construction and Jordan/Segre classification at sample points.

The affinor of a pair (g constant, h linear) is L^i_j = h^{ik} g_{kj}.  It
is built in integer form (``IntegerAffinor``) from the metrics' coefficient
arrays D_g g = G0 and D_h h = H0 + u_s H_s: g^-1 = D_g adj(G0) / det G0, so
L = D_g / (D_h |det G0|) (L0 + u_s L_s) with the int arrays
L_s = sign(det G0) H_s adj(G0) and a positive rational scale.  L g = h, so
L is g-self-adjoint iff every H_s is symmetric.  ``affinor`` returns the
polynomial matrix of the same arrays.

The Segre type of L at a point is the multiset of Jordan block-size
partitions per eigenvalue, computed from the rank sequence
r_k = rank((L - lambda I)^k): the number of blocks of size >= k equals
r_{k-1} - r_k, so there are n - r_1 blocks.  Only the ranks that decide the
partition are read (``_partition_for``): none for a simple eigenvalue, r_1
alone when it gives one block or m blocks for multiplicity m, and r_1, r_2,
... until r_k = n - m only for a mixed partition.  Eigenvalues are
extracted exactly over Q and Q(i); anything outside those fields raises
UnsupportedEigenvalueField rather than degrading.

The whole point spectrum is computed over the integers.  The value of L at
an integer point is the scale times the integer matrix A = L0 + u_s L_s
(``metrics.AffineArrays.int_at``); the characteristic polynomial of A is
Berkowitz's, over Z, and ``roots.rational_roots`` splits it over Z
(one p-adic search for the roots in Q(i) of the square-free part, closed
forms at degree <= 2, multiplicities by exact division).  A root mu of
chi_A is the eigenvalue (scale) mu of L.  A polynomial affinor that is
given as a matrix is first written in the same integer form, with scale 1 / D
(``metrics.coefficient_arrays``).  chi_A is monic with integer
coefficients, so every root of it in Q or Q(i) is an integer or a Gaussian
integer (a Gaussian pair (-c1 +- s i)/2 of a factor x^2 + c1 x + c0 has
c1^2 + s^2 = 4 c0, which makes c1 and s even); a root that is not raises
AssertionError.  For an integer root mu the rank sequence is that of the
powers of the integer matrix A - mu I, a nonzero multiple of L - lambda I.
For mu = r + s i it is read off the real quadratic factor of the pair mu,
mu-bar: with X = A - r I, the integer matrix B = (X - s i)(X + s i) =
X^2 + s^2 I.  The two factors are coprime, so ker B^k is the sum of the
kernels of their k-th powers, which conjugation swaps:
rank (X - s i)^k = n - (n - rank B^k) / 2 over Q(i).  One rank sequence of
B (``linsolve.int_rank``, the one rank) gives the partition of both mu and
mu-bar.  Only the reported eigenvalues are Fractions; the points are lists
of ints.

The sample points are ``pointcheck.sample_points``, the one sampler, with
radius SEGRE_RANGE: SEGRE_POINTS seeded points with nonzero coordinates in
[-9, 9], redrawn where any metric of the pair or spec is singular
(``metrics.degenerate_at``, an integer rank), at most
``pointcheck.MAX_REJECT`` times.
The generic type is the maximum of the types seen by semicontinuity
(``_genericity``): a special point can only merge eigenvalues or lower the
ranks, never split or raise them.  ``observed_types`` lists the types seen in that order, and
``consistent`` records whether all points agreed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FirstMetricNotConstant,
    SingleMetric,
    UnsupportedEigenvalueField,
)
from .linsolve import int_rank, mat_mul, solve
from .matrices import PolyMatrix
from .metrics import AffineArrays, LinearMetric, coefficient_arrays
from .pointcheck import sample_points
from .poly import MultiPoly
from .roots import char_poly, rational_roots
from .scalars import GaussianRational

SEGRE_POINTS = 5
SEGRE_RANGE = 9


class IntegerAffinor:
    """An affinor L = num / den (L0 + u_s L_s) in integer form: ``form``
    holds the arrays L0, L1, ..., Lk (int entries, or integer-coefficient
    polynomials in the formal parameters), and num, den > 0 are ints."""

    __slots__ = ("num", "den", "form", "nvars")

    def __init__(self, num: int, den: int, form: AffineArrays, nvars: int):
        self.num, self.den, self.form, self.nvars = num, den, form, nvars

    @staticmethod
    def of_matrix(L: PolyMatrix, n: int) -> "IntegerAffinor":
        """The integer form of a polynomial matrix at most linear in
        u1..un: its coefficient arrays with scale 1 / D."""
        arrays = coefficient_arrays(L, n)
        if arrays is None:
            raise ValueError("an affinor must be at most linear in u")
        return IntegerAffinor(1, arrays[0], AffineArrays(arrays[1]), L.nvars)

    def matrix(self) -> PolyMatrix:
        """L with polynomial entries."""
        arrays, num = self.form.arrays, self.num
        return PolyMatrix([
            [MultiPoly.from_affine_parts(self.nvars, self.den, [num * m[i][j] for m in arrays])
             for j in range(len(row))]
            for i, row in enumerate(arrays[0])
        ])


def integer_affinor(g: LinearMetric, h) -> IntegerAffinor:
    """L = h g^{-1} in integer form, for constant g and a metric or
    bivector h at most linear in u: L_s = sign(det G0) H_s adj(G0) with
    scale D_g / (D_h |det G0|) (module docstring).  g^-1 is read off g's
    memoised adjugate (``LinearMetric.constant_inverse_parts``).  L g = h,
    so L is g-self-adjoint iff h is symmetric, which is checked on the H_s."""
    if not g.is_constant():
        raise FirstMetricNotConstant("affinor needs the first metric constant")
    Dg, adj, det = g.constant_inverse_parts()
    arrays = h.arrays if isinstance(h, LinearMetric) else coefficient_arrays(h, g.n)
    if arrays is None:
        raise ValueError("affinor needs a bivector at most linear in u")
    Dh, H = arrays
    rng = range(g.n)
    if any(m[i][j] != m[j][i] for m in H for i in rng for j in range(i + 1, g.n)):
        raise ValueError("affinor is not g-self-adjoint; bivector not symmetric?")
    if det < 0:
        adj = [[-x for x in row] for row in adj]
    L = AffineArrays([mat_mul(m, adj) for m in H])
    return IntegerAffinor(Dg, Dh * abs(det), L, g.nvars)


def affinor(g: LinearMetric, h) -> PolyMatrix:
    """L = h g^{-1} with polynomial entries, the matrix of
    ``integer_affinor``; requires g constant."""
    return integer_affinor(g, h).matrix()


def _integer(L, n: int) -> IntegerAffinor:
    """An affinor given as an IntegerAffinor or as a polynomial matrix, in
    integer form."""
    return L if isinstance(L, IntegerAffinor) else IntegerAffinor.of_matrix(L, n)


@dataclass(frozen=True)
class EigenBlock:
    """One eigenvalue with its descending Jordan block-size partition."""

    value: object  # Fraction or GaussianRational
    partition: tuple

    @property
    def is_complex(self) -> bool:
        return isinstance(self.value, GaussianRational) and self.value.im != 0


def segre_key(*blocks) -> tuple:
    """Canonical Segre type of (partition, "R" | "C") pairs, one per
    eigenvalue: sorted coarsest first."""
    return tuple(sorted(blocks, key=lambda t: (sum(t[0]), t[0], t[1]), reverse=True))


@dataclass
class PointSpectrum:
    point: tuple
    blocks: list  # list[EigenBlock]

    def type_key(self) -> tuple:
        """The Segre type of the point (``segre_key``)."""
        return segre_key(*((b.partition, "C" if b.is_complex else "R") for b in self.blocks))


@dataclass
class SegreReport:
    spectra: list            # list[PointSpectrum]
    segre_type: tuple        # generic type key
    consistent: bool
    observed_types: list     # distinct type keys seen, most generic first

    def to_dict(self):
        return {
            "segre_type": format_segre_type(self.segre_type),
            "consistent": self.consistent,
            "observed_types": [format_segre_type(t) for t in self.observed_types],
            "points": [
                {
                    "point": [f"{x.numerator}/{x.denominator}" for x in s.point],
                    "eigenvalues": [
                        {"value": str(b.value), "blocks": list(b.partition)}
                        for b in s.blocks
                    ],
                }
                for s in self.spectra
            ],
        }


def format_segre_type(key: tuple) -> str:
    """Human-readable form, e.g. "[2,2]" or "[2]C+[2]C" or "[3]+[1]"."""
    parts = []
    for partition, flag in key:
        body = ",".join(str(x) for x in partition)
        parts.append(f"[{body}]" + ("C" if flag == "C" else ""))
    return "+".join(parts)


def _partition_for(ranks, multiplicity: int, n: int) -> tuple:
    """Block-size partition from the ranks of the powers M, M^2, ... of a
    multiple of L - lambda I (an iterator, read only as far as needed).
    The number of blocks is n - rank(M).  Multiplicity 1 gives (1) with no
    rank read; otherwise rank(M) is read, and one block gives (m) and m
    blocks give (1, ..., 1).  Only a mixed partition reads the ranks of the
    higher powers, until they reach n - m.  The partition is checked to sum
    to m except on the two shortcuts, simple and one block, which trust the
    multiplicity of ``roots.rational_roots`` (checked against sympy in the
    spectral oracle tests)."""
    if multiplicity == 1:
        return (1,)
    seq = [n, next(ranks)]
    if seq[1] == n - 1:
        return (multiplicity,)
    while seq[-1] > n - multiplicity and len(seq) <= n + 1:
        seq.append(next(ranks))
    ge = [seq[k - 1] - seq[k] for k in range(1, len(seq))]
    partition = []
    for k in range(1, len(ge) + 1):
        exactly = ge[k - 1] - (ge[k] if k < len(ge) else 0)
        partition.extend([k] * exactly)
    partition.sort(reverse=True)
    if sum(partition) != multiplicity:
        raise AssertionError("rank sequence inconsistent with multiplicity")
    return tuple(partition)


def _real_ranks(b: list[list[int]]):
    """rank(B^k) for k = 1, 2, ..."""
    power = b
    while True:
        yield int_rank(power)
        power = mat_mul(power, b)


def _shifted(a: list[list[int]], s: int) -> list[list[int]]:
    """A - s I."""
    return [[x - s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]


def _root_int(x: Fraction) -> int:
    """A root (or a Gaussian root's part) of the monic integer chi_A, which
    is an integer (module docstring)."""
    if x.denominator != 1:
        raise AssertionError(f"root {x} of a monic integer polynomial is not an integer")
    return x.numerator


def _scaled(x: Fraction, num: int, den: int) -> Fraction:
    """x num / den for positive ints num, den, with no Fraction arithmetic."""
    return Fraction(x.numerator * num, x.denominator * den)


def spectrum_at_point(L, point, n: int) -> PointSpectrum | None:
    """Eigenvalues and partitions of an affinor (an IntegerAffinor, or a
    polynomial matrix at most linear in u1..un) at one integer point (ints,
    or Fractions with denominator 1); None when the characteristic
    polynomial does not split over Q(i).  Its roots are integers or
    Gaussian integers (module docstring)."""
    L = _integer(L, n)
    a, num, den = L.form.int_at(point), L.num, L.den
    report = rational_roots(char_poly(a))
    if not report.fully_split:
        return None
    blocks = []
    for r, mult in sorted(report.rational.items()):
        b = _shifted(a, _root_int(r))
        blocks.append(EigenBlock(_scaled(r, num, den), _partition_for(_real_ranks(b), mult, n)))
    pairs = {}  # (re, |im|) -> the partition of both lambda and its conjugate
    for z, mult in sorted(report.gaussian.items(), key=lambda t: (t[0].re, t[0].im)):
        re, im = z.re, z.im
        partition = pairs.get((re, abs(im)))
        if partition is None:
            x, t = _shifted(a, _root_int(re)), _root_int(im)
            # B = (X - i t)(X + i t); ker B^k = ker (X - i t)^k + ker (X + i t)^k
            ranks = (n - (n - r) // 2 for r in _real_ranks(_shifted(mat_mul(x, x), -t * t)))
            partition = pairs[(re, abs(im))] = _partition_for(ranks, mult, n)
        lam = GaussianRational(_scaled(re, num, den), _scaled(im, num, den))
        blocks.append(EigenBlock(lam, partition))
    return PointSpectrum(tuple(point), blocks)


def _genericity(key: tuple):
    """Order of Segre types by semicontinuity: rank((L - lambda)^k) is lower
    semicontinuous in u, so off the generic type a point can only merge
    eigenvalues or lower ranks.  More distinct eigenvalues first, then the
    larger ranks, i.e. the larger sum of squared block sizes, then the key."""
    return len(key), sum(sum(b * b for b in partition) for partition, _ in key), key


def segre_type(
    L,
    points=None,
    seed: int = 0,
    n: int | None = None,
    metrics=(),
) -> SegreReport:
    """Segre classification of an affinor (an IntegerAffinor, or a
    polynomial matrix at most linear in u1..un) at sample points (drawn,
    when not given, away from the points where any of ``metrics`` is
    singular)."""
    n = n or (L.rows if isinstance(L, PolyMatrix) else len(L.form.arrays[0]))
    L = _integer(L, n)
    if points is None:
        points = sample_points(L.nvars, metrics, seed, SEGRE_POINTS, SEGRE_RANGE)
    spectra = []
    unsupported = 0
    for pt in points:
        s = spectrum_at_point(L, pt, n)
        if s is None:
            unsupported += 1
        else:
            spectra.append(s)
    if not spectra:
        raise UnsupportedEigenvalueField(
            "characteristic polynomial does not split over Q(i) at any sample point"
        )
    observed = sorted({s.type_key() for s in spectra}, key=_genericity, reverse=True)
    consistent = len(observed) == 1 and unsupported == 0
    generic = observed[0]
    return SegreReport(spectra, generic, consistent, observed)


def segre_of_pair(g: LinearMetric, h, points=None, seed: int = 0) -> SegreReport:
    """Segre report of the affinor of a pair; sample points are rejected
    where either metric degenerates."""
    metrics = [g, h] if isinstance(h, LinearMetric) else [g]
    return segre_type(integer_affinor(g, h), points=points, seed=seed, n=g.n, metrics=metrics)


def segre_of_spec(spec, points=None, seed: int = 0) -> SegreReport:
    """Segre report of an operator spec: affinor of (g^1, g^2), at sample
    points where no metric of the spec is singular.  A spec with one metric
    has no affinor and raises SingleMetric."""
    if spec.d < 2:
        raise SingleMetric("a Segre type needs two metrics; the spec has d = 1")
    return segre_type(
        integer_affinor(spec.metrics[0], spec.metrics[1]),
        points=points,
        seed=seed,
        n=spec.n,
        metrics=spec.metrics,
    )


def interpolate_affine_eigenvalues(report: SegreReport, nvars: int):
    """Try to express each eigenvalue slot as an affine function of u (and any
    trailing parameters).  Returns a list of (re_coeffs, im_coeffs) vectors of
    length nvars+1 (constant last), or None when no consistent affine fit
    exists across the sampled points (requires enough sample points)."""
    if not report.consistent or len(report.spectra) < nvars + 2:
        return None
    k = len(report.spectra[0].blocks)
    fits = []
    for slot in range(k):
        rows = []
        rhs_re = []
        rhs_im = []
        for s in report.spectra:
            if len(s.blocks) != k:
                return None
            rows.append([Fraction(x) for x in s.point] + [Fraction(1)])
            v = s.blocks[slot].value
            if isinstance(v, GaussianRational):
                rhs_re.append(v.re)
                rhs_im.append(v.im)
            else:
                rhs_re.append(Fraction(v))
                rhs_im.append(Fraction(0))
        fit = []
        for rhs in (rhs_re, rhs_im):
            sol = solve(rows, rhs)
            if sol is None:
                return None
            fit.append(sol)
        fits.append((fit[0], fit[1]))
    return fits
