"""Univariate root extraction over Q and Q(i), and characteristic polynomials.

The entry point rational_roots() takes a univariate MultiPoly, peels off all
rational roots and, after a square-free decomposition, also splits residual
quadratic factors whose discriminant is minus a rational square into
Gaussian conjugate pairs.  Whatever cannot be resolved in Q(i) is returned
as the residual factor.  Rational roots come from the rational root theorem
on the integer-scaled factor: each candidate p/q is tested with integer
Horner, sum c_k p^k q^(d-k) = 0, and only a confirmed root is divided out.

char_poly() is Berkowitz's division-free algorithm, so an integer matrix
gives an integer characteristic polynomial with no rational arithmetic;
``matrices`` runs it on polynomial matrices for determinants and adjugates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm

from .poly import MultiPoly
from .scalars import GaussianRational, rational_sqrt

# dense univariate polynomials: list of Fraction coefficients, ascending degree


def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def univ_deriv(c: list[Fraction]) -> list[Fraction]:
    return _trim([c[i] * i for i in range(1, len(c))])


def univ_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def univ_divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and _trim(a):
        d = len(a) - len(b)
        f = a[-1] * inv
        q[d] = f
        for i, y in enumerate(b):
            a[d + i] -= f * y
        _trim(a)
    return _trim(q), _trim(a)


def univ_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd over Q."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = univ_divmod(a, b)
        a, b = b, r
    if a:
        inv = 1 / a[-1]
        a = [x * inv for x in a]
    return a


def _univ_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def squarefree_decomposition(c: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm: returns [(factor_i, multiplicity_i)] with factor_i
    monic square-free, product of factor_i^mult_i = c up to a constant."""
    c = _trim(list(c))
    if len(c) <= 1:
        return []
    inv = 1 / c[-1]
    c = [x * inv for x in c]
    d = univ_deriv(c)
    g = univ_gcd(c, d)
    if len(g) == 1:
        return [(c, 1)]
    w, _ = univ_divmod(c, g)
    y, _ = univ_divmod(d, g)
    z = _univ_sub(y, univ_deriv(w))
    out = []
    i = 1
    while len(w) > 1:
        f = univ_gcd(w, z)
        if len(f) > 1:
            out.append((f, i))
        w, _ = univ_divmod(w, f)
        y, _ = univ_divmod(z, f)
        z = _univ_sub(y, univ_deriv(w))
        i += 1
    return out


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    import random as _random

    rng = _random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = int_gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    stack = [abs(n)]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    divs = [1]
    for p, e in _factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _integer_scaled(c: list[Fraction]) -> list[int]:
    """The coefficients times the lcm of their denominators."""
    mult = lcm(*(x.denominator for x in c))
    return [x.numerator * (mult // x.denominator) for x in c]


def _rational_root_candidates(ints: list[int]) -> list[Fraction]:
    """Rational root theorem candidates for an integer polynomial with
    ints[0] != 0."""
    cands = set()
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return sorted(cands)


def _is_root(ints: list[int], r: Fraction) -> bool:
    """Whether r = p/q is a root: integer Horner on the homogenised form,
    sum ints[k] p^k q^(d-k) = 0."""
    p, q = r.numerator, r.denominator
    acc = ints[-1]
    qk = 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc == 0


def _gaussian_quadratic_roots(c: list[Fraction]):
    """Roots of a*x^2+b*x+c over Q(i) when disc is minus a rational square."""
    c0, b, a = c[0], c[1], c[2]
    disc = b * b - 4 * a * c0
    if disc >= 0:
        return None
    s = rational_sqrt(-disc)
    if s is None:
        return None
    re = -b / (2 * a)
    im = s / (2 * a)
    return [GaussianRational(re, im), GaussianRational(re, -im)]


class RootReport:
    """Roots with multiplicities plus the unresolved residual factor."""

    def __init__(self, rational: dict, gaussian: dict, residual: list[Fraction]):
        self.rational = rational      # Fraction -> multiplicity
        self.gaussian = gaussian      # GaussianRational (im != 0) -> multiplicity
        self.residual = residual      # monic dense coefficients, [1] if fully split

    @property
    def fully_split(self) -> bool:
        return len(self.residual) <= 1


def rational_roots(p: MultiPoly | list[Fraction]) -> RootReport:
    """All rational roots with multiplicity, Gaussian roots of residual
    quadratics when available, and the remaining factor."""
    c = p.univariate_coeffs() if isinstance(p, MultiPoly) else _trim(list(p))
    if not c:
        raise ValueError("zero polynomial has no root structure")
    rational: dict[Fraction, int] = {}
    gaussian: dict[GaussianRational, int] = {}
    # strip x^k
    k = 0
    while c[0] == 0:
        c.pop(0)
        k += 1
    if k:
        rational[Fraction(0)] = k
    residual = [Fraction(1)]
    if len(c) > 1:
        for factor, mult in squarefree_decomposition(c):
            f = factor
            if len(f) == 2:
                rational[-f[0] / f[1]] = rational.get(-f[0] / f[1], 0) + mult
                continue
            if len(f) > 3:
                # rational root theorem on the square-free factor
                ints = _integer_scaled(f)
                for r in _rational_root_candidates(ints):
                    if _is_root(ints, r):
                        f, _ = univ_divmod(f, [-r, Fraction(1)])
                        rational[r] = rational.get(r, 0) + mult
                        if len(f) <= 2:
                            break
                        ints = _integer_scaled(f)
                if len(f) == 2:
                    r = -f[0] / f[1]
                    rational[r] = rational.get(r, 0) + mult
                    continue
            if len(f) == 3:
                disc = f[1] * f[1] - 4 * f[2] * f[0]
                s = rational_sqrt(disc) if disc >= 0 else None
                if s is not None:
                    for r in ((-f[1] + s) / (2 * f[2]), (-f[1] - s) / (2 * f[2])):
                        rational[r] = rational.get(r, 0) + mult
                    continue
                g = _gaussian_quadratic_roots(f)
                if g is not None:
                    for root in g:
                        gaussian[root] = gaussian.get(root, 0) + mult
                    continue
            if len(f) > 1:
                residual = univ_mul(residual, _power(f, mult))
    return RootReport(rational, gaussian, residual)


def _power(c: list[Fraction], k: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(k):
        out = univ_mul(out, c)
    return out


def char_poly(a: list[list]) -> list:
    """Characteristic polynomial det(x*I - A), dense ascending coefficients,
    by Berkowitz's division-free algorithm: exact over any commutative
    ring, so an int matrix gives int coefficients.

    With A_k the leading k x k block, [[A_(k-1), c], [r, a]], the
    coefficients of det(x*I - A_k), highest first, are a lower-triangular
    Toeplitz matrix with first column (1, -a, -r c, -r A_(k-1) c, ...,
    -r A_(k-1)^(k-2) c) times those of det(x*I - A_(k-1))."""
    p = [1]  # det(x*I - A_0), highest coefficient first
    for k in range(len(a)):
        lead = [r[:k] for r in a[:k]]
        row = a[k][:k]
        v = [r[k] for r in a[:k]]
        t = [1, -a[k][k]]
        for _ in range(k):
            t.append(-sum(x * y for x, y in zip(row, v)))
            v = [sum(x * y for x, y in zip(r, v)) for r in lead]
        p = [sum(t[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
             for i in range(k + 2)]
    return p[::-1]
