"""Univariate root extraction over Q and Q(i), and characteristic polynomials.

The entry point rational_roots() takes a univariate MultiPoly or dense
coefficients (ints or Fractions) and works over Z throughout: the
coefficients are scaled to an integer polynomial c once.  Its gcds are
primitive pseudo-remainder sequences, content removed at each step, and
its divisions are exact integer divisions by primitive factors (Gauss's
lemma).  The distinct roots of c in Q(i) are those of its square-free part
sq = c / gcd(c, c'), and one search finds all of them (below).  Then each
root gets its multiplicity by dividing c by its primitive factor over Z
while the division is exact (``_divide_out``): a rational root p/q by
q x - p, a Gaussian pair (alpha +- beta i)/a by the real quadratic
a^2 x^2 - 2 a alpha x + alpha^2 + beta^2 over its content.  What is left
of c has no root in Q(i) and is the residual.

A square-free sq of degree d >= 3 gives up its roots by p-adic lifting
(Loos 1983, "Computing rational zeros of integral polynomials by p-adic
expansion", SIAM J. Comput. 12; Hensel lifting as in Zassenhaus 1969), with
no integer factoring.  With f = sq and a = f[-1], the monic
F(y) = a^(d-1) f(y/a) has integer coefficients, and each root of f in Q(i)
is y/a for a root y of F in Z[i] (a root of a monic integer polynomial
that lies in Q(i) is a Gaussian integer), with |y| <= B = 1 + max |F_k|
(Cauchy's bound).  The roots of F mod p are found by evaluation at the
primes p = 5, 13, 17, ... with p = 1 (mod 4), in turn, until every one of
them is simple (F'(r) != 0 mod p).  For such a p there is an iota with
iota^2 = -1 (mod p), so i -> iota maps Z[i] onto Z/p and each root y of F
in Z[i] onto a root r of F mod p; by Hensel's lemma a simple r has one lift
mod p^(2^k) for every k, which Newton's iteration finds, and that lift is
the image of y mod m = p^(2^k), with iota lifted to m the same way.  Two
distinct roots of F in Z[i] with one image would make it a repeated root
mod p, so each lifted root is the image of at most one root.  A root that
is repeated mod p is a common root of F and F' mod p, so p divides the
discriminant of F, which is nonzero since f is square-free: only the
finitely many primes dividing it are passed over, and as there are
infinitely many primes p = 1 (mod 4) the search ends.

An integer root y of F is its own image, the symmetric residue of one
lifted root.  A Gaussian pair alpha +- beta i has the images
r = alpha + beta iota and s = alpha - beta iota, so alpha = (r + s)/2 and
beta = (r - s)/(2 iota) (mod m); p is odd and iota a unit, so both
quotients exist.  |alpha|, |beta| <= |y| <= B, so once m > 2B the
symmetric residues are alpha and beta themselves, and no root is missed.
The symmetric residue of each lifted root is tried first, and then, if at
least two lifted roots are left, each pair of them, with iota lifted; one
Horner over Z[i] on F (``_is_root``) confirms a candidate of either kind.
A confirmed pair is the image pair of its root, so no root is counted
twice.

An sq of degree 1 gives its root directly, and one of degree 2 is split in
closed form: its discriminant is a square (two rational roots), minus a
square (a Gaussian pair) or neither (no root in Q(i)).  Lifting at degree 2
as well measured slower: rational_roots on the 200 characteristic
polynomials of one pencil-corpus pass took 6.47 ms against 3.65 ms (minimum
of 30 in-process runs, 2-core Intel Xeon host).

char_poly() is Berkowitz's division-free algorithm, so an integer matrix
gives an integer characteristic polynomial with no rational arithmetic;
``matrices`` runs it on polynomial matrices for determinants and adjugates,
and ``spectral`` on the integer value of an affinor at a point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt, lcm
from operator import mul

from .poly import MultiPoly
from .scalars import GaussianRational

# dense univariate polynomials: list of int coefficients, ascending degree


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def univ_deriv(c: list[int]) -> list[int]:
    return _trim([c[i] * i for i in range(1, len(c))])


def _primitive(c: list[int]) -> list[int]:
    """c over its content, with a positive leading coefficient ([] for 0)."""
    if not c:
        return c
    g = int_gcd(*c)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A remainder of lc(b)^k a on division by b: a - q b over Z."""
    a = list(a)
    lc, m = b[-1], len(b) - 1
    while len(a) > m:
        f, d = a[-1], len(a) - 1 - m
        a = [lc * x for x in a]
        for i, y in enumerate(b):
            a[d + i] -= f * y
        _trim(a)
    return a


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z, positive leading coefficient: the primitive
    pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


def _divide(a: list[int], b: list[int]) -> list[int]:
    """a / b for a b that divides a in Z[x] (b primitive dividing a over Q
    is enough, by Gauss's lemma); an inexact step raises ArithmeticError."""
    a = list(a)
    lc, m = b[-1], len(b) - 1
    q = [0] * (len(a) - m)
    for d in range(len(q) - 1, -1, -1):
        f, r = divmod(a[d + m], lc)
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[d] = f
        if f:
            for i, y in enumerate(b):
                a[d + i] -= f * y
    if any(a[:m]):
        raise ArithmeticError("inexact polynomial division")
    return q


def _integer_scaled(c: list) -> list[int]:
    """The coefficients (ints or Fractions) times the lcm of their
    denominators."""
    mult = lcm(*(x.denominator for x in c))
    return [x.numerator * (mult // x.denominator) for x in c]


def _eval_mod(c: list[int], x: int, m: int) -> int:
    acc = 0
    for k in reversed(c):
        acc = (acc * x + k) % m
    return acc


def _lift(c: list[int], deriv: list[int], r: int, p: int, m: int) -> int:
    """The root of c mod m = p^(2^k) above a simple root r of c mod p, by
    Newton's iteration, which doubles the exponent at each step."""
    q = p
    while q < m:
        q *= q
        r = (r - _eval_mod(c, r, q) * pow(_eval_mod(deriv, r, q), -1, q)) % q
    return r


def _symmetric(r: int, m: int) -> int:
    """The residue of r mod m in (-m/2, m/2]."""
    return r if 2 * r < m else r - m


def _is_root(c: list[int], re: int, im: int) -> bool:
    """Whether re + im i is a root of c: Horner over Z[i]."""
    x = y = 0
    for k in reversed(c):
        x, y = x * re - y * im + k, x * im + y * re
    return not (x or y)


def _roots_in_q_i(f: list[int]) -> list[tuple[int, int, int]]:
    """The roots in Q(i) of a square-free integer polynomial f of degree
    >= 1 with f[0] != 0, one of each conjugate pair: (re, im, a) with
    im >= 0 for the root (re + im i) / a.  Degree 1 and 2 in closed form,
    higher degrees by lifting and pairing (module docstring)."""
    a, d = f[-1], len(f) - 1
    if d == 1:
        return [(-f[0], 0, a)]
    if d == 2:
        disc = f[1] * f[1] - 4 * a * f[0]
        s = isqrt(abs(disc))
        if s * s != abs(disc):
            return []
        return [(-f[1], s, 2 * a)] if disc < 0 else [(-f[1] + s, 0, 2 * a), (-f[1] - s, 0, 2 * a)]
    monic = [c * a ** (d - 1 - k) for k, c in enumerate(f[:-1])] + [1]
    deriv = univ_deriv(monic)
    p = 5
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            simple = [r for r in range(p) if not _eval_mod(monic, r, p)]
            if all(_eval_mod(deriv, r, p) for r in simple):
                break
        p += 4
    m = p
    while m <= 2 * (1 + max(map(abs, monic[:-1]))):
        m *= m
    roots, rest = [], []
    for r in simple:
        r = _lift(monic, deriv, r, p, m)
        y = _symmetric(r, m)
        if _is_root(monic, y, 0):
            roots.append((y, 0, a))
        else:
            rest.append(r)
    if len(rest) >= 2:
        iota = _lift([1, 0, 1], [0, 2], next(x for x in range(p) if x * x % p == p - 1), p, m)
        half, half_iota = pow(2, -1, m), pow(2 * iota, -1, m)
        while rest:
            r = rest.pop()
            for s in rest:
                re = _symmetric((r + s) * half % m, m)
                im = _symmetric((r - s) * half_iota % m, m)
                if _is_root(monic, re, im):
                    rest.remove(s)
                    roots.append((re, abs(im), a))
                    break
    return roots


class RootReport:
    """Roots with multiplicities plus the unresolved residual factor."""

    def __init__(self, rational: dict, gaussian: dict, residual: list[Fraction]):
        self.rational = rational      # Fraction -> multiplicity
        self.gaussian = gaussian      # GaussianRational (im != 0) -> multiplicity
        self.residual = residual      # monic dense coefficients, [1] if fully split

    @property
    def fully_split(self) -> bool:
        return len(self.residual) <= 1


def rational_roots(p: MultiPoly | list) -> RootReport:
    """Every root in Q(i) with its multiplicity, and the monic factor with
    no root in Q(i) that is left, of a univariate MultiPoly or of dense
    ascending coefficients (ints or Fractions)."""
    c = _trim(p.univariate_coeffs() if isinstance(p, MultiPoly) else list(p))
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
    c = _primitive(_integer_scaled(c))
    if len(c) == 1:
        return RootReport(rational, gaussian, [Fraction(1)])
    # the distinct roots are those of the square-free part sq
    g = _gcd(c, univ_deriv(c))
    sq = _divide(c, g) if len(g) > 1 else c
    for re, im, a in _roots_in_q_i(sq):
        if im:
            c, mult = _divide_out(c, _primitive([re * re + im * im, -2 * a * re, a * a]))
            x = Fraction(re, a)
            gaussian[GaussianRational(x, Fraction(im, a))] = mult
            gaussian[GaussianRational(x, Fraction(-im, a))] = mult
        else:
            r = Fraction(re, a)
            c, rational[r] = _divide_out(c, [-r.numerator, r.denominator])
    return RootReport(rational, gaussian, [Fraction(x, c[-1]) for x in c])


def _divide_out(c: list[int], factor: list[int]) -> tuple[list[int], int]:
    """(c / factor^m, m) for the largest m with factor^m dividing c in
    Z[x]."""
    m = 0
    while True:
        try:
            c = _divide(c, factor)
        except ArithmeticError:
            return c, m
        m += 1


def char_poly(a: list[list]) -> list:
    """Characteristic polynomial det(x*I - A), dense ascending coefficients,
    by Berkowitz's division-free algorithm: exact over any commutative
    ring, so an int matrix gives int coefficients.

    With A_k the leading k x k block, [[A_(k-1), c], [r, a]], the
    coefficients of det(x*I - A_k), highest first, are a lower-triangular
    Toeplitz matrix with first column (1, -a, -r c, -r A_(k-1) c, ...,
    -r A_(k-1)^(k-2) c) times those of det(x*I - A_(k-1)).  Its zero
    products are skipped, so over a polynomial ring a zero coefficient may
    be the int 0 (``matrices`` normalises them)."""
    p = [1]  # det(x*I - A_0), highest coefficient first
    for k in range(len(a)):
        lead = [r[:k] for r in a[:k]]
        row = a[k][:k]
        v = [r[k] for r in a[:k]]
        t = [1, -a[k][k]]
        for _ in range(k):
            t.append(-sum(map(mul, row, v)))
            v = [sum(map(mul, r, v)) for r in lead]
        # the Toeplitz product, truncated to its k + 2 rows; zero products skipped
        out = [0] * (k + 2)
        for j, y in enumerate(p):
            if y:
                for i, x in enumerate(t[:k + 2 - j], j):
                    if x:
                        out[i] += x * y
        p = out
    return p[::-1]
