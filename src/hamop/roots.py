"""Univariate root extraction over Q and Q(i), and characteristic polynomials.

The entry point rational_roots() takes a univariate MultiPoly or dense
coefficients (ints or Fractions) and works over Z throughout: the
coefficients are scaled to an integer polynomial c once.  Its gcds are
primitive pseudo-remainder sequences, content removed at each step, and
its divisions are exact integer divisions by primitive factors (Gauss's
lemma).  The distinct rational roots of c are those of its square-free
part sq = c / gcd(c, c'), and each root p/q gets its multiplicity by
dividing c by q x - p while the division is exact.  The cofactor C that
is left has no rational root, so a repeated factor of C has degree >= 2.
Then C is square-free iff its degree is that of sq once sq's roots are
divided out, as it always is for a square-free c or a C of degree <= 3,
and it is its own factor; only otherwise does Yun's square-free
decomposition run (``squarefree_decomposition``), on C.

A square-free sq of degree d >= 3 gives up its rational roots by
p-adic lifting (Loos 1983, "Computing rational zeros of integral
polynomials by p-adic expansion", SIAM J. Comput. 12), with no integer
factoring.  With f = sq and a = f[-1], the monic F(y) = a^(d-1) f(y/a) has
integer coefficients, and each rational root of f is y/a for an integer
root y of F, with |y| <= B = 1 + max |F_k| (Cauchy's bound).  The roots of
F mod p are found by evaluation at the odd primes p = 3, 5, 7, ... in turn,
until every one of them is simple (F'(r) != 0 mod p).  Then each integer
root y of F reduces to a simple root r mod p, and by Hensel's lemma r has
one lift mod p^(2^k) for every k, which Newton's iteration finds: that lift
is y mod p^(2^k).  So once the modulus m exceeds 2B, the symmetric residue
of some lifted root is y, and no root is missed.  A root that is repeated
mod p is a common root of F and F' mod p, so p divides the discriminant of
F, which is nonzero since f is square-free: only the finitely many primes
dividing it are passed over, and the search ends.  Each symmetric residue
y is confirmed as a root of f with integer Horner,
sum f_k y^k a^(d-k) = 0.  An sq of degree 2 is split by its integer
discriminant and ``math.isqrt``.

A square-free factor of C that is one quadratic whose discriminant is minus
a square gives a Gaussian conjugate pair.  Every other factor is returned
in the residual.  A Gaussian pair lands there too when its square-free
factor holds another factor with no rational root, for example a second
Gaussian pair of the same multiplicity.

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


def univ_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


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


def squarefree_decomposition(c: list) -> list[tuple[list[int], int]]:
    """Yun's algorithm over Z on dense ascending coefficients (ints or
    Fractions, scaled to ints first): [(factor_i, multiplicity_i)] with
    factor_i primitive, square-free and with a positive leading coefficient,
    whose product of factor_i^mult_i is c up to a constant.

    A gcd normalised by any constant leaves Yun's invariants intact: w and
    z are divided by the same factor at each step, so z - w' stays exact."""
    c = _trim(list(c))
    if len(c) <= 1:
        return []
    c = _primitive(_integer_scaled(c))
    d = univ_deriv(c)
    g = _gcd(c, d)
    if len(g) == 1:
        return [(c, 1)]
    w = _divide(c, g)
    z = _sub(_divide(d, g), univ_deriv(w))
    out = []
    i = 1
    while len(w) > 1:
        f = _gcd(w, z)
        if len(f) > 1:
            out.append((f, i))
        w = _divide(w, f)
        z = _sub(_divide(z, f), univ_deriv(w))
        i += 1
    return out


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


def _lifted_roots(f: list[int]):
    """The rational roots of a square-free integer polynomial f with
    f[0] != 0, as Fractions: the roots of F(y) = a^(d-1) f(y/a) mod the
    first odd prime p where each is simple, lifted by Newton's iteration
    past twice Cauchy's bound on the integer roots of F (module docstring)."""
    a, d = f[-1], len(f) - 1
    monic = [c * a ** (d - 1 - k) for k, c in enumerate(f[:-1])] + [1]
    deriv = univ_deriv(monic)
    bound = 1 + max(map(abs, monic[:-1]))
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            roots = [r for r in range(p) if not _eval_mod(monic, r, p)]
            if all(_eval_mod(deriv, r, p) for r in roots):
                break
        p += 2
    for r in roots:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(monic, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        y = r if 2 * r < m else r - m
        if _is_root(f, y, a):
            yield Fraction(y, a)


def _is_root(ints: list[int], p: int, q: int) -> bool:
    """Whether p/q is a root: integer Horner on the homogenised form,
    sum ints[k] p^k q^(d-k) = 0."""
    acc = ints[-1]
    qk = 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc == 0


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
    """All rational roots with multiplicity, Gaussian roots of residual
    quadratics when available, and the remaining factor, of a univariate
    MultiPoly or of dense ascending coefficients (ints or Fractions)."""
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
    # the distinct rational roots are those of the square-free part sq
    g = _gcd(c, univ_deriv(c))
    sq = _divide(c, g) if len(g) > 1 else c
    if len(sq) > 3:
        roots = list(_lifted_roots(sq))
    elif len(sq) == 2:
        roots = [Fraction(-sq[0], sq[1])]
    elif (s := _exact_sqrt(sq[1] * sq[1] - 4 * sq[2] * sq[0])) is not None:
        roots = [Fraction(-sq[1] + s, 2 * sq[2]), Fraction(-sq[1] - s, 2 * sq[2])]
    else:
        roots = []
    for r in roots:
        linear = [-r.numerator, r.denominator]
        sq = _divide(sq, linear)
        c, rational[r] = _divide_out(c, linear)
    # c has no rational root left, so a repeated factor of it has degree >= 2:
    # it is square-free iff its degree is that of sq's rest
    residual = [1]
    for f, mult in [(c, 1)] if len(c) == len(sq) else squarefree_decomposition(c):
        if len(f) == 3 and (s := _exact_sqrt(4 * f[2] * f[0] - f[1] * f[1])) is not None:
            re = Fraction(-f[1], 2 * f[2])
            gaussian[GaussianRational(re, Fraction(s, 2 * f[2]))] = mult
            gaussian[GaussianRational(re, Fraction(-s, 2 * f[2]))] = mult
        else:
            residual = univ_mul(residual, _power(f, mult))
    return RootReport(rational, gaussian, [Fraction(x, residual[-1]) for x in residual])


def _exact_sqrt(d: int) -> int | None:
    """isqrt(d) when d is a square >= 0, else None."""
    if d >= 0 and (s := isqrt(d)) * s == d:
        return s
    return None


def _divide_out(c: list[int], linear: list[int]) -> tuple[list[int], int]:
    """(c / linear^m, m) for the largest m with linear^m dividing c in Z[x]."""
    m = 0
    while True:
        try:
            c = _divide(c, linear)
        except ArithmeticError:
            return c, m
        m += 1


def _power(c: list[int], k: int) -> list[int]:
    out = [1]
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
