"""Sparse multivariate polynomials and rational functions over the rationals.

A polynomial is a map from exponent tuples (length ``nvars``, 0-based slots
for the 1-based variables u1..uN) to nonzero Fraction coefficients.  The
canonical term order is graded lexicographic: compare total degree first,
then the exponent tuple itself, with u1 heaviest.  Serialization emits terms
in descending canonical order with coefficients written "p/q".

``MultiPoly.eval`` is the one polynomial evaluator, in any ``linsolve.Field``
(Q by default; ``PolyMatrix.at_point`` evaluates over F_p through it).

Rational functions are stored as normalized pairs num/den: gcd(num, den) a
unit, den with coprime integer coefficients and positive leading coefficient.
Normalization relies on monomial fast paths, exact trial division, and
``poly_gcd``, which has one algorithm: content/primitive-part recursion with
a primitive pseudo-remainder sequence.  A quotient built with a ``base``
hint (its denominator a power of the base) is only stripped of whole base
factors, so it may stay unreduced when the base is reducible; that never
affects zero tests (a quotient vanishes iff its numerator does).  Equality
is always exact: reduced quotients compare termwise, and unreduced ones by
cross-multiplication.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd as int_gcd
from typing import Mapping, Sequence

from .linsolve import Q, Field

def _grlex_key(expt: tuple) -> tuple:
    return (sum(expt), expt)


class MultiPoly:
    """Immutable sparse polynomial in nvars variables over Fraction."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[tuple, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong length for nvars={nvars}")
                c = Fraction(c)
                if c != 0:
                    clean[e] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def const(nvars: int, value) -> "MultiPoly":
        value = Fraction(value)
        if value == 0:
            return MultiPoly(nvars)
        return MultiPoly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, k: int) -> "MultiPoly":
        """The variable u_k (1-based)."""
        if not 1 <= k <= nvars:
            raise ValueError(f"variable index {k} out of range 1..{nvars}")
        e = [0] * nvars
        e[k - 1] = 1
        return MultiPoly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, coeff, exps: tuple) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(exps): Fraction(coeff)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (the constant term in general)."""
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def degree_in_block(self, nblock: int) -> int:
        """Max total degree restricted to the first nblock variables."""
        if not self.terms:
            return 0
        return max(sum(e[:nblock]) for e in self.terms)

    def leading(self) -> tuple[tuple, Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def used_vars(self) -> list[int]:
        """1-based indices of variables that actually occur."""
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i + 1)
        return sorted(used)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms:
            return o
        if not o.terms:
            return self
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                return MultiPoly(self.nvars)
            return MultiPoly._raw(self.nvars, {e: c * f for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return MultiPoly(self.nvars)
        a, b = self.terms, o.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e)
                if s is None:
                    out[e] = ca * cb
                else:
                    out[e] = s + ca * cb
        return MultiPoly._raw(self.nvars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (1 / f)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        out = MultiPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    @staticmethod
    def _raw(nvars: int, terms: dict) -> "MultiPoly":
        p = object.__new__(MultiPoly)
        p.nvars = nvars
        p.terms = terms
        p._hash = None
        return p

    # -- calculus ------------------------------------------------------

    def partial(self, k: int) -> "MultiPoly":
        """Formal partial derivative with respect to u_k (1-based)."""
        if not 1 <= k <= self.nvars:
            raise ValueError(f"derivative index {k} out of range 1..{self.nvars}")
        i = k - 1
        out: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return MultiPoly._raw(self.nvars, {e: c for e, c in out.items() if c})

    def eval(self, point: Sequence, F: Field = Q):
        """Value at a full point (one element of ``F`` per variable, ints
        for Q too), as an element of ``F``."""
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        red = F.red
        total = F.of(0)
        for e, c in self.terms.items():
            t = F.of(c)
            for x, v in zip(e, point):
                if x:
                    t = red(t * v**x)
            total += t
        return red(total)

    def substitute(self, values: Mapping[int, Fraction]) -> "MultiPoly":
        """Replace the given 1-based variables by rational values."""
        out: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            t = c
            ne = list(e)
            for k, v in values.items():
                x = e[k - 1]
                if x:
                    t *= Fraction(v) ** x
                ne[k - 1] = 0
            if t:
                key = tuple(ne)
                s = out.get(key, Fraction(0)) + t
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return MultiPoly._raw(self.nvars, out)

    def extended(self, new_nvars: int, offset: int = 0) -> "MultiPoly":
        """Re-embed into a ring with new_nvars variables, shifting by offset."""
        if offset < 0 or new_nvars < self.nvars + offset:
            # allow shrinking only when the dropped slots are unused
            for e in self.terms:
                head = e[: max(0, -offset)]
                tail = e[new_nvars - offset :] if new_nvars - offset < len(e) else ()
                if any(head) or any(tail):
                    raise ValueError("cannot shrink ring: variable in use")
        out = {}
        for e, c in self.terms.items():
            ne = [0] * new_nvars
            for i, x in enumerate(e):
                if x:
                    ne[i + offset] = x
            out[tuple(ne)] = c
        return MultiPoly._raw(new_nvars, out)

    # -- comparisons / output -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def to_str(self, names: list[str] | None = None) -> str:
        """Canonical text form, e.g. "-4/1*u1 + 2/3*u2^2"."""
        if not self.terms:
            return "0/1"
        if names is None:
            names = [f"u{i+1}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{c.numerator}/{c.denominator}"]
            for i, x in enumerate(e):
                if x == 1:
                    factors.append(names[i])
                elif x > 1:
                    factors.append(f"{names[i]}^{x}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_str()!r})"


# ---------------------------------------------------------------------------
# exact division and gcd
# ---------------------------------------------------------------------------


def _heap_key(e: tuple) -> tuple:
    # min-heap ordering that pops the graded-lex largest exponent first
    return (-sum(e), tuple(-x for x in e))


def divide_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """Return f/g if g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return MultiPoly(f.nvars)
    if g.is_constant():
        return f / g.constant_value()
    eg, cg = g.leading()
    rem = dict(f.terms)
    heap = [(_heap_key(e), e) for e in rem]
    heapq.heapify(heap)
    qterms: dict[tuple, Fraction] = {}
    while rem:
        # pop until a live leading term (heap entries may be stale)
        while heap and heap[0][1] not in rem:
            heapq.heappop(heap)
        if not heap:
            raise AssertionError("heap drained before remainder")
        ef = heapq.heappop(heap)[1]
        cf = rem.pop(ef)
        qe = tuple(a - b for a, b in zip(ef, eg))
        if any(x < 0 for x in qe):
            return None
        qc = cf / cg
        qterms[qe] = qc
        # rem -= (qc * u^qe) * g  (the leading term cancels by construction)
        for e2, c2 in g.terms.items():
            if e2 == eg:
                continue
            e = tuple(a + b for a, b in zip(qe, e2))
            old = rem.get(e)
            if old is None:
                rem[e] = -qc * c2
                heapq.heappush(heap, (_heap_key(e), e))
            else:
                s = old - qc * c2
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    return MultiPoly._raw(f.nvars, qterms)


def _monomial_gcd(p: MultiPoly) -> tuple:
    """Componentwise min exponent over all terms of p."""
    it = iter(p.terms)
    first = next(it)
    mins = list(first)
    for e in it:
        for i, x in enumerate(e):
            if x < mins[i]:
                mins[i] = x
    return tuple(mins)


def _shift_down(p: MultiPoly, mono: tuple) -> MultiPoly:
    if not any(mono):
        return p
    return MultiPoly._raw(
        p.nvars,
        {tuple(a - b for a, b in zip(e, mono)): c for e, c in p.terms.items()},
    )


def content_int(p: MultiPoly) -> Fraction:
    """Rational c such that p/c has coprime integer coefficients and positive
    leading coefficient (graded-lex); 0 for the zero polynomial."""
    if p.is_zero():
        return Fraction(0)
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = int_gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    c = Fraction(num_gcd, den_lcm)
    if p.leading()[1] < 0:
        c = -c
    return c


def primitive_part(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    return p / content_int(p)


def _univ_coeffs(p: MultiPoly, var0: int) -> dict[int, MultiPoly]:
    """View p as univariate in variable index var0 (0-based); coefficients are
    polynomials in the remaining slots (exponent at var0 zeroed)."""
    out: dict[int, dict] = {}
    for e, c in p.terms.items():
        d = e[var0]
        re = e[:var0] + (0,) + e[var0 + 1 :]
        out.setdefault(d, {})[re] = c
    return {d: MultiPoly._raw(p.nvars, t) for d, t in out.items()}


def _from_univ(coeffs: dict[int, MultiPoly], var0: int, nvars: int) -> MultiPoly:
    terms: dict[tuple, Fraction] = {}
    for d, q in coeffs.items():
        for e, c in q.terms.items():
            ne = e[:var0] + (d,) + e[var0 + 1 :]
            terms[ne] = c
    return MultiPoly._raw(nvars, terms)


def _pseudo_rem(f: dict[int, MultiPoly], g: dict[int, MultiPoly], nvars: int):
    """Pseudo-remainder of univariate-view polynomials (dense-in-degree dicts)."""
    df = max(f)
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        # r = lg*r - lr*x^(dr-dg)*g
        nr: dict[int, MultiPoly] = {}
        for d, q in r.items():
            nr[d] = q * lg
        for d, q in g.items():
            dd = d + dr - dg
            nr[dd] = nr.get(dd, MultiPoly(nvars)) - lr * q
        r = {d: q for d, q in nr.items() if not q.is_zero()}
        if r and max(r) == dr:
            raise AssertionError("pseudo-remainder failed to reduce degree")
    return r


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd over Q[u], normalized primitive with positive leading coefficient.

    One algorithm: the common monomial factor times the gcd of the primitive
    parts, which recurses on contents and runs a primitive PRS
    (pseudo-remainder sequence) in the lowest shared variable.  Only a
    constant or monomial operand, or operands with no shared variable,
    short-circuit to 1.
    """
    if a.nvars != b.nvars:
        raise ValueError("nvars mismatch")
    nvars = a.nvars
    if a.is_zero():
        return primitive_part(b)
    if b.is_zero():
        return primitive_part(a)
    ma, mb = _monomial_gcd(a), _monomial_gcd(b)
    mono = tuple(min(x, y) for x, y in zip(ma, mb))
    a = _shift_down(a, ma)
    b = _shift_down(b, mb)
    g = _gcd_primitive(primitive_part(a), primitive_part(b))
    if any(mono):
        g = g * MultiPoly.monomial(nvars, 1, mono)
    return g


def _gcd_primitive(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    nvars = a.nvars
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(nvars, 1)
    if len(a) == 1 or len(b) == 1:
        # monomial case already had common factor stripped
        return MultiPoly.const(nvars, 1)
    shared = sorted(set(a.used_vars()) & set(b.used_vars()))
    if not shared:
        return MultiPoly.const(nvars, 1)
    v0 = shared[0] - 1
    fa = _univ_coeffs(a, v0)
    fb = _univ_coeffs(b, v0)
    cont_a = _list_gcd(list(fa.values()))
    cont_b = _list_gcd(list(fb.values()))
    pa = {d: divide_exact(q, cont_a) for d, q in fa.items()}
    pb = {d: divide_exact(q, cont_b) for d, q in fb.items()}
    cont = poly_gcd(cont_a, cont_b)
    # primitive PRS on pa, pb
    f, g = (pa, pb) if max(pa) >= max(pb) else (pb, pa)
    while True:
        r = _pseudo_rem(f, g, nvars)
        if not r:
            gg = _from_univ(g, v0, nvars)
            return primitive_part(gg) * cont
        if max(r) == 0:
            return cont
        rp = _list_gcd(list(r.values()))
        r = {d: divide_exact(q, rp) for d, q in r.items()}
        f, g = g, r


def _list_gcd(polys: list[MultiPoly]) -> MultiPoly:
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return primitive_part(g)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient num/den of MultiPoly, normalized on construction.

    A construction site that knows the denominator is a power of some fixed
    polynomial (a metric determinant, say) can pass it as ``base``; reduction
    is then iterated exact division by the base, far cheaper than a generic
    gcd, and the hint survives arithmetic between quotients sharing it."""

    __slots__ = ("num", "den", "reduced", "base")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, base: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.nvars, 1)
        if num.nvars != den.nvars:
            raise ValueError("nvars mismatch")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den, self.reduced, self.base = _rf_normalize(num, den, base)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> MultiPoly:
        if not self.den.is_constant():
            raise ValueError("not a polynomial")
        return self.num / self.den.constant_value()

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(MultiPoly.const(self.nvars, other))
        return None

    def _merge_base(self, o):
        if self.base is not None:
            if o.den.is_constant() or (o.base is not None and o.base == self.base):
                return self.base
        if o.base is not None and self.den.is_constant():
            return o.base
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        base = self._merge_base(o)
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den, base)
        return RationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den, base
        )

    __radd__ = __add__

    def __neg__(self):
        r = object.__new__(RationalFunction)
        r.num, r.den, r.reduced, r.base = -self.num, self.den, self.reduced, self.base
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RationalFunction(MultiPoly(self.nvars))
        return RationalFunction(
            self.num * o.num, self.den * o.den, self._merge_base(o)
        )

    __rmul__ = __mul__

    def partial(self, k: int) -> "RationalFunction":
        """d/du_k via the quotient rule."""
        if self.den.is_constant():
            return RationalFunction(self.num.partial(k), self.den)
        n, d = self.num, self.den
        return RationalFunction(
            n.partial(k) * d - n * d.partial(k), d * d, self.base
        )

    def eval(self, point) -> Fraction:
        dv = self.den.eval(point)
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return self.num.eval(point) / dv

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return rf_equal(self, o)

    def __hash__(self):
        return hash((self.num, self.den))

    def to_str(self, names=None) -> str:
        if self.den == MultiPoly.const(self.nvars, 1):
            return self.num.to_str(names)
        return f"({self.num.to_str(names)}) / ({self.den.to_str(names)})"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"RationalFunction({self.to_str()!r})"


def _rf_normalize(num: MultiPoly, den: MultiPoly, base: MultiPoly | None = None):
    """Reduce and canonically scale a quotient; returns a tuple
    (num, den, reduced, base)."""
    nvars = num.nvars
    one = MultiPoly.const(nvars, 1)
    if num.is_zero():
        return num, one, True, None
    # strip shared monomial factor
    mono = tuple(min(x, y) for x, y in zip(_monomial_gcd(num), _monomial_gcd(den)))
    if any(mono):
        num = _shift_down(num, mono)
        den = _shift_down(den, mono)
    if den.is_constant():
        return num / den.constant_value(), one, True, None
    if base is not None and not base.is_constant():
        # den is (a constant times) a power of the base: peel base factors
        # off the numerator with exact divisions only
        k = 0
        rest = den
        while True:
            q = divide_exact(rest, base)
            if q is None:
                break
            rest = q
            k += 1
        if k > 0 and rest.is_constant():
            peeled = 0
            while k > 0:
                q = divide_exact(num, base)
                if q is None:
                    break
                num = q
                k -= 1
                peeled += 1
            if k == 0:
                c = rest.constant_value()
                return num / c, one, True, None
            if peeled:
                den = base**k * rest.constant_value()
            c = content_int(den)
            # reduced up to possible proper factors of a reducible base
            return num / c, den / c, False, base
        base = None
    # trial divisions catch the common collapses (den | num, num | den)
    q = divide_exact(num, den)
    if q is not None:
        return q, one, True, None
    if not num.is_constant():
        q = divide_exact(den, num)
        if q is not None:
            c = content_int(q)
            return MultiPoly.const(nvars, 1 / c), q / c, True, None
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = divide_exact(num, g)
        den = divide_exact(den, g)
    c = content_int(den)
    return num / c, den / c, True, None


def rf_equal(a: RationalFunction, b: RationalFunction) -> bool:
    """Exact equality: termwise for reduced quotients, by
    cross-multiplication otherwise."""
    if a.reduced and b.reduced:
        return a.num == b.num and a.den == b.den
    return a.num * b.den == b.num * a.den
