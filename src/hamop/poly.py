"""Sparse multivariate polynomials and rational functions over the rationals.

A ``MultiPoly`` in ``nvars`` variables u1..uN has one representation: a dict
from packed exponents to nonzero int numerators, over one positive common
denominator.

* Packed exponents.  An exponent vector is one int made of N + 1 fields of
  ``FIELD_BITS`` bits: the total degree in the top field, then the exponents
  of u1, ..., uN, u1 highest.  So int order on packed exponents is the
  canonical graded lexicographic term order (total degree first, then the
  exponent tuple, u1 heaviest), a monomial product is one int addition, and
  u^a divides u^b iff b - a has none of the fields' top (guard) bits set
  (Monagan & Pearce, CASC 2007; JSC 2011).
* Width check.  A field holds at most ``MAX_DEGREE``, so its guard bit stays
  clear.  Every exponent is at most the total degree, so bounding the total
  degree bounds every field: it is checked when exponents are packed and
  wherever degrees are added (``*``, ``**``); ``extended`` only moves
  exponents to distinct fields.  An overflow raises OverflowError instead of
  wrapping into the next field.
* Canonical form.  The gcd of the numerators and the denominator is 1, and
  the zero polynomial has denominator 1.  So equal polynomials have equal
  dicts and denominators, which is what ``__eq__`` and ``__hash__`` compare.

Coefficients leave the module as Fractions: ``leading``, ``sorted_terms``,
``constant_value``, ``univariate_coeffs`` and ``terms``, a read-only
exponent tuple -> Fraction view built on first read, which no arithmetic goes
through.  Serialization emits terms in descending canonical order with
coefficients written "p/q".

``MultiPoly.eval`` is the one polynomial evaluator over Q
(``RationalFunction.eval`` reads it).  ``MultiPoly.int_eval`` is its int
form at a point of ints: the numerator sum and the common denominator,
with no Fraction (``PolyMatrix.int_at`` reads it, and so do the
coefficient arrays of ``metrics.AffineArrays`` where their entries involve
formal parameters).  Both unpack a polynomial's exponents once, on its
first evaluation.
``MultiPoly.affine_parts`` splits a polynomial of degree <= 1 in the
u-block into integer-coefficient parts over its common denominator
(``metrics.coefficient_arrays``), and ``MultiPoly.from_affine_parts``
builds the polynomial back from such parts (``LinearMetric.mat`` of a
metric loaded from its arrays).

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
from functools import cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1


@cache
def _layout(nvars: int) -> tuple[tuple[int, ...], int, int]:
    """The bit shifts of the variables' fields (u1 first), the shift of the
    total-degree field and the mask of every field's guard bit."""
    shifts = tuple(FIELD_BITS * (nvars - 1 - i) for i in range(nvars))
    guard = sum(1 << (FIELD_BITS * j + FIELD_BITS - 1) for j in range(nvars + 1))
    return shifts, FIELD_BITS * nvars, guard


def _check_degree(total: int) -> None:
    if total > MAX_DEGREE:
        raise OverflowError(
            f"total degree {total} exceeds the packed exponent width (at most {MAX_DEGREE})"
        )


def _pack(nvars: int, exps) -> int:
    if len(exps) != nvars:
        raise ValueError(f"exponent {tuple(exps)} has wrong length for nvars={nvars}")
    key = total = 0
    for x in exps:
        if x < 0:
            raise ValueError(f"negative exponent in {tuple(exps)}")
        key = key << FIELD_BITS | x
        total += x
    _check_degree(total)
    return total << FIELD_BITS * nvars | key


def _unpack(nvars: int, e: int) -> tuple:
    return tuple((e >> s) & FIELD_MASK for s in _layout(nvars)[0])


def _canon(nvars: int, coeffs: dict, den: int) -> "MultiPoly":
    """The polynomial with numerators ``coeffs`` (none zero) over ``den`` > 0,
    in canonical form."""
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            den //= g
            coeffs = {e: c // g for e, c in coeffs.items()}
    return MultiPoly._raw(nvars, coeffs, den)


def _from_rationals(nvars: int, values: dict, den: int = 1) -> "MultiPoly":
    """The polynomial with int or Fraction coefficients ``values`` (packed
    exponent -> coefficient), divided by ``den``."""
    values = {e: c for e, c in values.items() if c}
    common = lcm(*(c.denominator for c in values.values()))
    return _canon(
        nvars,
        {e: c.numerator * (common // c.denominator) for e, c in values.items()},
        common * den,
    )


class MultiPoly:
    """Immutable sparse polynomial in nvars variables over Q."""

    __slots__ = ("nvars", "_coeffs", "_den", "_hash", "_view", "_monos")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        """The polynomial with coefficients ``terms`` (exponent tuple ->
        rational)."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        coeffs, den = {}, 1
        if terms:
            p = _from_rationals(
                nvars, {_pack(nvars, e): Fraction(c) for e, c in terms.items()}
            )
            coeffs, den = p._coeffs, p._den
        self.nvars = nvars
        self._coeffs = coeffs
        self._den = den
        self._hash = self._view = self._monos = None

    @staticmethod
    def _raw(nvars: int, coeffs: dict, den: int = 1) -> "MultiPoly":
        p = object.__new__(MultiPoly)
        p.nvars = nvars
        p._coeffs = coeffs
        p._den = den
        p._hash = p._view = p._monos = None
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def const(nvars: int, value) -> "MultiPoly":
        value = Fraction(value)
        if value == 0:
            return MultiPoly(nvars)
        return MultiPoly._raw(nvars, {0: value.numerator}, value.denominator)

    @staticmethod
    def variable(nvars: int, k: int) -> "MultiPoly":
        """The variable u_k (1-based)."""
        if not 1 <= k <= nvars:
            raise ValueError(f"variable index {k} out of range 1..{nvars}")
        return MultiPoly._raw(nvars, {1 << _layout(nvars)[0][k - 1] | 1 << FIELD_BITS * nvars: 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        c = self._coeffs
        return not c or (len(c) == 1 and 0 in c)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (the constant term in general)."""
        return Fraction(self._coeffs.get(0, 0), self._den)

    def __len__(self):
        return len(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only view exponent tuple -> Fraction coefficient."""
        if self._view is None:
            nvars, den = self.nvars, self._den
            self._view = MappingProxyType(
                {_unpack(nvars, e): Fraction(c, den) for e, c in self._coeffs.items()}
            )
        return self._view

    def degree_in_block(self, nblock: int) -> int:
        """Max total degree restricted to the first nblock variables."""
        if not self._coeffs:
            return 0
        shifts = _layout(self.nvars)[0][:nblock]
        return max(sum((e >> s) & FIELD_MASK for s in shifts) for e in self._coeffs)

    def affine_parts(self, nblock: int):
        """(den, parts) with self = (parts[0] + u1 parts[1] + ... +
        u_nblock parts[nblock]) / den, ``den`` the common denominator and
        each part free of u1..u_nblock: an int where it is a constant, else
        an integer-coefficient polynomial.  None when the degree in
        u1..u_nblock exceeds 1."""
        nvars = self.nvars
        ts = FIELD_BITS * nvars
        # the u-block's fields are the contiguous bits just below the total degree
        width = min(nblock, nvars)
        block = ((1 << FIELD_BITS * width) - 1) << FIELD_BITS * (nvars - width)
        parts = {}
        for e, c in self._coeffs.items():
            k = 0
            if u := e & block:
                shift = u.bit_length() - 1
                # one bit at the foot of a field: exactly one u_k, to the power 1
                if u != 1 << shift or shift % FIELD_BITS:
                    return None
                k, e = nvars - shift // FIELD_BITS, e - u - (1 << ts)
            parts.setdefault(k, {})[e] = c
        out = [0] * (nblock + 1)
        for k, p in parts.items():
            out[k] = p[0] if p.keys() == {0} else MultiPoly._raw(nvars, p)
        return self._den, out

    @staticmethod
    def from_affine_parts(nvars: int, den: int, parts) -> "MultiPoly":
        """(parts[0] + u1 parts[1] + ... + uk parts[k]) / den, the inverse of
        ``affine_parts``: each part is an int or an integer-coefficient
        polynomial free of u1..uk, and the u_s parts only shift exponents."""
        shifts = _layout(nvars)[0]
        ts = FIELD_BITS * nvars
        coeffs = {}
        for k, x in enumerate(parts):
            if not x:
                continue
            mono = k and (1 << shifts[k - 1] | 1 << ts)
            if isinstance(x, MultiPoly) and x._den == 1:
                for e, c in x._coeffs.items():
                    coeffs[e + mono] = c
            elif isinstance(x, int):
                coeffs[mono] = x
            else:
                raise ValueError("parts must have integer coefficients")
        return _canon(nvars, coeffs, den)

    def leading(self) -> tuple[tuple, Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._coeffs)
        return _unpack(self.nvars, e), Fraction(self._coeffs[e], self._den)

    def used_vars(self) -> list[int]:
        """1-based indices of variables that actually occur."""
        acc = 0
        for e in self._coeffs:
            acc |= e
        return [i + 1 for i, s in enumerate(_layout(self.nvars)[0]) if (acc >> s) & FIELD_MASK]

    def univariate_coeffs(self) -> list[Fraction]:
        """Dense coefficients, by ascending degree, of a polynomial using at
        most one variable ([] for the zero polynomial)."""
        used = self.used_vars()
        if len(used) > 1:
            raise ValueError(f"polynomial is not univariate (uses u{used})")
        if not self._coeffs:
            return []
        ts = FIELD_BITS * self.nvars
        out = [Fraction(0)] * ((max(self._coeffs) >> ts) + 1)
        for e, c in self._coeffs.items():
            out[e >> ts] = Fraction(c, self._den)
        return out

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
        if not self._coeffs:
            return o
        if not o._coeffs:
            return self
        den, oden = self._den, o._den
        if den == oden:
            out, terms = dict(self._coeffs), o._coeffs
        else:
            g = gcd(den, oden)
            scale, oscale = oden // g, den // g
            out = {e: c * scale for e, c in self._coeffs.items()}
            terms = {e: c * oscale for e, c in o._coeffs.items()}
            den *= scale
        for e, c in terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s += c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _canon(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self._coeffs.items()}, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly(self.nvars)
            f = other.numerator
            return _canon(
                self.nvars,
                {e: c * f for e, c in self._coeffs.items()},
                self._den * other.denominator,
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._coeffs, o._coeffs
        if not a or not b:
            return MultiPoly(self.nvars)
        ts = FIELD_BITS * self.nvars
        _check_degree((max(a) >> ts) + (max(b) >> ts))
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        return _canon(self.nvars, {e: c for e, c in out.items() if c}, self._den * o._den)

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
        if self._coeffs:
            _check_degree((max(self._coeffs) >> FIELD_BITS * self.nvars) * k)
        out = MultiPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus ------------------------------------------------------

    def partial(self, k: int) -> "MultiPoly":
        """Formal partial derivative with respect to u_k (1-based)."""
        if not 1 <= k <= self.nvars:
            raise ValueError(f"derivative index {k} out of range 1..{self.nvars}")
        s = _layout(self.nvars)[0][k - 1]
        step = 1 << s | 1 << FIELD_BITS * self.nvars
        out = {}
        for e, c in self._coeffs.items():
            x = (e >> s) & FIELD_MASK
            if x:
                out[e - step] = c * x
        return _canon(self.nvars, out, self._den)

    def _monomials(self, point: Sequence) -> list:
        """(numerator, [(variable index, exponent), ...]) per term, unpacked
        on the first evaluation; ``point`` is checked to be a full point."""
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        monos = self._monos
        if monos is None:
            shifts = _layout(self.nvars)[0]
            monos = self._monos = [
                (c, [(i, x) for i, s in enumerate(shifts) if (x := (e >> s) & FIELD_MASK)])
                for e, c in self._coeffs.items()
            ]
        return monos

    def int_eval(self, point: Sequence[int]) -> tuple[int, int]:
        """(N, den) at a point of ints: the value there is N / den, with
        ``den`` the polynomial's common denominator.  Int arithmetic only; at
        a point of Fractions N is a Fraction (``eval``)."""
        total = 0
        for t, mono in self._monomials(point):
            for i, x in mono:
                t *= point[i] ** x
            total += t
        return total, self._den

    def eval(self, point: Sequence):
        """Value at a full point of ints or Fractions, as a Fraction: N / den
        of ``int_eval``."""
        return Fraction(*self.int_eval(point))

    def substitute(self, values: Mapping[int, Fraction]) -> "MultiPoly":
        """Replace the given 1-based variables by rational values."""
        shifts = _layout(self.nvars)[0]
        ts = FIELD_BITS * self.nvars
        subs = [(shifts[k - 1], Fraction(v)) for k, v in values.items()]
        out: dict = {}
        for e, c in self._coeffs.items():
            for s, v in subs:
                x = (e >> s) & FIELD_MASK
                if x:
                    c *= v**x
                    e -= (x << s) + (x << ts)
            out[e] = out.get(e, 0) + c
        return _from_rationals(self.nvars, out, self._den)

    def extended(self, new_nvars: int, slots: int | Sequence[int] = 0) -> "MultiPoly":
        """Re-embed into a ring with new_nvars variables.  ``slots`` gives the
        new 1-based index of each variable, as a sequence, or as an offset
        (u_k becomes u_{k + slots}).  A variable sent outside 1..new_nvars is
        dropped, which is an error if it occurs; the variables that occur
        must go to distinct indices."""
        if isinstance(slots, int):
            slots = range(1 + slots, self.nvars + 1 + slots)
        if len(slots) != self.nvars:
            raise ValueError(f"{len(slots)} slots for {self.nvars} variables")
        old, new = _layout(self.nvars)[0], _layout(new_nvars)[0]
        used = self.used_vars()
        moves = []
        for k, slot in enumerate(slots, 1):
            if 1 <= slot <= new_nvars:
                if k in used:
                    moves.append((old[k - 1], new[slot - 1]))
            elif k in used:
                raise ValueError("cannot shrink ring: variable in use")
        if len({s for _, s in moves}) != len(moves):
            raise ValueError("variables must go to distinct slots")
        ts, new_ts = FIELD_BITS * self.nvars, FIELD_BITS * new_nvars
        out = {}
        for e, c in self._coeffs.items():
            ne = e >> ts << new_ts
            for s, t in moves:
                ne |= ((e >> s) & FIELD_MASK) << t
            out[ne] = c
        return MultiPoly._raw(new_nvars, out, self._den)

    # -- comparisons / output -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self._den == other._den
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self._den, frozenset(self._coeffs.items())))
        return self._hash

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in descending graded-lex order."""
        nvars, den, coeffs = self.nvars, self._den, self._coeffs
        return [
            (_unpack(nvars, e), Fraction(coeffs[e], den))
            for e in sorted(coeffs, reverse=True)
        ]

    def to_str(self, names: list[str] | None = None) -> str:
        """Canonical text form, e.g. "-4/1*u1 + 2/3*u2^2"."""
        if not self._coeffs:
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


def divide_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """Return f/g if g divides f exactly, else None.

    Heap division (Monagan & Pearce) of f's numerators by the primitive part
    of g's.  Where that part divides them, the quotient has integer
    coefficients (Gauss's lemma), so the first leading coefficient or
    leading monomial that does not divide proves that g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return MultiPoly(f.nvars)
    if g.is_constant():
        return f / g.constant_value()
    gc = g._coeffs
    content = gcd(*gc.values())
    eg = max(gc)
    cg = gc[eg] // content
    tail = [(e, c // content) for e, c in gc.items() if e != eg]
    guard = _layout(f.nvars)[2]
    rem = dict(f._coeffs)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        # pop until a live leading term (heap entries may be stale)
        while heap and -heap[0] not in rem:
            heapq.heappop(heap)
        if not heap:
            raise AssertionError("heap drained before remainder")
        ef = -heapq.heappop(heap)
        qe = ef - eg
        if qe & guard:
            return None
        qc, r = divmod(rem.pop(ef), cg)
        if r:
            return None
        quot[qe] = qc
        # rem -= qc * u^qe * (g without its leading term)
        for e2, c2 in tail:
            e = qe + e2
            old = rem.get(e)
            if old is None:
                rem[e] = -qc * c2
                heapq.heappush(heap, -e)
            else:
                s = old - qc * c2
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    # f / g = (quot * g's primitive part / f._den) / (content * primitive part / g._den)
    dg = g._den
    return _canon(f.nvars, {e: c * dg for e, c in quot.items()}, f._den * content)


def _monomial_gcd(nvars: int, keys) -> int:
    """Componentwise minimum of the packed exponents ``keys``, packed."""
    if 0 in keys:
        return 0
    shifts, ts, _ = _layout(nvars)
    out = total = 0
    for s in shifts:
        m = min((e >> s) & FIELD_MASK for e in keys)
        out |= m << s
        total += m
    return out | total << ts


def _shift_down(p: MultiPoly, mono: int) -> MultiPoly:
    if not mono:
        return p
    return MultiPoly._raw(p.nvars, {e - mono: c for e, c in p._coeffs.items()}, p._den)


def content_int(p: MultiPoly) -> Fraction:
    """Rational c such that p/c has coprime integer coefficients and positive
    leading coefficient (graded-lex); 0 for the zero polynomial."""
    if p.is_zero():
        return Fraction(0)
    c = Fraction(gcd(*p._coeffs.values()), p._den)
    return -c if p._coeffs[max(p._coeffs)] < 0 else c


def primitive_part(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    coeffs = p._coeffs
    g = gcd(*coeffs.values())
    if coeffs[max(coeffs)] < 0:
        g = -g
    if g == 1 and p._den == 1:
        return p
    return MultiPoly._raw(p.nvars, {e: c // g for e, c in coeffs.items()})


def _univ_coeffs(p: MultiPoly, var0: int) -> dict[int, MultiPoly]:
    """View p as univariate in variable index var0 (0-based); coefficients are
    polynomials in the remaining slots (exponent at var0 zeroed)."""
    s = _layout(p.nvars)[0][var0]
    ts = FIELD_BITS * p.nvars
    out: dict[int, dict] = {}
    for e, c in p._coeffs.items():
        d = (e >> s) & FIELD_MASK
        out.setdefault(d, {})[e - (d << s) - (d << ts)] = c
    return {d: _canon(p.nvars, t, p._den) for d, t in out.items()}


def _from_univ(coeffs: dict[int, MultiPoly], var0: int, nvars: int) -> MultiPoly:
    s = _layout(nvars)[0][var0]
    ts = FIELD_BITS * nvars
    den = lcm(*(q._den for q in coeffs.values()))
    terms = {}
    for d, q in coeffs.items():
        _check_degree(d + (max(q._coeffs) >> ts))
        scale = den // q._den
        step = (d << s) + (d << ts)
        for e, c in q._coeffs.items():
            terms[e + step] = c * scale
    return _canon(nvars, terms, den)


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
    ma, mb = _monomial_gcd(nvars, a._coeffs), _monomial_gcd(nvars, b._coeffs)
    mono = _monomial_gcd(nvars, (ma, mb))
    a = _shift_down(a, ma)
    b = _shift_down(b, mb)
    g = _gcd_primitive(primitive_part(a), primitive_part(b))
    if mono:
        g = g * MultiPoly._raw(nvars, {mono: 1})
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
    mono = _monomial_gcd(
        nvars, (_monomial_gcd(nvars, num._coeffs), _monomial_gcd(nvars, den._coeffs))
    )
    if mono:
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
