"""Exact arithmetic in Q and Q(zeta_n), univariate factorization, and small
multivariate polynomials.

Rationals at the interface are `fractions.Fraction` (always normalized,
positive denominator).  An element of Q(zeta_n) is a polynomial in zeta_n of
degree below phi(n), stored as integer numerators over one shared positive
denominator in lowest terms, so field arithmetic runs on Python ints and
every value has a single stored form.  Its `coeffs` view is the padded
vector of phi(n) Fractions.  Everything is immutable and exact.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FieldMismatch(ValueError):
    """Operands live in different cyclotomic fields."""


class VariableMismatch(ValueError):
    """Multivariate operands declare different variable lists."""


def rational_to_str(r: Fraction) -> str:
    return "%d/%d" % (r.numerator, r.denominator)


def rational_from_str(s: str) -> Fraction:
    num, _, den = s.partition("/")
    d = int(den) if den else 1
    if d == 1:
        return Fraction(int(num))
    if d == 0:
        raise ZeroDivisionError("denominator 0 in %r" % s)
    return Fraction(int(num), d)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, used for x^n - 1 over Phi products
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    Computed from x^n - 1 = prod over d dividing n of Phi_d.
    """
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _int_poly_div(num, list(cyclotomic_coeffs(d)))
    return tuple(num)


_FIELD_CACHE: dict[int, "CycloField"] = {}


def make_field(n: int) -> "CycloField":
    """The cyclotomic field Q(zeta_n); n = 1 gives Q itself."""
    if n < 1:
        raise ValueError("field order must be >= 1")
    field = _FIELD_CACHE.get(n)
    if field is None:
        field = CycloField(n)
        _FIELD_CACHE[n] = field
    return field


class CycloField:
    """Q(zeta_n) presented as Q[x] modulo the n-th cyclotomic polynomial."""

    def __init__(self, order: int):
        self.order = order
        phi = cyclotomic_coeffs(order)
        self.modulus = tuple(Fraction(c) for c in phi)
        self.degree = len(phi) - 1
        # x^degree = sum of b * x^k mod Phi_n over the (k, b) pairs here;
        # Phi_n is monic, so higher powers fold through this in integers
        self._fold = tuple((k, -c) for k, c in enumerate(phi[:-1]) if c)
        self._zero = FieldElement(self, (), 1)
        self._one = FieldElement(self, (1,), 1)

    def __repr__(self):
        return "Q" if self.order == 1 else "Q(zeta_%d)" % self.order

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("CycloField", self.order))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_rational(self, r) -> "FieldElement":
        if r.__class__ is not int:
            r = Fraction(r)
            if r.denominator != 1:
                return FieldElement(self, (r.numerator,), r.denominator)
            r = r.numerator
        return FieldElement(self, (r,), 1) if r else self._zero

    def element(self, coeffs) -> "FieldElement":
        return _from_fractions(
            self, [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        )

    def zeta(self, power: int = 1) -> "FieldElement":
        """zeta_n^power as a field element."""
        power %= self.order
        if self.order == 1:
            return self._one
        num = [0] * (power + 1)
        num[power] = 1
        return FieldElement(self, tuple(_fold(self, num)), 1)

    def root_of_unity_order(self) -> int:
        """Order of the group of roots of unity contained in the field."""
        return self.order if self.order % 2 == 0 else 2 * self.order

    def all_roots_of_unity(self) -> list["FieldElement"]:
        """Every root of unity in the field, with no duplicates."""
        roots = [self.zeta(j) for j in range(self.order)]
        if self.order % 2 == 1:
            roots += [-r for r in roots]
        return roots

    def promote(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field.order == self.order:
                return value
            raise FieldMismatch("element of %r used in %r" % (value.field, self))
        return self.from_rational(value)


def embed(value: FieldElement, target: CycloField) -> FieldElement:
    """Image of `value` under Q(zeta_n) -> Q(zeta_m) for n dividing m."""
    src = value.field
    if src.order == target.order:
        return value
    if target.order % src.order != 0:
        raise FieldMismatch("%r does not embed in %r" % (src, target))
    if not value.num:
        return target.zero()
    step = target.order // src.order
    num = [0] * ((len(value.num) - 1) * step + 1)
    for i, c in enumerate(value.num):
        num[i * step] = c
    return _canon(target, _fold(target, num), value.den)


def _fold(field: CycloField, c: list) -> list:
    """Reduce integer coefficients (constant first) modulo Phi_n in place.

    The result is trimmed of trailing zeros.
    """
    deg = field.degree
    if len(c) > deg:
        fold = field._fold
        for i in range(len(c) - 1, deg - 1, -1):
            t = c[i]
            if t:
                lo = i - deg
                for k, b in fold:
                    c[lo + k] += t * b
        del c[deg:]
    while c and not c[-1]:
        c.pop()
    return c


def _canon(field: CycloField, num: list, den: int) -> "FieldElement":
    """The element num/den from trimmed integer numerators and a positive den."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
    return FieldElement(field, tuple(num), den)


def _from_fractions(field: CycloField, fracs: list) -> "FieldElement":
    """The element sum fracs[i] x^i (ints or Fractions, any length)."""
    den = math.lcm(*(f.denominator for f in fracs))
    num = [f.numerator * (den // f.denominator) for f in fracs]
    return _canon(field, _fold(field, num), den)


class FieldElement:
    """An element num(zeta_n) / den of a CycloField.

    `num` holds integer coefficients, constant term first, with trailing
    zeros trimmed: at most `field.degree` of them, and `()` for zero.  `den`
    is a positive int with gcd(den, *num) == 1.  Every value has exactly this
    one form, so equality is a tuple compare and a rational is O(1) in any
    field.  `coeffs` gives the padded vector of phi(n) Fractions.
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CycloField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The phi(n) rational coefficients, constant term first."""
        d = self.den
        pad = (_ZERO,) * (self.field.degree - len(self.num))
        return tuple(Fraction(x, d) for x in self.num) + pad

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == 1

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    @property
    def rational(self) -> Fraction:
        if len(self.num) > 1:
            raise ValueError("%r is not rational" % (self,))
        return Fraction(self.num[0], self.den) if self.num else _ZERO

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field.order != self.field.order:
                raise FieldMismatch(
                    "mixed fields %r and %r" % (self.field, other.field)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not b:
            return self
        if not a:
            return o
        den = self.den
        if len(a) == 1 == len(b):
            n = a[0] * o.den + b[0] * den
            if not n:
                return self.field._zero
            den *= o.den
            g = math.gcd(n, den)
            return FieldElement(self.field, (n // g,), den // g)
        if den != o.den:
            g = math.gcd(den, o.den)
            ma, mb = o.den // g, den // g
            den *= ma
            a = [x * ma for x in a]
            b = [y * mb for y in b]
        la, lb = len(a), len(b)
        s = [x + y for x, y in zip(a, b)]
        if la > lb:
            s += a[lb:]
        elif lb > la:
            s += b[la:]
        else:
            while s and not s[-1]:
                s.pop()
        return _canon(self.field, s, den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not b:
            return self
        if not a:
            return -o
        den = self.den
        if len(a) == 1 == len(b):
            n = a[0] * o.den - b[0] * den
            if not n:
                return self.field._zero
            den *= o.den
            g = math.gcd(n, den)
            return FieldElement(self.field, (n // g,), den // g)
        if den != o.den:
            g = math.gcd(den, o.den)
            ma, mb = o.den // g, den // g
            den *= ma
            a = [x * ma for x in a]
            b = [y * mb for y in b]
        la, lb = len(a), len(b)
        s = [x - y for x, y in zip(a, b)]
        if la > lb:
            s += a[lb:]
        elif lb > la:
            s += [-y for y in b[la:]]
        else:
            while s and not s[-1]:
                s.pop()
        return _canon(self.field, s, den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.field, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not a or not b:
            return self.field._zero
        if len(a) == 1:
            c = a[0]
            if self.den == 1:
                if c == 1:
                    return o
                if c == -1:
                    return -o
            if len(b) == 1:
                n = c * b[0]
                den = self.den * o.den
                g = math.gcd(n, den)
                return FieldElement(self.field, (n // g,), den // g)
            prod = [c * y for y in b]
        elif len(b) == 1:
            c = b[0]
            if o.den == 1:
                if c == 1:
                    return self
                if c == -1:
                    return -self
            prod = [c * x for x in a]
        else:
            prod = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        if y:
                            prod[j] += x * y
            _fold(self.field, prod)
        return _canon(self.field, prod, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b = o.num
        if not b:
            raise ZeroDivisionError("division by zero field element")
        if len(b) == 1:
            # multiply by o.den / b[0], keeping the denominator positive
            c, d = b[0], o.den
            if c < 0:
                c, d = -c, -d
            return _canon(self.field, [x * d for x in self.num], self.den * c)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        a = self.num
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if len(a) == 1:
            c, d = a[0], self.den
            if c < 0:
                c, d = -c, -d
            return FieldElement(self.field, (d,), c)
        # (num / den)^-1 = den * s / c where s * num = c modulo Phi_n
        s, c = _int_ext_inverse(a, cyclotomic_coeffs(self.field.order))
        d = self.den
        if c < 0:
            c, d = -c, -d
        return _canon(self.field, [x * d for x in s], c)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                self.num == other.num
                and self.den == other.den
                and self.field.order == other.field.order
            )
        if isinstance(other, (int, Fraction)):
            num = self.num
            if not num:
                return other == 0
            return (
                len(num) == 1
                and num[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # the hash of (order, padded Fraction coefficient tuple), computed once
        try:
            return self._hash
        except AttributeError:
            pass
        if self.den == 1:
            key = self.num + (0,) * (self.field.degree - len(self.num))
        else:
            key = self.coeffs
        self._hash = h = hash((self.field.order, key))
        return h

    def __repr__(self):
        if not self.num:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = "z" if i == 1 else "z^%d" % i
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append("-" + mon)
                else:
                    parts.append("%s*%s" % (c, mon))
        return " + ".join(parts).replace("+ -", "- ")

    def to_strings(self) -> list[str]:
        d = self.den
        out = []
        for x in self.num:
            g = math.gcd(x, d)
            out.append("%d/%d" % (x // g, d // g))
        return out + ["0/1"] * (self.field.degree - len(self.num))


# --- dense polynomial helpers over Fraction lists (internal) ------------------


def _poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    a = list(a)
    db = len(b) - 1
    inv = 1 / b[-1]
    q = [_ZERO] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] * inv
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    return q, _poly_trim(a[:db])


def _int_ext_inverse(a: list[int], mod) -> tuple[list[int], int]:
    """(s, c) with s * a = c modulo `mod`, for a nonconstant integer a coprime
    to `mod` (of higher degree) and c a nonzero int; everything in integers.

    Extended Euclid by pseudo-division: each step scales the dividend by the
    divisor's leading coefficient, made positive, instead of dividing by it,
    then strips the common content of the remainder and its cofactor.
    """
    r0, r1 = list(mod), list(a)
    s0, s1 = [], [1]
    while len(r1) > 1:
        if r1[-1] < 0:
            r1 = [-x for x in r1]
            s1 = [-x for x in s1]
        lc = r1[-1]
        n = len(r1) - 1
        # m * r0 = q * r1 + u with m = lc^(deg r0 - deg r1 + 1)
        u = r0
        q = [0] * (len(u) - n)
        m = 1
        for k in range(len(u) - 1 - n, -1, -1):
            t = u[k + n]
            if lc != 1:
                u = [x * lc for x in u]
                q = [x * lc for x in q]
                m *= lc
            if t:
                q[k] += t
                for j in range(n):
                    u[k + j] -= t * r1[j]
            del u[k + n:]
        _poly_trim(u)
        # u = m * r0 - q * r1 is congruent to (m * s0 - q * s1) * a
        s2 = [0] * max(len(s0), len(q) + len(s1) - 1)
        for i, x in enumerate(s0):
            s2[i] = m * x
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1, i):
                    s2[j] -= x * y
        _poly_trim(s2)
        g = math.gcd(*u, *s2)
        if g > 1:
            u = [x // g for x in u]
            s2 = [x // g for x in s2]
        r0, s0, r1, s1 = r1, s1, u, s2
    if not r1:
        raise ArithmeticError("element not invertible modulo the field polynomial")
    return s1, r1[0]


# --- univariate polynomials over a cyclotomic field ----------------------------


class UniPoly:
    """Dense univariate polynomial with FieldElement coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs):
        cs = [field.promote(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field: CycloField, ints) -> "UniPoly":
        return cls(field, [field.from_rational(c) for c in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> FieldElement:
        return self.coeffs[-1]

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.lead.is_one():
            return self
        inv = self.lead.inverse()
        return UniPoly(self.field, [c * inv for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field.order == other.field.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(self.field, out)

    def __sub__(self, other):
        out = list(self.coeffs)
        out += [self.field.zero()] * (len(other.coeffs) - len(out))
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return UniPoly(self.field, out)

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            c = self.field.promote(other)
            return UniPoly(self.field, [a * c for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, [])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv = other.lead.inverse()
        q = [self.field.zero()] * max(len(rem) - db, 0)
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[i + db] * inv
            if not c.is_zero():
                q[i] = c
                for j in range(db + 1):
                    rem[i + j] = rem[i + j] - c * other.coeffs[j]
        return UniPoly(self.field, q), UniPoly(self.field, rem[:db])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "UniPoly":
        return UniPoly(
            self.field, [c * i for i, c in enumerate(self.coeffs) if i > 0]
        )

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, delta: FieldElement) -> "UniPoly":
        """p(x + delta) by Horner composition."""
        out = UniPoly(self.field, [])
        xs = UniPoly(self.field, [delta, self.field.one()])
        for c in reversed(self.coeffs):
            out = out * xs + UniPoly(self.field, [c])
        return out

    def pow_mod(self, n: int, mod: "UniPoly") -> "UniPoly":
        result = UniPoly(self.field, [self.field.one()])
        base = self % mod
        while n:
            if n & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            n >>= 1
        return result

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append("(%r)x^%d" % (c, i))
        return "UniPoly(%s)" % " + ".join(terms)


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm (characteristic zero): [(factor_i, multiplicity_i)]."""
    out = []
    p = p.monic()
    dp = p.derivative()
    a = p.gcd(dp)
    b = (p // a).monic()
    c = (dp // a) - b.derivative()
    i = 1
    while b.degree > 0:
        d = b.gcd(c)
        if d.degree > 0:
            out.append((d, i))
        b = (b // d).monic()
        c = (c // d) - b.derivative()
        i += 1
    return out


# --- factorization over Q (Zassenhaus) -----------------------------------------


def _int_primitive(coeffs: list[Fraction]) -> list[int]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    g = g or 1
    return [c // g for c in ints]


def _zp_normalize(p: int, a: list[int]) -> list[int]:
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_divmod(p: int, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] * inv % p
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] = (a[i + j] - c * b[j]) % p
    return _zp_normalize(p, q), _zp_normalize(p, a[:db])


def _zp_mul(p: int, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return _zp_normalize(p, out)


def _zp_add(p: int, a: list[int], b: list[int]) -> list[int]:
    """a + b, reducing mod p the positions b touches; trailing zeros trimmed."""
    out = [0] * max(len(a), len(b))
    out[: len(a)] = a
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _poly_trim(out)


def _zp_sub(p: int, a: list[int], b: list[int]) -> list[int]:
    """a - b, reducing mod p the positions b touches; trailing zeros trimmed."""
    out = [0] * max(len(a), len(b))
    out[: len(a)] = a
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _poly_trim(out)


def _zp_gcd(p: int, a: list[int], b: list[int]) -> list[int]:
    a, b = _zp_normalize(p, a), _zp_normalize(p, b)
    while b:
        a, b = b, _zp_divmod(p, a, b)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _zp_pow_mod(p: int, base: list[int], n: int, mod: list[int]) -> list[int]:
    result = [1]
    base = _zp_divmod(p, base, mod)[1]
    while n:
        if n & 1:
            result = _zp_divmod(p, _zp_mul(p, result, base), mod)[1]
        base = _zp_divmod(p, _zp_mul(p, base, base), mod)[1]
        n >>= 1
    return result


def _zp_factor_squarefree(p: int, f: list[int], rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus factorization of a squarefree monic polynomial mod p."""
    pieces = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 > 0:
        d += 1
        if 2 * d > len(v) - 1:
            pieces.append((v, len(v) - 1))
            break
        h = _zp_pow_mod(p, h, p, v)
        diff = list(h) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        g = _zp_gcd(p, v, diff)
        if len(g) - 1 > 0:
            pieces.append((g, d))
            v = _zp_divmod(p, v, g)[0]
            h = _zp_divmod(p, h, v)[1]
    out = []
    for poly, d in pieces:
        out.extend(_zp_equal_degree(p, poly, d, rng))
    return out


def _zp_equal_degree(p, f, d, rng) -> list[list[int]]:
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)] + [1]
        g = _zp_gcd(p, f, a)
        if 0 < len(g) - 1 < n:
            break
        b = _zp_pow_mod(p, a, (p ** d - 1) // 2, f)
        if b:
            b = list(b)
            b[0] = (b[0] - 1) % p
        else:
            b = [p - 1]
        g = _zp_gcd(p, f, _zp_normalize(p, b))
        if 0 < len(g) - 1 < n:
            break
    rest = _zp_divmod(p, f, g)[0]
    return _zp_equal_degree(p, g, d, rng) + _zp_equal_degree(p, rest, d, rng)


def _zp_bezout(p, g, h):
    """(s, t) with s*g + t*h = 1 mod p for coprime g, h."""
    r0, r1 = _zp_normalize(p, g), _zp_normalize(p, h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _zp_divmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_normalize(p, _zp_sub(p, s0, _zp_mul(p, q, s1)))
        t0, t1 = t1, _zp_normalize(p, _zp_sub(p, t0, _zp_mul(p, q, t1)))
    inv = pow(r0[0], p - 2, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_step(p, k, f, g, h, s, t):
    """Quadratic Hensel step: factors of f mod p^k become factors mod p^(2k)."""
    q2 = p ** (2 * k)

    def divmod_monic(a, b):
        a = list(a)
        db = len(b) - 1
        qq = [0] * max(len(a) - db, 0)
        for i in range(len(a) - db - 1, -1, -1):
            c = a[i + db] % q2
            if c:
                qq[i] = c
                for j in range(db + 1):
                    a[i + j] = (a[i + j] - c * b[j]) % q2
        return _poly_trim(qq), _poly_trim(a[:db])

    e = _zp_sub(q2, f, _zp_mul(q2, g, h))
    qpoly, rpoly = divmod_monic(_zp_mul(q2, s, e), h)
    g1 = _zp_add(q2, g, _zp_add(q2, _zp_mul(q2, t, e), _zp_mul(q2, qpoly, g)))
    h1 = _zp_add(q2, h, rpoly)
    b = _zp_sub(q2, _zp_add(q2, _zp_mul(q2, s, g1), _zp_mul(q2, t, h1)), [1])
    cpoly, dpoly = divmod_monic(_zp_mul(q2, s, b), h1)
    s1 = _zp_sub(q2, s, dpoly)
    t1 = _zp_sub(q2, _zp_sub(q2, t, _zp_mul(q2, t, b)), _zp_mul(q2, cpoly, g1))
    return g1, h1, s1, t1


def _hensel_lift_tree(p, k, f, factors):
    """Lift monic coprime factors of monic f from mod p to mod p^k (k = 2^j)."""
    if len(factors) == 1:
        return [[c % p ** k for c in f]]
    mid = len(factors) // 2
    g = [1]
    for fac in factors[:mid]:
        g = _zp_mul(p, g, fac)
    h = [1]
    for fac in factors[mid:]:
        h = _zp_mul(p, h, fac)
    s, t = _zp_bezout(p, g, h)
    kk = 1
    G, H, S, T = list(g), list(h), list(s), list(t)
    while kk < k:
        G, H, S, T = _hensel_step(p, kk, f, G, H, S, T)
        kk *= 2
    q = p ** k
    G = [c % q for c in G]
    H = [c % q for c in H]
    return _hensel_lift_tree(p, k, G, factors[:mid]) + _hensel_lift_tree(
        p, k, H, factors[mid:]
    )


def _int_trial_div(a: list[int], b: list[int]):
    if not b or len(b) > len(a):
        return None
    a = list(a)
    qout = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c % b[-1] != 0:
            return None
        c //= b[-1]
        qout[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    if any(a[: len(b) - 1]):
        return None
    return qout


def _next_prime(p: int) -> int:
    p += 2
    while not is_prime(p):
        p += 2
    return p


def _poly_sort_key(p: UniPoly):
    return (p.degree, tuple(c.coeffs for c in p.coeffs))


def _factor_squarefree_q(poly: UniPoly) -> list[UniPoly]:
    """Irreducible factors of a squarefree monic polynomial over Q.

    Single small prime, quadratic Hensel lifting past the Mignotte bound,
    exhaustive subset recombination; adequate for desk-scale degrees.
    """
    field = poly.field
    if poly.degree <= 1:
        return [poly]
    f = _int_primitive([c.rational for c in poly.coeffs])
    lc = f[-1]
    rng = random.Random(0x5EED ^ len(f))
    p = 3
    while True:
        if lc % p != 0:
            fp = _zp_normalize(p, f)
            if len(fp) == len(f):
                dfp = _zp_normalize(p, [c * i % p for i, c in enumerate(fp)][1:])
                if len(_zp_gcd(p, fp, dfp)) == 1:
                    break
        p = _next_prime(p)
    inv_lc = pow(lc % p, p - 2, p)
    fp_monic = [c * inv_lc % p for c in _zp_normalize(p, f)]
    modular = _zp_factor_squarefree(p, fp_monic, rng)
    modular.sort()
    if len(modular) == 1:
        return [poly.monic()]
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (2 ** len(f)) * norm * abs(lc)
    k = 1
    while p ** k <= 2 * bound:
        k *= 2
    q = p ** k
    inv_lc_q = pow(lc % q, -1, q)
    f_monic_q = [c * inv_lc_q % q for c in f]
    lifted = _hensel_lift_tree(p, k, f_monic_q, modular)

    def symmetric(c):
        c %= q
        return c - q if c > q // 2 else c

    remaining = list(range(len(lifted)))
    current = list(f)
    out: list[UniPoly] = []
    r = 1
    while 2 * r <= len(remaining):
        found = True
        while found:
            found = False
            for combo in itertools.combinations(remaining, r):
                cand = [current[-1] % q]
                for idx in combo:
                    cand = _zp_mul(q, cand, lifted[idx])
                cand = [symmetric(c) for c in cand]
                g0 = 0
                for c in cand:
                    g0 = math.gcd(g0, abs(c))
                cand = [c // (g0 or 1) for c in cand]
                quot = _int_trial_div(current, cand)
                if quot is not None:
                    out.append(UniPoly.from_ints(field, cand).monic())
                    current = quot
                    remaining = [i for i in remaining if i not in combo]
                    found = True
                    break
        r += 1
    if len(current) > 1:
        out.append(UniPoly.from_ints(field, current).monic())
    out.sort(key=_poly_sort_key)
    return out


# --- factorization over Q(zeta_n) (Trager) ---------------------------------------


def _roots_of_unity_split(poly: UniPoly):
    """Split `poly` completely when all of its roots are roots of unity.

    Returns monic linear factors, or None when the shortcut does not apply.
    This covers the minimal polynomials showing up in group-like/character
    computations without going through a resultant.
    """
    field = poly.field
    m = field.root_of_unity_order()
    x = UniPoly(field, [field.zero(), field.one()])
    if x.pow_mod(m, poly).coeffs != (field.one(),):
        return None
    found = []
    for root in field.all_roots_of_unity():
        if poly.evaluate(root).is_zero():
            found.append(root)
    if len(found) != poly.degree:
        return None
    found.sort(key=lambda r: r.coeffs)
    return [UniPoly(field, [-r, field.one()]) for r in found]


def _rational_resultant(a: list[Fraction], b: list[Fraction]) -> Fraction:
    a = _poly_trim([Fraction(c) for c in a])
    b = _poly_trim([Fraction(c) for c in b])
    res = Fraction(1)
    while True:
        if not b:
            return _ZERO if len(a) - 1 > 0 else res
        if len(b) == 1:
            return res * b[0] ** (len(a) - 1)
        _, r = _poly_divmod(a, b)
        r = _poly_trim(r)
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1
        res *= Fraction(-1) ** (da * db) * b[-1] ** (da - dr)
        a, b = b, r


def _lagrange_interpolate(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    n = len(xs)
    coeffs = [_ZERO] * n
    for i in range(n):
        num = [_ONE]
        denom = _ONE
        for j in range(n):
            if j == i:
                continue
            num = [
                (num[k - 1] if k > 0 else _ZERO)
                - xs[j] * (num[k] if k < len(num) else _ZERO)
                for k in range(len(num) + 1)
            ]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k, c in enumerate(num):
            coeffs[k] += scale * c
    return coeffs


def _norm_resultant(poly: UniPoly, shift: int) -> UniPoly:
    """Norm of poly(x - shift*zeta) down to Q, by evaluation and interpolation."""
    field = poly.field
    rationals = make_field(1)
    zeta = field.zeta()
    shifted = poly.shift(field.from_rational(-shift) * zeta) if shift else poly
    coeff_polys = [list(c.coeffs) for c in shifted.coeffs]
    mod = list(field.modulus)
    deg_out = poly.degree * field.degree
    xs, ys = [], []
    t = 0
    while len(xs) < deg_out + 1:
        fy = [_ZERO] * field.degree
        tp = _ONE
        for cp in coeff_polys:
            for i, c in enumerate(cp):
                if c:
                    fy[i] += c * tp
            tp *= t
        ys.append(_rational_resultant(mod, list(fy)))
        xs.append(Fraction(t))
        t = -t if t > 0 else -t + 1
    coeffs = _lagrange_interpolate(xs, ys)
    return UniPoly(rationals, [rationals.from_rational(c) for c in coeffs])


def _factor_squarefree_cyclo(poly: UniPoly) -> list[UniPoly]:
    """Squarefree monic factorization over Q(zeta_n).

    Cheap deflations first: a root at zero splits off directly, and a
    polynomial with all-rational coefficients is factored over Q before any
    factor that stays nonlinear goes to the roots-of-unity shortcut or to
    Trager's norm method.
    """
    field = poly.field
    if poly.degree <= 1:
        return [poly]
    out = []
    if poly.coeffs[0].is_zero():
        x = UniPoly(field, [field.zero(), field.one()])
        out.append(x)
        poly = poly // x
        if poly.degree <= 1:
            out.extend([poly] if poly.degree == 1 else [])
            out.sort(key=_poly_sort_key)
            return out
    if all(c.is_rational() for c in poly.coeffs):
        rationals = make_field(1)
        over_q = UniPoly(
            rationals, [rationals.from_rational(c.rational) for c in poly.coeffs]
        )
        for qfac in _factor_squarefree_q(over_q):
            lifted = UniPoly(
                field, [field.from_rational(c.rational) for c in qfac.coeffs]
            )
            if lifted.degree <= 1:
                out.append(lifted)
            else:
                out.extend(_trager_squarefree(lifted))
        out.sort(key=_poly_sort_key)
        return out
    out.extend(_trager_squarefree(poly))
    out.sort(key=_poly_sort_key)
    return out


def _trager_squarefree(poly: UniPoly) -> list[UniPoly]:
    """Roots-of-unity shortcut, then the norm/resultant method proper."""
    field = poly.field
    fast = _roots_of_unity_split(poly)
    if fast is not None:
        return fast
    zeta = field.zeta()
    for shift in itertools.count(0):
        norm = _norm_resultant(poly, shift)
        if norm.gcd(norm.derivative()).degree == 0:
            break
    norm_factors = _factor_squarefree_q(norm.monic())
    if len(norm_factors) == 1:
        return [poly.monic()]
    out = []
    delta = field.from_rational(shift) * zeta
    for nf in norm_factors:
        lifted = UniPoly(field, [field.from_rational(c.rational) for c in nf.coeffs])
        g = poly.gcd(lifted.shift(delta))
        if g.degree > 0:
            out.append(g.monic())
    out.sort(key=_poly_sort_key)
    return out


def factor_unipoly(poly: UniPoly) -> list[tuple[UniPoly, int]]:
    """Monic irreducible factors with multiplicity over the coefficient field.

    The product of the factors (with multiplicity) times the input's leading
    coefficient reconstructs the input exactly.
    """
    if poly.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if poly.degree == 0:
        return []
    out = []
    for sq, mult in squarefree_decomposition(poly):
        if poly.field.order == 1:
            parts = _factor_squarefree_q(sq)
        else:
            parts = _factor_squarefree_cyclo(sq)
        out.extend((p, mult) for p in parts)
    out.sort(key=lambda pm: _poly_sort_key(pm[0]))
    return out


def roots_in_field(poly: UniPoly) -> list[FieldElement]:
    """All roots of `poly` lying in its coefficient field, with multiplicity."""
    roots = []
    for factor, mult in factor_unipoly(poly):
        if factor.degree == 1:
            roots.extend([-factor.coeffs[0]] * mult)
    roots.sort(key=lambda r: r.coeffs)
    return roots


# --- small multivariate polynomials ----------------------------------------------


class MultiPoly:
    """Sparse multivariate polynomial over a cyclotomic field.

    Keys are exponent tuples over a fixed, ordered variable list (at most 12
    variables); display order is graded-lexicographic.
    """

    __slots__ = ("field", "variables", "terms")

    def __init__(self, field: CycloField, variables: tuple[str, ...], terms=None):
        if len(variables) > 12:
            raise ValueError("MultiPoly supports at most 12 variables")
        self.field = field
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = field.promote(coeff)
                if len(exps) != len(self.variables):
                    raise VariableMismatch("exponent arity mismatch")
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, field, variables, value) -> "MultiPoly":
        zero = (0,) * len(variables)
        return cls(field, variables, {zero: field.promote(value)})

    @classmethod
    def variable(cls, field, variables, name) -> "MultiPoly":
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(field, variables, {exps: field.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    @property
    def constant_value(self) -> FieldElement:
        if not self.terms:
            return self.field.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def used_variables(self) -> set[str]:
        used = set()
        for exps in self.terms:
            for name, e in zip(self.variables, exps):
                if e:
                    used.add(name)
        return used

    def _check(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise VariableMismatch(
                "variable lists differ: %r vs %r" % (self.variables, other.variables)
            )

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return MultiPoly.constant(self.field, self.variables, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in o.terms.items():
            prev = terms.get(exps)
            terms[exps] = c if prev is None else prev + c
        return MultiPoly(self.field, self.variables, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in o.terms.items():
            prev = terms.get(exps)
            terms[exps] = -c if prev is None else prev - c
        return MultiPoly(self.field, self.variables, terms)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return MultiPoly(
            self.field, self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                prev = terms.get(key)
                terms[key] = prod if prev is None else prev + prod
        return MultiPoly(self.field, self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = MultiPoly.constant(self.field, self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = MultiPoly.constant(self.field, self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def substitute(self, assignments: dict) -> "MultiPoly":
        """Substitute variables by constants or polynomials in the same ring."""
        out = MultiPoly(self.field, self.variables, {})
        subs = {}
        for name, val in assignments.items():
            idx = self.variables.index(name)
            if not isinstance(val, MultiPoly):
                val = MultiPoly.constant(self.field, self.variables, val)
            subs[idx] = val
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(self.field, self.variables, coeff)
            rest = list(exps)
            for idx, val in subs.items():
                if exps[idx]:
                    term = term * val ** exps[idx]
                    rest[idx] = 0
            mono = MultiPoly(self.field, self.variables, {tuple(rest): self.field.one()})
            out = out + term * mono
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        parts = []
        for exps in keys:
            c = self.terms[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mono = "*".join(factors)
            if not mono:
                parts.append(repr(c))
            elif c.is_one():
                parts.append(mono)
            elif (-c).is_one():
                parts.append("-" + mono)
            else:
                parts.append("%r*%s" % (c, mono))
        return " + ".join(parts).replace("+ -", "- ")
