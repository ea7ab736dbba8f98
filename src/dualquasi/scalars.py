"""Exact scalars: rationals and cyclotomic field elements.

A field is either the rationals or the extension generated by a primitive
``order``-th root of unity, written ``z``.  An element is a vector of integer
numerators over one positive common denominator, reduced modulo the
``order``-th cyclotomic polynomial Φ.  The form is canonical (the denominator
and the numerators share no factor, and zero is all zeros over 1), so
equality is a plain componentwise comparison.  Every axiom check downstream
leans on that canonical form.

Φ is monic with integer coefficients, so a product is an integer convolution
folded back below degree deg Φ by integer tables of z^deg … z^(2·deg−2); the
denominators simply multiply.

Text syntax (used by the document formats): rationals are ``p/q`` or ``p``;
cyclotomic elements are polynomials in ``z`` such as ``1/2*z^3 - 1``.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import compress, count
from math import gcd, lcm
from numbers import Rational
from operator import add, sub

from .errors import ScalarParseError

# ``fractions`` (which loads the ``decimal`` C extension) is imported only
# where a Fraction is built: parsing reads p/q as two ints, and only hashing a
# non-integer rational needs one, so a document of integers never loads it.

_NUM_RE = re.compile(r"(\d+)(?:/(\d+))?")
_INT_RE = re.compile(r"\d+")


@cache
def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low-degree first."""
    # Φ_n = (x^n − 1) / ∏ Φ_d over the proper divisors d of n; every Φ_d is monic
    rem = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = _cyclotomic_polynomial(d)
            deg = len(div) - 1
            quot = [0] * (len(rem) - deg)
            for k in range(len(quot) - 1, -1, -1):
                c = quot[k] = rem[k + deg]
                if c:
                    for i, di in enumerate(div):
                        rem[k + i] -= c * di
            assert not any(rem)
            rem = quot
    return tuple(rem)


class Field:
    """Scalar field shared by all structure constants of an algebra object.

    ``Field.rationals()`` is the rational field; ``Field.cyclotomic(n)``
    adjoins a primitive n-th root of unity ``z``.  ``cyclotomic(1)``
    normalizes to the rationals.  Instances are interned.
    """

    _instances: dict[tuple[str, int], "Field"] = {}

    __slots__ = ("kind", "order", "degree", "_fold", "_high_powers", "_zeta_cache",
                 "zero", "one")

    def __init__(self):
        raise TypeError("use Field.rationals() or Field.cyclotomic(order)")

    @classmethod
    def _get(cls, kind: str, order: int) -> "Field":
        key = (kind, order)
        inst = cls._instances.get(key)
        if inst is None:
            inst = object.__new__(cls)
            inst._setup(kind, order)
            cls._instances[key] = inst
        return inst

    @classmethod
    def rationals(cls) -> "Field":
        return cls._get("rationals", 1)

    @classmethod
    def cyclotomic(cls, order: int) -> "Field":
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        if order == 1:
            return cls.rationals()
        return cls._get("cyclotomic", order)

    def _setup(self, kind: str, order: int) -> None:
        self.kind = kind
        self.order = order
        modulus = _cyclotomic_polynomial(order)
        self.degree = d = len(modulus) - 1
        # z^(degree + j) reduced, at index j; Φ is monic, so z^degree is minus
        # the lower terms of Φ
        self._high_powers = [tuple(-c for c in modulus[:-1])]
        for _ in range(d - 2):
            self._grow_powers()
        # the integer tables that fold a product's coefficients of z^degree …
        # z^(2*degree − 2) back down, as (index, value) pairs of nonzeros
        self._fold = tuple(tuple(zip(compress(count(), v), filter(None, v)))
                           for v in self._high_powers[:d - 1])
        self._zeta_cache: dict[int, Scalar] = {}
        self.zero = _make(self, (0,) * d, 1)
        self.one = _make(self, (1,) + (0,) * (d - 1), 1)

    def _grow_powers(self) -> None:
        # z · z^k: shift up one degree, replace z^degree by its reduction
        top = self._high_powers[-1]
        over = top[-1]
        shifted = (0,) + top[:-1]
        if over:
            shifted = tuple(s + over * t for s, t in zip(shifted, self._high_powers[0]))
        self._high_powers.append(shifted)

    def _power(self, k: int) -> tuple[int, ...]:
        """Integer coefficients of z^k, 0 <= k < order."""
        d = self.degree
        if k < d:
            return (0,) * k + (1,) + (0,) * (d - 1 - k)
        while len(self._high_powers) <= k - d:
            self._grow_powers()
        return self._high_powers[k - d]

    def _mul_int(self, a, b) -> tuple[int, ...]:
        """Product of two integer coefficient vectors, reduced modulo Φ."""
        prod = [0] * (2 * self.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    if bj:
                        prod[k] += ai * bj
        out = prod[:self.degree]
        for c, table in zip(prod[self.degree:], self._fold):
            if c:
                for i, t in table:
                    out[i] += c * t
        return tuple(out)

    def _conjugate(self, a, k: int) -> tuple[int, ...]:
        """The Galois conjugate z ↦ z^k of an integer coefficient vector."""
        out = [0] * self.degree
        for i, ai in enumerate(a):
            if ai:
                for j, t in enumerate(self._power(i * k % self.order)):
                    if t:
                        out[j] += ai * t
        return tuple(out)

    def from_fraction(self, value) -> "Scalar":
        """The rational ``value``: an int, a Fraction, any ``numbers.Rational``,
        or what ``Fraction`` accepts."""
        if not isinstance(value, Rational):
            from fractions import Fraction
            value = Fraction(value)
        return _make(self, (int(value.numerator),) + (0,) * (self.degree - 1),
                     int(value.denominator))

    def zeta(self, power: int = 1) -> "Scalar":
        """Canonical form of z^power; z has multiplicative order ``order``."""
        if self.kind != "cyclotomic":
            raise ValueError("the rational field has no distinguished root of unity")
        k = power % self.order
        cached = self._zeta_cache.get(k)
        if cached is None:
            cached = self._zeta_cache[k] = _make(self, self._power(k), 1)
        return cached

    def parse(self, text: str) -> "Scalar":
        """Parse the scalar text syntax; raises ScalarParseError with position."""
        s = text
        n = len(s)

        def skip_ws(i: int) -> int:
            while i < n and s[i].isspace():
                i += 1
            return i

        i = skip_ws(0)
        if i == n:
            raise ScalarParseError("empty scalar", i)
        total = self.zero
        first = True
        while i < n:
            if s[i] in "+-":
                sign = -1 if s[i] == "-" else 1
                i = skip_ws(i + 1)
            elif first:
                sign = 1
            else:
                raise ScalarParseError("expected '+' or '-' between terms", i)
            num = den = 1
            have_coef = False
            m = _NUM_RE.match(s, i)
            if m:
                num, den = int(m.group(1)), int(m.group(2) or 1)
                if not den:
                    raise ScalarParseError("zero denominator", i)
                i = m.end()
                have_coef = True
            exp = 0
            j = skip_ws(i)
            if have_coef and j < n and s[j] == "*":
                j = skip_ws(j + 1)
                if j >= n or s[j] != "z":
                    raise ScalarParseError("expected 'z' after '*'", j)
            if j < n and s[j] == "z":
                if self.kind != "cyclotomic":
                    raise ScalarParseError("'z' is not a rational scalar", j)
                j += 1
                if j < n and s[j] == "^":
                    m2 = _INT_RE.match(s, j + 1)
                    if m2 is None:
                        raise ScalarParseError("expected an integer exponent after '^'", j + 1)
                    exp = int(m2.group(0))
                    j = m2.end()
                else:
                    exp = 1
                i = j
            elif not have_coef:
                raise ScalarParseError("expected a number or 'z'", j)
            term = _make(self, (sign * num,) + (0,) * (self.degree - 1), den)
            if exp:
                term = term * self.zeta(exp)
            total = total + term
            first = False
            i = skip_ws(i)
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.kind, self.order) == (other.kind, other.order)

    def __hash__(self) -> int:
        return hash((self.kind, self.order))

    def __repr__(self) -> str:
        if self.kind == "rationals":
            return "Field.rationals()"
        return f"Field.cyclotomic({self.order})"


class Scalar:
    """An exact field element in canonical reduced form.

    Immutable; supports the usual arithmetic operators, mixing freely with
    ``int``, ``Fraction`` and any other ``numbers.Rational``.  Elements of
    distinct fields never mix.  The value is ``sum(num[k] * z**k) / den``
    with ``den > 0`` and ``gcd(den, *num) == 1``.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, coeffs):
        """The value sum(coeffs[k] * z**k), from exactly ``field.degree``
        rational coefficients."""
        from fractions import Fraction

        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != field.degree:
            raise ValueError(f"{field!r} has degree {field.degree}, "
                             f"got {len(fracs)} coefficients")
        # over the lcm of reduced denominators no common factor is left
        den = lcm(*(f.denominator for f in fracs))
        self.field = field
        self.num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        return tuple(Fraction(n, self.den) for n in self.num)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is self.field or other.field == self.field:
                return other
            raise ValueError(f"scalars from different fields: {self.field!r} vs {other.field!r}")
        if isinstance(other, Rational):
            return self.field.from_fraction(other)
        return None

    # Each operation returns an operand unchanged when the other one is an
    # identity (0 for + and −, 1 for ·): group-algebra structure constants are
    # 1 and accumulators start at 0, so most operations are of this kind.  The
    # test comes after coercion, so scalars of different fields still raise.

    def __add__(self, other):
        o = other if type(other) is Scalar and other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        zero = self.field.zero.num
        if b == zero:
            return self
        if a == zero:
            return o
        da, db = self.den, o.den
        if len(a) == 1:
            if da == db:
                return _make(self.field, (a[0] + b[0],), da)
            return _make(self.field, (a[0] * db + b[0] * da,), da * db)
        if da == db:
            return _make(self.field, tuple(map(add, a, b)), da)
        return _make(self.field, tuple(x * db + y * da for x, y in zip(a, b)), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Scalar and other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        zero = self.field.zero.num
        if b == zero:
            return self
        if a == zero:
            return -o
        da, db = self.den, o.den
        if len(a) == 1:
            if da == db:
                return _make(self.field, (a[0] - b[0],), da)
            return _make(self.field, (a[0] * db - b[0] * da,), da * db)
        if da == db:
            return _make(self.field, tuple(map(sub, a, b)), da)
        return _make(self.field, tuple(x * db - y * da for x, y in zip(a, b)), da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = other if type(other) is Scalar and other.field is self.field else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        one = self.field.one.num
        if b == one and o.den == 1:
            return self
        if a == one and self.den == 1:
            return o
        if len(a) == 1:
            return _make(self.field, (a[0] * b[0],), self.den * o.den)
        return _make(self.field, self.field._mul_int(a, b), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar is zero")
        field, num = self.field, self.num
        if len(num) == 1:
            n = num[0]
            return _make(field, (self.den if n > 0 else -self.den,), abs(n))
        # 1/num = (product of the other Galois conjugates of num) / (norm of
        # num), an integer for integer num; the value is num/den, so scale by den
        order = field.order
        others = None
        for k in range(2, order):
            if gcd(k, order) == 1:
                conj = field._conjugate(num, k)
                others = conj if others is None else field._mul_int(others, conj)
        norm = field._mul_int(num, others)[0]
        if norm < 0:
            norm, others = -norm, tuple(-c for c in others)
        return _make(field, tuple(self.den * c for c in others), norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        # a Scalar operand skips the isinstance tests, which go through the ABCs
        if type(other) is not Scalar:
            if isinstance(other, Rational):
                other = self.field.from_fraction(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self) -> int:
        # a rational value hashes like the equal int or Fraction
        if not any(self.num[1:]):
            if self.den == 1:
                return hash(self.num[0])
            from fractions import Fraction

            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return any(self.num)

    def __str__(self) -> str:
        den = self.den
        if len(self.num) == 1:
            return _ratio(self.num[0], den)
        terms: list[str] = []
        for k in range(len(self.num) - 1, -1, -1):
            c = self.num[k]
            if not c:
                continue
            mag = _ratio(abs(c), den)
            if k == 0:
                body = mag
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == "1" else f"{mag}*{var}"
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append((" + " if c > 0 else " - ") + body)
        return "".join(terms) or "0"

    def __repr__(self) -> str:
        return f"<{self} over {self.field!r}>"


_object_new = object.__new__


def _make(field: Field, num: tuple[int, ...], den: int) -> Scalar:
    """The scalar num / den in canonical form; den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    s = _object_new(Scalar)
    s.field, s.num, s.den = field, num, den
    return s


def _ratio(n: int, d: int) -> str:
    """The text of the reduced fraction n/d, as ``str(Fraction(n, d))``."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"
