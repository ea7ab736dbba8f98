"""Exact scalars: rationals and cyclotomic field elements.

An element of a field (``fields.Field``) is a vector of integer numerators
over one positive common denominator, reduced modulo the field's cyclotomic
polynomial Φ.  The form is canonical (the denominator and the numerators
share no factor, and zero is all zeros over 1), so equality is a plain
componentwise comparison.  Every axiom check downstream leans on that
canonical form.  A product folds back below degree deg Φ by the field's
integer tables; the denominators simply multiply.
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from numbers import Rational
from operator import add, sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .fields import Field

# ``fractions`` (which loads the ``decimal`` C extension) is imported only
# where a Fraction is built; parsing reads p/q as two ints, and a rational
# hashes by Python's numeric hash, so a document of rationals never loads it.

_HASH = sys.hash_info


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
        # ℚ(ζₙ), n ≥ 3, has no real embedding: the norm is a product of |σ(num)|² > 0
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
        # a rational value hashes like the equal int or Fraction: Python's
        # numeric hash, n·d⁻¹ modulo the prime _HASH.modulus, as Fraction
        # computes it
        n, d = self.num[0], self.den
        if any(self.num[1:]):
            return hash((self.num, d))
        if d == 1:
            return hash(n)
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH.modulus))
        except ValueError:  # d is a multiple of the modulus
            h = _HASH.inf
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

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
