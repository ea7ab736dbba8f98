"""Exact scalars: rationals and cyclotomic field elements.

A field is either the rationals or the extension generated by a primitive
``order``-th root of unity, written ``z``.  Elements are rational coefficient
vectors reduced modulo the ``order``-th cyclotomic polynomial, so equality is
a plain componentwise comparison.  Every axiom check downstream leans on that
canonical form.

Text syntax (used by the document formats): rationals are ``p/q`` or ``p``;
cyclotomic elements are polynomials in ``z`` such as ``1/2*z^3 - 1``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ScalarParseError

_ZERO = Fraction(0)
_ONE = Fraction(1)

_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_INT_RE = re.compile(r"\d+")


def _trim(poly: list[Fraction]) -> list[Fraction]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    # exact long division; coefficient lists are low-degree first
    rem = _trim(list(a))
    deg_b = len(b) - 1
    lead = b[-1]
    if len(rem) - 1 < deg_b:
        return [], rem
    quot = [_ZERO] * (len(rem) - deg_b)
    for k in range(len(rem) - deg_b - 1, -1, -1):
        c = rem[k + deg_b] / lead
        if c:
            quot[k] = c
            for i, bi in enumerate(b):
                if bi:
                    rem[k + i] -= c * bi
    return _trim(quot), _trim(rem)


_CYCLOTOMIC_CACHE: dict[int, list[Fraction]] = {}


def _cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Coefficients of the n-th cyclotomic polynomial, low-degree first."""
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    num = [_ZERO] * (n + 1)
    num[0], num[n] = Fraction(-1), _ONE
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, _cyclotomic_polynomial(d))
            assert not rem
    _CYCLOTOMIC_CACHE[n] = num
    return num


class Field:
    """Scalar field shared by all structure constants of an algebra object.

    ``Field.rationals()`` is the rational field; ``Field.cyclotomic(n)``
    adjoins a primitive n-th root of unity ``z``.  ``cyclotomic(1)``
    normalizes to the rationals.  Instances are interned.
    """

    _instances: dict[tuple[str, int], "Field"] = {}

    __slots__ = ("kind", "order", "degree", "_modulus", "_power_table",
                 "_zeta_cache", "zero", "one")

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
        self.degree = len(modulus) - 1
        self._modulus = tuple(modulus)
        # z^k reduced, for k = degree .. 2*degree - 2 (monic modulus)
        table: list[tuple[Fraction, ...]] = []
        top = [-c for c in modulus[:-1]]
        cur = list(top)
        table.append(tuple(cur))
        for _ in range(self.degree - 2):
            cur = self._shift_reduce(cur, top)
            table.append(tuple(cur))
        self._power_table = tuple(table)
        self._zeta_cache: dict[int, Scalar] = {}
        self.zero = Scalar(self, (_ZERO,) * self.degree)
        self.one = Scalar(self, (_ONE,) + (_ZERO,) * (self.degree - 1))

    @staticmethod
    def _shift_reduce(cur: list[Fraction], top: list[Fraction]) -> list[Fraction]:
        shifted = [_ZERO] + list(cur)
        over = shifted.pop()
        if over:
            shifted = [s + over * t for s, t in zip(shifted, top)]
        return shifted

    def _reduce(self, poly) -> tuple[Fraction, ...]:
        # poly may have degree up to 2*degree - 2
        out = list(poly[: self.degree])
        out.extend([_ZERO] * (self.degree - len(out)))
        for k in range(self.degree, len(poly)):
            c = poly[k]
            if c:
                tab = self._power_table[k - self.degree]
                for i, t in enumerate(tab):
                    if t:
                        out[i] += c * t
        return tuple(out)

    def from_fraction(self, value) -> "Scalar":
        fr = Fraction(value)
        return Scalar(self, (fr,) + (_ZERO,) * (self.degree - 1))

    def zeta(self, power: int = 1) -> "Scalar":
        """Canonical form of z^power; z has multiplicative order ``order``."""
        if self.kind != "cyclotomic":
            raise ValueError("the rational field has no distinguished root of unity")
        k = power % self.order
        cached = self._zeta_cache.get(k)
        if cached is not None:
            return cached
        top = [-c for c in self._modulus[:-1]]
        cur = [_ONE] + [_ZERO] * (self.degree - 1)
        for _ in range(k):
            cur = self._shift_reduce(cur, top)
        result = Scalar(self, tuple(cur))
        self._zeta_cache[k] = result
        return result

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
            coef = _ONE
            have_coef = False
            m = _NUM_RE.match(s, i)
            if m:
                try:
                    coef = Fraction(m.group(0))
                except ZeroDivisionError:
                    raise ScalarParseError("zero denominator", i) from None
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
            term = self.from_fraction(sign * coef)
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
    ``int`` and ``Fraction``.  Elements of distinct fields never mix.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is self.field or other.field == self.field:
                return other
            raise ValueError(f"scalars from different fields: {self.field!r} vs {other.field!r}")
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) == 1:
            return Scalar(self.field, (a[0] * b[0],))
        prod = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Scalar(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("scalar is zero")
        if len(self.coeffs) == 1:
            return Scalar(self.field, (1 / self.coeffs[0],))
        # extended Euclid against the (irreducible) modulus
        r0, s0 = list(self.field._modulus), []
        r1, s1 = _trim(list(self.coeffs)), [_ONE]
        while r1:
            q, r = _poly_divmod(r0, r1)
            qs1 = [_ZERO] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        if sj:
                            qs1[i + j] += qi * sj
            s = [a - b for a, b in
                 zip(s0 + [_ZERO] * max(0, len(qs1) - len(s0)),
                     qs1 + [_ZERO] * max(0, len(s0) - len(qs1)))]
            r0, s0, r1, s1 = r1, s1, r, _trim(s)
        g = r0[0]  # gcd is a nonzero constant
        inv = [c / g for c in s0]
        return Scalar(self.field, self.field._reduce(inv))

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
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.order, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __str__(self) -> str:
        if len(self.coeffs) == 1:
            return str(self.coeffs[0])
        terms: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append((" + " if c > 0 else " - ") + body)
        return "".join(terms) or "0"

    def __repr__(self) -> str:
        return f"<{self} over {self.field!r}>"

