"""The scalar fields: the rationals and the cyclotomic fields ℚ(ζ_order).

A field is either the rationals or the extension generated by a primitive
``order``-th root of unity, written ``z``.  Its elements (``Scalar``) are
reduced modulo the ``order``-th cyclotomic polynomial Φ.  Φ is monic with
integer coefficients, so a product is an integer convolution folded back
below degree deg Φ by integer tables of z^deg … z^(2·deg−2), which the
field builds once.

Text syntax (used by the document formats): rationals are ``p/q`` or ``p``;
cyclotomic elements are polynomials in ``z`` such as ``1/2*z^3 - 1``.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import compress, count
from numbers import Rational

from .errors import ScalarParseError
from .scalars import Scalar, _make

_NUM_RE = re.compile(r"(\d+)(?:/(\d+))?")
_INT_RE = re.compile(r"\d+")


def _int(digits: str, position: int) -> int:
    """The integer a run of digits spells; one longer than the interpreter
    converts (4300 digits by default) is a ScalarParseError at ``position``."""
    try:
        return int(digits)
    except ValueError:
        raise ScalarParseError("number has too many digits", position) from None


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
                num, den = _int(m.group(1), i), _int(m.group(2) or "1", m.start(2))
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
                    exp = _int(m2.group(0), j + 1)
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
