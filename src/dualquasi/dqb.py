"""Dual quasi-bialgebras by structure constants.

A dual quasi-bialgebra is a coassociative coalgebra (H, Δ, ε) together with
coalgebra maps m (multiplication) and u (unit) and a convolution-invertible
functional ω on H⊗H⊗H (the reassociator) such that m is associative and
unital only up to conjugation by ω.  The axiom suite that checks this
exactly, on basis tuples, is in ``axioms``; the convolution algebra of
functionals on tensor powers is in ``convolutions``.

The convolution identities on H⊗H⊗H and H^⊗4 take few distinct values, so
they run on integer codes of those values (``_Codes``), which the algebra
keeps for its structure constants.  The candidate antipode triple
``AntipodeData`` is defined here, next to the algebra, so building an
example loads no preantipode layer.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DimensionMismatch, InvariantViolation
from .fields import Field
from .linalg import Matrix
from .scalars import Scalar
from .values import Value


def _expect_shape(name: str, m: Matrix, rows: int, cols: int, field: Field) -> None:
    if (m.rows, m.cols) != (rows, cols):
        raise DimensionMismatch(
            f"{name} must be {rows}x{cols}, got {m.rows}x{m.cols}")
    if m.field != field:
        raise DimensionMismatch(f"{name} lives over {m.field!r}, expected {field!r}")


class _Codes:
    """Numbers the distinct scalars of an exhaustive check, so that its n⁴
    products and sums run on small ints.

    It starts from a list of values, code 0 zero and code 1 one.  Field
    elements are canonical, so two codes are equal exactly when their values
    are, and each distinct product or sum of two codes is computed once.
    """

    __slots__ = ("values", "_index", "_products", "_sums")

    def __init__(self, values):
        self.values = list(values)
        self._index = {v: c for c, v in enumerate(self.values)}
        self._products: dict[tuple[int, int], int] = {}
        self._sums: dict[tuple[int, int], int] = {}

    def code(self, value: Scalar) -> int:
        c = self._index.get(value)
        if c is None:
            c = self._index[value] = len(self.values)
            self.values.append(value)
        return c

    def encode(self, values) -> list[int]:
        return list(map(self.code, values))

    def mul(self, a: int, b: int) -> int:
        if a == 1:
            return b
        if b == 1:
            return a
        if not a or not b:
            return 0
        c = self._products.get((a, b))
        if c is None:
            c = self._products[a, b] = self.code(self.values[a] * self.values[b])
        return c

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        c = self._sums.get((a, b))
        if c is None:
            c = self._sums[a, b] = self.code(self.values[a] + self.values[b])
        return c

    def put(self, acc: dict, key, value: int) -> None:
        """Add the code ``value`` into ``acc[key]`` of a sparse vector of codes."""
        old = acc.get(key)
        acc[key] = self.add(old, value) if old else value


class DualQuasiBialgebra:
    """Structure constants of a finite-dimensional dual quasi-bialgebra.

    On the fixed basis e_0 … e_{n-1}:

    * ``delta``  (n²×n):  column i holds Δ(e_i) in H⊗H,
    * ``counit`` (1×n):   ε,
    * ``mul``    (n×n²):  column (i·n+j) holds e_i·e_j,
    * ``unit``   (n×1):   the unit element 1_H,
    * ``omega``  (1×n³):  the reassociator ω,
    * ``omega_inv`` (1×n³): its convolution inverse; computed when omitted.

    Instances are immutable after construction and safe to share; whether the
    data actually satisfies the axioms is the business of ``validate_dqb``.
    """

    def __init__(self, field: Field, dim: int,
                 delta: Matrix, counit: Matrix, mul: Matrix, unit: Matrix,
                 omega: Matrix, omega_inv: Matrix | None = None):
        if dim < 1:
            raise DimensionMismatch("dimension must be at least 1")
        n = dim
        _expect_shape("delta", delta, n * n, n, field)
        _expect_shape("counit", counit, 1, n, field)
        _expect_shape("mul", mul, n, n * n, field)
        _expect_shape("unit", unit, n, 1, field)
        _expect_shape("omega", omega, 1, n ** 3, field)
        self.field = field
        self.dim = dim
        self.delta = delta
        self.counit = counit
        self.mul = mul
        self.unit = unit
        self.omega = omega
        self._delta_terms = tuple(
            tuple((row // n, row % n, v) for row, v in delta.column_terms(i))
            for i in range(n))
        self._mul_table = tuple(tuple(mul.column_terms(c)) for c in range(n * n))
        self._unit_terms = tuple(unit.column_terms(0))
        self._split_tables: dict[int, tuple] = {}
        if omega_inv is None:
            from .convolutions import convolution_inverse

            omega_inv = convolution_inverse(self, omega, arity=3)
            if omega_inv is None:
                raise InvariantViolation("reassociator is not convolution invertible")
        else:
            _expect_shape("omega_inv", omega_inv, 1, n ** 3, field)
        self.omega_inv = omega_inv

    # -- structure-constant access -------------------------------------------

    def delta_terms(self, i: int):
        """Sweedler terms (j, k, c) of Δ(e_i) = Σ c·e_j⊗e_k."""
        return self._delta_terms[i]

    @cached_property
    def delta2(self) -> tuple:
        """Per basis i, terms ((a, b, c), coeff) of Δ²(e_i) = Σ coeff·e_a⊗e_b⊗e_c.

        Δ² = (id⊗Δ)Δ, the only iterated coproduct that any identity reads; on
        data that is not coassociative, (Δ⊗id)Δ would render other values."""
        delta = self._delta_terms
        return tuple(tuple(((a, b1, b2), c * c2) for a, b, c in terms
                           for b1, b2, c2 in delta[b]) for terms in delta)

    @cached_property
    def _codes(self) -> _Codes:
        """The value numbering of H's coded identities and convolutions."""
        return _Codes((self.field.zero, self.field.one))

    # H's structure constants with each coefficient replaced by its code

    @cached_property
    def _coded_delta(self) -> tuple:
        """Per basis element i: terms (j, k, code) of Δ(e_i)."""
        code = self._codes.code
        return tuple(tuple((a, b, code(c)) for a, b, c in terms)
                     for terms in self._delta_terms)

    @cached_property
    def _coded_products(self) -> tuple:
        """Per flat index a·n+b: terms (t, code) of e_a·e_b."""
        code = self._codes.code
        return tuple(tuple((t, code(c)) for t, c in terms) for terms in self._mul_table)

    @cached_property
    def _coded_counit(self) -> list[int]:
        return self._codes.encode(self.counit.entries)

    @cached_property
    def _coded_omega(self) -> list[int]:
        return self._codes.encode(self.omega.entries)

    @cached_property
    def _coded_omega_inv(self) -> list[int]:
        return self._codes.encode(self.omega_inv.entries)

    def split_table(self, k: int):
        """Per flat index of H^⊗k: terms (left_flat, right_flat, c) of its
        codiagonal comultiplication, with Δ applied factorwise; c is the code
        of the coefficient in ``H._codes``.

        The table lives as long as H, so equal indices are stored once each."""
        cached = self._split_tables.get(k)
        if cached is not None:
            return cached
        if k == 0:
            result = (((0, 0, 1),),)
        else:
            n = self.dim
            flats = list(range(n ** k))
            mul, delta = self._codes.mul, self._coded_delta
            result = tuple(
                tuple((flats[lf * n + a], flats[rf * n + b], mul(c, c2))
                      for lf, rf, c in head for a, b, c2 in delta[last])
                for head in self.split_table(k - 1) for last in range(n))
        self._split_tables[k] = result
        return result

    def mul_terms(self, a: int, b: int):
        """Terms (c, coeff) of the product e_a·e_b."""
        return self._mul_table[a * self.dim + b]

    def unit_terms(self):
        return self._unit_terms

    def eps(self, i: int) -> Scalar:
        return self.counit.entries[i]

    def omega_at(self, i: int, j: int, k: int) -> Scalar:
        n = self.dim
        return self.omega.entries[(i * n + j) * n + k]

    def omega_inv_at(self, i: int, j: int, k: int) -> Scalar:
        n = self.dim
        return self.omega_inv.entries[(i * n + j) * n + k]

    def counit_power(self, k: int) -> Matrix:
        """The functional ε⊗…⊗ε on the k-th tensor power of H."""
        values = [self.field.one]
        for _ in range(k):
            values = [v * e for v in values for e in self.counit.entries]
        return Matrix.row_vector(self.field, values)

    def __repr__(self) -> str:
        return f"<DualQuasiBialgebra dim={self.dim} over {self.field!r}>"


class AntipodeData(Value):
    """A candidate antipode triple: coalgebra antimorphism s and functionals α, β."""

    __slots__ = ("s", "alpha", "beta")

    def __init__(self, s: Matrix, alpha: Matrix, beta: Matrix):
        n = s.rows
        if s.cols != n:
            raise DimensionMismatch("antipode matrix must be square")
        if (alpha.rows, alpha.cols) != (1, n):
            raise DimensionMismatch("alpha must be a 1xn functional")
        if (beta.rows, beta.cols) != (1, n):
            raise DimensionMismatch("beta must be a 1xn functional")
        self._set(s, alpha, beta)


def _require_square(H: DualQuasiBialgebra, S: Matrix) -> None:
    n = H.dim
    if (S.rows, S.cols) != (n, n):
        raise DimensionMismatch(f"S must be {n}x{n}, got {S.rows}x{S.cols}")
    if S.field != H.field:
        raise DimensionMismatch("S lives over a different field than H")
