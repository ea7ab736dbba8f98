"""Dual quasi-bialgebras by structure constants, convolution, and the axiom suite.

A dual quasi-bialgebra is a coassociative coalgebra (H, Δ, ε) together with
coalgebra maps m (multiplication) and u (unit) and a convolution-invertible
functional ω on H⊗H⊗H (the reassociator) such that m is associative and
unital only up to conjugation by ω.  Everything here is checked exactly by
expanding both sides of each identity on basis tuples; linearity makes that
complete.
"""

from __future__ import annotations

from functools import partial

from .errors import DimensionMismatch, InvariantViolation
from .linalg import Matrix, tensor_unindex
from .report import Check, Report, basis_tuples, check_identity
from .scalars import Field, Scalar


def _expect_shape(name: str, m: Matrix, rows: int, cols: int, field: Field) -> None:
    if (m.rows, m.cols) != (rows, cols):
        raise DimensionMismatch(
            f"{name} must be {rows}x{cols}, got {m.rows}x{m.cols}")
    if m.field != field:
        raise DimensionMismatch(f"{name} lives over {m.field!r}, expected {field!r}")


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
        self._delta_powers: dict[tuple[int, int], tuple] = {}
        self._split_tables: dict[int, tuple] = {}
        self._counit_powers: dict[int, Matrix] = {}
        if omega_inv is None:
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

    def delta_power(self, i: int, k: int):
        """Terms (index_tuple, c) of the k-fold comultiplication of e_i, k ≥ 1.

        Expanded by repeatedly splitting the rightmost factor; on coassociative
        data any other expansion order gives the same result.
        """
        key = (i, k)
        cached = self._delta_powers.get(key)
        if cached is not None:
            return cached
        if k == 1:
            result = (((i,), self.field.one),)
        else:
            result = []
            for tup, c in self.delta_power(i, k - 1):
                for a, b, c2 in self._delta_terms[tup[-1]]:
                    result.append((tup[:-1] + (a, b), c * c2))
            result = tuple(result)
        self._delta_powers[key] = result
        return result

    def split_table(self, k: int):
        """Per flat index of H^⊗k: terms (left_flat, right_flat, c) of its
        codiagonal comultiplication, with Δ applied factorwise.

        The table lives as long as H, so equal indices and equal coefficients
        are stored once each; this halves the table of H^⊗4."""
        cached = self._split_tables.get(k)
        if cached is not None:
            return cached
        if k == 0:
            result = (((0, 0, self.field.one),),)
        else:
            n = self.dim
            flats = list(range(n ** k))
            coeffs: dict = {}
            result = tuple(
                tuple((flats[lf * n + a], flats[rf * n + b],
                       coeffs.setdefault(c3 := c * c2, c3))
                      for lf, rf, c in head for a, b, c2 in self._delta_terms[last])
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
        cached = self._counit_powers.get(k)
        if cached is not None:
            return cached
        n = self.dim
        values = [self.field.one]
        for _ in range(k):
            values = [v * self.eps(i) for v in values for i in range(n)]
        result = Matrix.row_vector(self.field, values)
        self._counit_powers[k] = result
        return result

    def __repr__(self) -> str:
        return f"<DualQuasiBialgebra dim={self.dim} over {self.field!r}>"


# -- convolution algebra of functionals on tensor powers ----------------------


def _functional_arity(H: DualQuasiBialgebra, f: Matrix, arity: int | None) -> int:
    if f.rows != 1:
        raise DimensionMismatch("functionals are row vectors")
    n = H.dim
    if arity is not None:
        if f.cols != n ** arity:
            raise DimensionMismatch(f"functional has {f.cols} columns, expected {n ** arity}")
        return arity
    if n == 1:
        if f.cols != 1:
            raise DimensionMismatch("functional on a 1-dimensional coalgebra must have 1 column")
        return 1
    k, p = 0, 1
    while p < f.cols:
        p *= n
        k += 1
    if p != f.cols:
        raise DimensionMismatch(f"{f.cols} columns is not a tensor power of {n}")
    return k


def _convolve(H: DualQuasiBialgebra, f, g, k: int) -> list[Scalar]:
    """Values of f∗g on H^⊗k in flat order, from the values of f and g."""
    zero = H.field.zero
    out = []
    for terms in H.split_table(k):
        if len(terms) == 1:
            (lf, rf, c), = terms
            out.append(f[lf] * g[rf] * c)
            continue
        acc = zero
        for lf, rf, c in terms:
            fv = f[lf]
            if not fv:
                continue
            gv = g[rf]
            if not gv:
                continue
            acc = acc + fv * gv * c
        out.append(acc)
    return out


def convolution(H: DualQuasiBialgebra, f: Matrix, g: Matrix,
                arity: int | None = None) -> Matrix:
    """Convolution f∗g of functionals on a common tensor power of H.

    (f∗g)(x) = Σ f(x₍₁₎)·g(x₍₂₎) with the componentwise comultiplication of
    the tensor-power coalgebra; ε⊗…⊗ε is the two-sided unit.
    """
    k = _functional_arity(H, f, arity)
    if _functional_arity(H, g, arity) != k:
        raise DimensionMismatch("convolution factors live on different tensor powers")
    return Matrix.row_vector(H.field, _convolve(H, f.entries, g.entries, k))


def convolution_inverse(H: DualQuasiBialgebra, f: Matrix,
                        arity: int | None = None) -> Matrix | None:
    """Two-sided convolution inverse of f, or None when it does not exist.

    Solves the linear system f∗g = ε^⊗k exactly, then verifies g∗f = ε^⊗k.
    """
    from .linalg import solve_affine

    k = _functional_arity(H, f, arity)
    n = H.dim
    N = n ** k
    zero = H.field.zero
    rows = [[zero] * N for _ in range(N)]
    fe = f.entries
    for row, terms in zip(rows, H.split_table(k)):
        for lf, rf, c in terms:
            fv = fe[lf]
            if fv:
                row[rf] = row[rf] + fv * c
    eps_k = H.counit_power(k)
    sol = solve_affine(Matrix.from_rows(H.field, rows), list(eps_k.entries))
    if sol is None:
        return None
    g = Matrix.row_vector(H.field, list(sol.particular))
    if convolution(H, g, f, arity=k) != eps_k:
        return None
    return g


# -- the axiom suite -----------------------------------------------------------
#
# Each identity is a sides function: given basis indices it returns both sides,
# as sparse vectors keyed by index tuples or as scalars.


def _add(d: dict, key, value) -> None:
    d[key] = d.get(key) + value if key in d else value


def _coassociativity(H, i):
    lhs: dict = {}
    rhs: dict = {}
    for a, b, c in H.delta_terms(i):
        for a1, a2, c2 in H.delta_terms(a):
            _add(lhs, (a1, a2, b), c * c2)
        for b1, b2, c2 in H.delta_terms(b):
            _add(rhs, (a, b1, b2), c * c2)
    return lhs, rhs


def _counit_law(H, side, i):
    acc: dict = {}
    for a, b, c in H.delta_terms(i):
        if side == 0:
            _add(acc, (b,), c * H.eps(a))
        else:
            _add(acc, (a,), c * H.eps(b))
    return acc, {(i,): H.field.one}


def _mul_comultiplicative(H, i, j):
    lhs: dict = {}
    rhs: dict = {}
    for t, c in H.mul_terms(i, j):
        for x, y, c2 in H.delta_terms(t):
            _add(lhs, (x, y), c * c2)
    for a1, a2, ca in H.delta_terms(i):
        for b1, b2, cb in H.delta_terms(j):
            for x, cx in H.mul_terms(a1, b1):
                for y, cy in H.mul_terms(a2, b2):
                    _add(rhs, (x, y), ca * cb * cx * cy)
    return lhs, rhs


def _mul_counital(H, i, j):
    lhs = H.field.zero
    for t, c in H.mul_terms(i, j):
        lhs = lhs + c * H.eps(t)
    return lhs, H.eps(i) * H.eps(j)


def _unit_comultiplicative(H):
    lhs: dict = {}
    rhs: dict = {}
    for u, cu in H.unit_terms():
        for x, y, c in H.delta_terms(u):
            _add(lhs, (x, y), cu * c)
    for u1, c1 in H.unit_terms():
        for u2, c2 in H.unit_terms():
            _add(rhs, (u1, u2), c1 * c2)
    return lhs, rhs


def _unit_counital(H):
    acc = H.field.zero
    for u, cu in H.unit_terms():
        acc = acc + cu * H.eps(u)
    return acc, H.field.one


def _first_difference(axiom: str, lhs, rhs, n: int, arity: int) -> Check:
    """Two value lists on H^⊗arity, in flat order, agree at every basis tuple;
    flat order is the lexicographic order of the tuples."""
    if lhs != rhs:
        for flat, (a, b) in enumerate(zip(lhs, rhs)):
            if a != b:
                return Check(axiom, False, tensor_unindex(flat, n, arity), str(a), str(b))
    return Check(axiom, True)


def _reassociator_invertible(H) -> Check:
    """ω∗ω⁻¹ = ε⊗ε⊗ε = ω⁻¹∗ω, the first product scanned in full first."""
    eps3 = list(H.counit_power(3).entries)
    w, w_inv = H.omega.entries, H.omega_inv.entries
    for f, g in ((w, w_inv), (w_inv, w)):
        check = _first_difference("reassociator-invertible", _convolve(H, f, g, 3),
                                  eps3, H.dim, 3)
        if not check.passed:
            break
    return check


def _omega_with_product(H, slot: int) -> list[Scalar]:
    """ω with the product of two factors in slot 0, 1 or 2, as values on H^⊗4
    in flat order: ω(hk⊗l⊗p), ω(h⊗kl⊗p) or ω(h⊗k⊗lp)."""
    n = H.dim
    w = H.omega.entries
    zero = H.field.zero
    tail = n ** (2 - slot)
    out = []
    for head in range(n ** slot):
        for terms in H._mul_table:
            for b in range(tail):
                acc = zero
                for t, c in terms:
                    acc = acc + c * w[(head * n + t) * tail + b]
                out.append(acc)
    return out


def _cocycle_identity(H) -> Check:
    """ω(H⊗H⊗m) ∗ ω(m⊗H⊗H) = (ε⊗ω) ∗ ω(H⊗m⊗H) ∗ (ω⊗ε) on H⊗4."""
    eps, w = H.counit.entries, H.omega.entries
    eps_w = [e * v for e in eps for v in w]
    w_eps = [v * e for v in w for e in eps]
    lhs = _convolve(H, _omega_with_product(H, 2), _omega_with_product(H, 0), 4)
    rhs = _convolve(H, _convolve(H, eps_w, _omega_with_product(H, 1), 4), w_eps, 4)
    return _first_difference("cocycle-identity", lhs, rhs, H.dim, 4)


def _cocycle_normalization(H, slot, j, k):
    """ω(h⊗k⊗l) = ε(h)ε(k)ε(l) whenever the unit element sits in a slot."""
    acc = H.field.zero
    for u, cu in H.unit_terms():
        args = [j, k]
        args.insert(slot, u)
        acc = acc + cu * H.omega_at(*args)
    return acc, H.eps(j) * H.eps(k)


def _quasi_associativity(H, i, j, k):
    """h₁(k₁l₁)·ω(h₂⊗k₂⊗l₂) = ω(h₁⊗k₁⊗l₁)·(h₂k₂)l₂ on basis triples."""
    lhs: dict = {}
    rhs: dict = {}
    for a1, a2, ca in H.delta_terms(i):
        for b1, b2, cb in H.delta_terms(j):
            for c1, c2, cc in H.delta_terms(k):
                coeff = ca * cb * cc
                w = H.omega_at(a2, b2, c2)
                if w:
                    for t, cm in H.mul_terms(b1, c1):
                        for t2, cm2 in H.mul_terms(a1, t):
                            _add(lhs, (t2,), coeff * cm * cm2 * w)
                w2 = H.omega_at(a1, b1, c1)
                if w2:
                    for t, cm in H.mul_terms(a2, b2):
                        for t2, cm2 in H.mul_terms(t, c2):
                            _add(rhs, (t2,), coeff * w2 * cm * cm2)
    return lhs, rhs


def _unit_law(H, left, i):
    acc: dict = {}
    for u, cu in H.unit_terms():
        pairs = H.mul_terms(u, i) if left else H.mul_terms(i, u)
        for t, c in pairs:
            _add(acc, (t,), cu * c)
    return acc, {(i,): H.field.one}


def validate_dqb(H: DualQuasiBialgebra) -> Report:
    """Exhaustively check every defining identity of a dual quasi-bialgebra.

    Fixed order: coalgebra axioms, coalgebra-map conditions on m and u,
    reassociator invertibility, cocycle identities, quasi-associativity,
    unit laws.  Each failing entry carries the first offending basis tuple
    in lexicographic order and both values.
    """
    n = H.dim

    def holds(axiom, arity, sides, *args):
        witnesses = [None] if arity is None else basis_tuples(*[n] * arity)
        return check_identity(axiom, witnesses, partial(sides, H, *args))

    return Report((
        holds("coassociativity", 1, _coassociativity),
        holds("counit-left", 1, _counit_law, 0),
        holds("counit-right", 1, _counit_law, 1),
        holds("multiplication-comultiplicative", 2, _mul_comultiplicative),
        holds("multiplication-counital", 2, _mul_counital),
        holds("unit-comultiplicative", None, _unit_comultiplicative),
        holds("unit-counital", None, _unit_counital),
        _reassociator_invertible(H),
        _cocycle_identity(H),
        holds("cocycle-normalization-left", 2, _cocycle_normalization, 0),
        holds("cocycle-normalization-middle", 2, _cocycle_normalization, 1),
        holds("cocycle-normalization-right", 2, _cocycle_normalization, 2),
        holds("quasi-associativity", 3, _quasi_associativity),
        holds("unit-left", 1, _unit_law, True),
        holds("unit-right", 1, _unit_law, False),
    ))
