"""Dual quasi-bialgebras by structure constants, convolution, and the axiom suite.

A dual quasi-bialgebra is a coassociative coalgebra (H, Δ, ε) together with
coalgebra maps m (multiplication) and u (unit) and a convolution-invertible
functional ω on H⊗H⊗H (the reassociator) such that m is associative and
unital only up to conjugation by ω.  Everything here is checked exactly by
expanding both sides of each identity on basis tuples; linearity makes that
complete.

The convolution identities on H⊗H⊗H and H^⊗4 take few distinct values, so
they run on integer codes of those values (``_Codes``).  The candidate
antipode triple ``AntipodeData`` is defined here, next to the algebra, so
building an example loads no preantipode layer.
"""

from __future__ import annotations

from functools import cached_property, partial

from .errors import DimensionMismatch, InvariantViolation
from .linalg import Matrix, tensor_unindex
from .report import Check, Report, basis_tuples, check_identity
from .scalars import Field, Scalar
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
        acc[key] = self.add(acc.get(key, 0), value)


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


def _convolve(H: DualQuasiBialgebra, f, g, k: int) -> list[int]:
    """Codes of f∗g on H^⊗k in flat order, from the codes of f and g.

    Up to three factors this reads H's split table of arity k.  On more it
    splits the first factor only, (f∗g)(h⊗y) = Σ c·(f(h₁⊗·) ∗ g(h₂⊗·))(y)
    over Δ(h) = Σ c·h₁⊗h₂, so it convolves slices of length n^(k−1) and no
    table on H^⊗k is built."""
    mul, add = H._codes.mul, H._codes.add
    out = []
    if k > 3:
        size = H.dim ** (k - 1)
        for terms in H._coded_delta:
            block = [0] * size
            for a, b, c in terms:
                part = _convolve(H, f[a * size:(a + 1) * size],
                                 g[b * size:(b + 1) * size], k - 1)
                if c != 1:
                    part = [mul(c, v) for v in part]
                block = part if len(terms) == 1 else list(map(add, block, part))
            out.extend(block)
        return out
    for terms in H.split_table(k):
        if len(terms) == 1:
            (lf, rf, c), = terms
            v = mul(f[lf], g[rf])
            out.append(v if c == 1 else mul(v, c))
            continue
        acc = 0
        for lf, rf, c in terms:
            fv = f[lf]
            if not fv:
                continue
            gv = g[rf]
            if not gv:
                continue
            acc = add(acc, mul(mul(fv, gv), c))
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
    # the codes of H's numbering are scalars of H's field
    if f.field != H.field:
        raise ValueError(f"scalars from different fields: {f.field!r} vs {H.field!r}")
    if g.field != H.field:
        raise ValueError(f"scalars from different fields: {H.field!r} vs {g.field!r}")
    codes = H._codes
    out = _convolve(H, codes.encode(f.entries), codes.encode(g.entries), k)
    return Matrix.row_vector(H.field, [codes.values[c] for c in out])


def convolution_inverse(H: DualQuasiBialgebra, f: Matrix,
                        arity: int | None = None) -> Matrix | None:
    """Two-sided convolution inverse of f, or None when it does not exist.

    Solves the linear system f∗g = ε^⊗k exactly, then verifies g∗f = ε^⊗k.
    """
    from .linalg import solve_affine

    k = _functional_arity(H, f, arity)
    N = H.dim ** k
    fe = f.entries
    values = H._codes.values
    system = Matrix.from_terms(H.field, N, N, (
        (x, rf, fv * values[c])
        for x, terms in enumerate(H.split_table(k))
        for lf, rf, c in terms if (fv := fe[lf])))
    eps_k = H.counit_power(k)
    sol = solve_affine(system, eps_k.transpose())
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


def _first_difference(axiom: str, lhs: list[int], rhs: list[int], values,
                      n: int, arity: int) -> Check:
    """Two code lists on H^⊗arity, in flat order, agree at every basis tuple;
    flat order is the lexicographic order of the tuples, and ``values`` maps
    a code back to its scalar."""
    if lhs == rhs:
        return Check(axiom, True)
    flat = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return Check(axiom, False, tensor_unindex(flat, n, arity),
                 str(values[lhs[flat]]), str(values[rhs[flat]]))


def _reassociator_invertible(H) -> Check:
    """ω∗ω⁻¹ = ε⊗ε⊗ε = ω⁻¹∗ω, the first product scanned in full first."""
    codes = H._codes
    eps3 = codes.encode(H.counit_power(3).entries)
    w, w_inv = H._coded_omega, H._coded_omega_inv
    for f, g in ((w, w_inv), (w_inv, w)):
        check = _first_difference("reassociator-invertible", _convolve(H, f, g, 3),
                                  eps3, codes.values, H.dim, 3)
        if not check.passed:
            break
    return check


def _omega_with_product(H, w: list[int], slot: int) -> list[int]:
    """ω with the product of two factors in slot 0, 1 or 2, as codes on H^⊗4
    in flat order: ω(hk⊗l⊗p), ω(h⊗kl⊗p) or ω(h⊗k⊗lp).  ``w`` holds the
    codes of ω."""
    n = H.dim
    mul, add = H._codes.mul, H._codes.add
    heads, tail = n ** slot, n ** (2 - slot)
    # ω(head⊗t⊗x) sits at in + t·tail and the value at a⊗b in the slot at
    # out + (a·n + b)·tail, where (in, out) = (head·n·tail + x, head·n²·tail + x);
    # each product is copied in runs along the longer of the head and x axes
    if heads <= tail:
        runs = [(h * n * tail, h * n * n * tail) for h in range(heads)]
        length, in_step, out_step = tail, 1, 1
    else:
        runs = [(x, x) for x in range(tail)]
        length, in_step, out_step = heads, n * tail, n * n * tail
    out = [0] * n ** 4
    for ab, terms in enumerate(H._coded_products):
        for start, target in runs:
            # the run of a product is Σ c·ω over the runs of its terms
            run = [0] * length
            for t, c in terms:
                i = start + t * tail
                part = w[i:i + length * in_step:in_step]
                if c != 1:
                    part = [mul(c, v) for v in part]
                run = part if len(terms) == 1 else list(map(add, run, part))
            o = target + ab * tail
            out[o:o + length * out_step:out_step] = run
    return out


def _cocycle_identity(H) -> Check:
    """ω(H⊗H⊗m) ∗ ω(m⊗H⊗H) = (ε⊗ω) ∗ ω(H⊗m⊗H) ∗ (ω⊗ε) on H⊗4."""
    codes = H._codes
    mul = codes.mul
    eps, w = H._coded_counit, H._coded_omega
    eps_w = [mul(e, v) for e in eps for v in w]
    w_eps = [mul(v, e) for v in w for e in eps]
    lhs = _convolve(H, _omega_with_product(H, w, 2), _omega_with_product(H, w, 0), 4)
    rhs = _convolve(H, _convolve(H, eps_w, _omega_with_product(H, w, 1), 4), w_eps, 4)
    return _first_difference("cocycle-identity", lhs, rhs, codes.values, H.dim, 4)


def _cocycle_normalization(H, slot, j, k):
    """ω(h⊗k⊗l) = ε(h)ε(k)ε(l) whenever the unit element sits in a slot."""
    acc = H.field.zero
    for u, cu in H.unit_terms():
        args = [j, k]
        args.insert(slot, u)
        acc = acc + cu * H.omega_at(*args)
    return acc, H.eps(j) * H.eps(k)


def _quasi_associativity(H, i, j, k):
    """h₁(k₁l₁)·ω(h₂⊗k₂⊗l₂) = ω(h₁⊗k₁⊗l₁)·(h₂k₂)l₂ on basis triples, as codes."""
    n = H.dim
    mul, put = H._codes.mul, H._codes.put
    delta, products, w = H._coded_delta, H._coded_products, H._coded_omega
    lhs: dict = {}
    rhs: dict = {}
    for a1, a2, ca in delta[i]:
        for b1, b2, cb in delta[j]:
            cab = mul(ca, cb)
            for c1, c2, cc in delta[k]:
                coeff = mul(cab, cc)
                v = w[(a2 * n + b2) * n + c2]
                if v:
                    v = mul(coeff, v)
                    for t, cm in products[b1 * n + c1]:
                        for t2, cm2 in products[a1 * n + t]:
                            put(lhs, (t2,), mul(mul(v, cm), cm2))
                v = w[(a1 * n + b1) * n + c1]
                if v:
                    v = mul(coeff, v)
                    for t, cm in products[a2 * n + b2]:
                        for t2, cm2 in products[t * n + c2]:
                            put(rhs, (t2,), mul(mul(v, cm), cm2))
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

    def holds(axiom, arity, sides, *args, values=None):
        witnesses = [None] if arity is None else basis_tuples(*[n] * arity)
        return check_identity(axiom, witnesses, partial(sides, H, *args), values)

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
        holds("quasi-associativity", 3, _quasi_associativity, values=H._codes.values),
        holds("unit-left", 1, _unit_law, True),
        holds("unit-right", 1, _unit_law, False),
    ))
