"""Comodules and right dual quasi-Hopf bicomodules over a dual quasi-bialgebra.

Index conventions on a d-dimensional space M over an n-dimensional H:

* left coaction  ``rho_l``  (n·d × d):  ρ(e_j) lives in H⊗M, row a·d+i,
* right coaction ``rho_r``  (d·n × d):  ρ(e_j) lives in M⊗H, row i·n+a,
* right action   ``act``    (d × d·n):  e_i·e_a is column i·n+a.

A Hopf bicomodule is an H-bicomodule with a right action that is bicolinear
for the codiagonal structures and associative up to the reassociator twist:

    (m·h)·k = ω⁻¹(m₋₁⊗h₁⊗k₁) m₀·(h₂k₂) ω(m₁⊗h₃⊗k₃).

The free construction T tensors a bicomodule with H on the right; inducing
from a left comodule first installs the trivial right coaction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .dqb import DualQuasiBialgebra, _Codes
from .errors import DimensionMismatch, InvariantViolation
from .linalg import Matrix, _rref, kernel, rank
from .report import Check, Report, basis_tuples, check_identity
from .scalars import Scalar
from .values import Value


class LeftComodule(Value):
    """A left H-comodule: coassociative, counital left coaction."""

    # the __dict__ slot holds the coded view (``_view``)
    __slots__ = ("dim", "rho_l", "__dict__")

    def __init__(self, dim: int, rho_l: Matrix):
        if dim < 1:
            raise DimensionMismatch("comodule dimension must be at least 1")
        if rho_l.cols != dim or rho_l.rows % dim:
            raise DimensionMismatch(
                f"left coaction must be (n*{dim})x{dim}, "
                f"got {rho_l.rows}x{rho_l.cols}")
        self._set(dim, rho_l)

    @property
    def hopf_dim(self) -> int:
        return self.rho_l.rows // self.dim


class Bicomodule(Value):
    """An H-bicomodule (object with compatible left and right coactions)."""

    __slots__ = ("dim", "rho_l", "rho_r", "__dict__")

    def __init__(self, dim: int, rho_l: Matrix, rho_r: Matrix):
        if dim < 1:
            raise DimensionMismatch("bicomodule dimension must be at least 1")
        if rho_l.cols != dim or rho_l.rows % dim:
            raise DimensionMismatch("left coaction shape is inconsistent")
        if rho_r.cols != dim or rho_r.rows % dim:
            raise DimensionMismatch("right coaction shape is inconsistent")
        if rho_l.rows != rho_r.rows:
            raise DimensionMismatch("coactions disagree on the dimension of H")
        self._set(dim, rho_l, rho_r)

    @property
    def hopf_dim(self) -> int:
        return self.rho_l.rows // self.dim


class HopfBicomodule(Value):
    """A right dual quasi-Hopf H-bicomodule: bicomodule plus right action."""

    __slots__ = ("dim", "rho_l", "rho_r", "act", "__dict__")

    def __init__(self, dim: int, rho_l: Matrix, rho_r: Matrix, act: Matrix):
        Bicomodule(dim, rho_l, rho_r)  # reuse the shape checks
        n = rho_l.rows // dim
        if (act.rows, act.cols) != (dim, dim * n):
            raise DimensionMismatch(
                f"action must be {dim}x{dim * n}, got {act.rows}x{act.cols}")
        self._set(dim, rho_l, rho_r, act)

    @property
    def hopf_dim(self) -> int:
        return self.rho_l.rows // self.dim


class Subspace(Value):
    """A subspace of a coordinate space, spanned by the columns of ``basis``.

    The columns may be dependent.  ``rank`` is their number, the dimension
    only when they are independent (as the coinvariant kernel bases are), and
    ``coordinates`` reads the free coordinates of a dependent basis as zero."""

    # the __dict__ slot holds the cached elimination
    __slots__ = ("ambient", "basis", "__dict__")

    def __init__(self, ambient: int, basis: Matrix):
        # basis: ambient x rank, columns are the basis vectors
        self._set(ambient, basis)

    @property
    def rank(self) -> int:
        return self.basis.cols

    @cached_property
    def _elimination(self) -> list[tuple[int, tuple[tuple[int, Scalar], ...]]]:
        """Per pivot column j of the basis, the terms (i, c) with coordinate
        j = Σ c·vector[i]; computed once per subspace.

        Rows I of the basis span its row space, and the inverse of the block
        basis[I, J] on the pivot columns J maps vector[I] to coordinates J."""
        B = self.basis
        rows = [i for i, _ in _rref([dict(B.column_terms(j)) for j in range(B.cols)])]
        # [basis[I, :] | identity] reduces to [R | basis[I, J]⁻¹]
        block = [dict(B.row_terms(i)) | {B.cols + t: B.field.one} for t, i in enumerate(rows)]
        return [(j, tuple((rows[t - B.cols], v) for t, v in row.items() if t >= B.cols))
                for j, row in _rref(block)]

    def coordinates(self, vector: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
        """Coordinates of a vector in this basis, or None if it lies outside.

        The free coordinates of a dependent basis are zero."""
        B = self.basis
        if len(vector) != B.rows:
            raise DimensionMismatch(f"vector has {len(vector)} entries, ambient {B.rows}")
        zero = B.field.zero
        coords = [zero] * B.cols
        for j, terms in self._elimination:
            acc = zero
            for i, e in terms:
                if vector[i]:
                    acc = acc + e * vector[i]
            coords[j] = acc
        # the vector lies in the subspace when the basis maps coords back onto it
        image = [zero] * B.rows
        for j, c in enumerate(coords):
            if c:
                for i, b in B.column_terms(j):
                    image[i] = image[i] + b * c
        if image != list(vector):
            return None
        return tuple(coords)


# -- the coded view of a module ---------------------------------------------------


class _View:
    """A comodule M (left, bi- or Hopf) against H on value codes: M's terms,
    the Sweedler lists and the identity table.  The numbering starts as a copy
    of H's, taken after H's coded structure constants are read, so M's scalars
    and those of maps checked against M stay out of H's numbering."""

    def __init__(self, H: DualQuasiBialgebra, M):
        rho_r, act = getattr(M, "rho_r", None), getattr(M, "act", None)
        # a code of 0 or 1 skips the arithmetic, which would reject a foreign scalar
        for m in (M.rho_l, rho_r, act):
            if m is not None and m.field != H.field:
                raise ValueError(f"scalars from different fields: {H.field!r} vs {m.field!r}")
        self.H, self.dim = H, M.dim
        self.delta, self.products, self.counit = H._coded_delta, H._coded_products, H._coded_counit
        self.omega, self.omega_inv = H._coded_omega, H._coded_omega_inv
        self.codes = _Codes(H._codes.values)
        code = self.codes.code
        d, n = M.dim, H.dim
        # ρ^l(e_j) = Σ c·e_a⊗e_i as lt[j] ∋ (a, i, c); ρ^r(e_j) = Σ c·e_i⊗e_a as
        # rt[j] ∋ (i, a, c); e_i·e_a = Σ c·e_j as at[i·n+a] ∋ (j, c)
        self.lt = tuple(tuple((row // d, row % d, code(v)) for row, v in M.rho_l.column_terms(j))
                        for j in range(d))
        self.rt = None if rho_r is None else tuple(
            tuple((row // n, row % n, code(v)) for row, v in rho_r.column_terms(j))
            for j in range(d))
        self.at = None if act is None else tuple(
            tuple((j, code(v)) for j, v in act.column_terms(c)) for c in range(d * n))
        self.units = tuple((u, code(c)) for u, c in H.unit_terms())
        self.identities = _identities(self)

    def encode(self, terms):
        """(index, scalar) terms with each scalar replaced by its code."""
        return [(i, self.codes.code(v)) for i, v in terms]

    def power(self, a: int, k: int) -> list:
        """Terms (index_tuple, code) of the k-fold comultiplication of e_a."""
        return [(tup, self.codes.code(c)) for tup, c in self.H.delta_power(a, k)]

    def sweedler(self, nleft: int, nright: int) -> list:
        """Per basis j of M: terms (left_tuple, mid, right_tuple, code) of
        m₋ₗ⊗…⊗m₋₁ ⊗ m₀ ⊗ m₁⊗…⊗m_r at m = e_j, as (H⊗ρ^r)ρ^l, nright ≥ 1."""
        mul, power = self.codes.mul, self.power
        out = []
        for j in range(self.dim):
            mids = ([((), j, 1)] if nleft == 0 else
                    [(tup, j2, mul(c, c2)) for a, j2, c in self.lt[j]
                     for tup, c2 in power(a, nleft)])
            out.append([(ltup, j3, rtup, mul(mul(c, c2), c3))
                        for ltup, j2, c in mids for j3, b, c2 in self.rt[j2]
                        for rtup, c3 in power(b, nright)])
        return out

    @cached_property
    def splits(self) -> list:
        """Per basis a of H: terms ((a₁, a₂, a₃), code) of Δ²(e_a)."""
        return [self.power(a, 3) for a in range(self.H.dim)]

    @cached_property
    def heads(self) -> list:
        """Per j·n+a, the (j, a) half of ω⁻¹(m₋₁⊗a₁⊗b₁) m₀⊗a₂b₂ ω(m₁⊗a₃⊗b₃)
        at m = e_j: the Sweedler terms of e_j times Δ²(a), as (ω⁻¹ index head,
        ω index head, a₂ head, m₀, code)."""
        n, mul = self.H.dim, self.codes.mul
        return [[((x * n + a1) * n, (y * n + a3) * n, a2 * n, j2, mul(c, ca))
                 for (x,), j2, (y,), c in terms for (a1, a2, a3), ca in self.splits[a]]
                for terms in self.sweedler(1, 1) for a in range(n)]

    def matrix(self, rows: int, cols: int, terms) -> Matrix:
        """The matrix whose entry (i, j) sums the values of the codes given at (i, j)."""
        values = self.codes.values
        return Matrix.from_terms(self.H.field, rows, cols,
                                 ((i, j, values[c]) for i, j, c in terms))


def _view(H: DualQuasiBialgebra, M) -> _View:
    """M's coded view against H, built on first use and kept on M."""
    view = M.__dict__.get("_view")
    if view is None or view.H is not H:
        view = M.__dict__["_view"] = _View(H, M)
    return view


def _dimension_check(H: DualQuasiBialgebra, obj) -> Check | None:
    if obj.hopf_dim != H.dim:
        return Check("dimensions", False, None,
                     f"coactions over H of dimension {obj.hopf_dim}",
                     f"H has dimension {H.dim}")
    if obj.rho_l.field != H.field:
        return Check("dimensions", False, None,
                     f"structure over {obj.rho_l.field!r}", f"H over {H.field!r}")
    return None


# -- validation -----------------------------------------------------------------


def _identities(view: _View) -> list:
    """The defining identities of the view's left comodule (ρ^l), bicomodule
    (and ρ^r) or Hopf bicomodule (and the action), in report order, as
    (axiom, witness dimensions, sides).  The sides take a basis index of the
    module first and run on the view's codes."""
    d, n = view.dim, view.H.dim
    mul, put = view.codes.mul, view.codes.put
    delta, products, counit = view.delta, view.products, view.counit
    lt, rt, at = view.lt, view.rt, view.at

    def left_coassociativity(j):
        lhs: dict = {}
        rhs: dict = {}
        for a, i, c in lt[j]:
            for a1, a2, c2 in delta[a]:
                put(lhs, (a1, a2, i), mul(c, c2))
            for b, i2, c2 in lt[i]:
                put(rhs, (a, b, i2), mul(c, c2))
        return lhs, rhs

    def left_counit(j):
        acc: dict = {}
        for a, i, c in lt[j]:
            put(acc, (i,), mul(c, counit[a]))
        return acc, {(j,): 1}

    identities = [("left-coassociativity", (d,), left_coassociativity),
                  ("left-counit", (d,), left_counit)]
    if rt is None:
        return identities

    def right_coassociativity(j):
        lhs: dict = {}
        rhs: dict = {}
        for i, a, c in rt[j]:
            for a1, a2, c2 in delta[a]:
                put(lhs, (i, a1, a2), mul(c, c2))
            for i2, b, c2 in rt[i]:
                put(rhs, (i2, b, a), mul(c, c2))
        return lhs, rhs

    def right_counit(j):
        acc: dict = {}
        for i, a, c in rt[j]:
            put(acc, (i,), mul(c, counit[a]))
        return acc, {(j,): 1}

    def compatibility(j):
        """(H⊗ρ^r)ρ^l = (ρ^l⊗H)ρ^r : M → H⊗M⊗H"""
        lhs: dict = {}
        rhs: dict = {}
        for a, i, c in lt[j]:
            for i2, b, c2 in rt[i]:
                put(lhs, (a, i2, b), mul(c, c2))
        for i, b, c in rt[j]:
            for a, i2, c2 in lt[i]:
                put(rhs, (a, i2, b), mul(c, c2))
        return lhs, rhs

    identities += [("right-coassociativity", (d,), right_coassociativity),
                   ("right-counit", (d,), right_counit),
                   ("bicomodule-compatibility", (d,), compatibility)]
    if at is None:
        return identities

    def action_unit(j):
        acc: dict = {}
        for u, cu in view.units:
            for j2, c in at[j * n + u]:
                put(acc, (j2,), mul(cu, c))
        return acc, {(j,): 1}

    def left_colinear(j, a):
        """ρ^l(m·h) = m₋₁h₁ ⊗ m₀·h₂"""
        lhs: dict = {}
        rhs: dict = {}
        for j2, c in at[j * n + a]:
            for x, i, c2 in lt[j2]:
                put(lhs, (x, i), mul(c, c2))
        for x, i, c in lt[j]:
            for a1, a2, c2 in delta[a]:
                for y, c3 in products[x * n + a1]:
                    c123 = mul(mul(c, c2), c3)
                    for i2, c4 in at[i * n + a2]:
                        put(rhs, (y, i2), mul(c123, c4))
        return lhs, rhs

    def right_colinear(j, a):
        """ρ^r(m·h) = m₀·h₁ ⊗ m₁h₂"""
        lhs: dict = {}
        rhs: dict = {}
        for j2, c in at[j * n + a]:
            for i, b, c2 in rt[j2]:
                put(lhs, (i, b), mul(c, c2))
        for i, b, c in rt[j]:
            for a1, a2, c2 in delta[a]:
                for i2, c3 in at[i * n + a1]:
                    c123 = mul(mul(c, c2), c3)
                    for y, c4 in products[b * n + a2]:
                        put(rhs, (i2, y), mul(c123, c4))
        return lhs, rhs

    heads, splits, w, w_inv = view.heads, view.splits, view.omega, view.omega_inv

    def quasi_associativity(j, a, b):
        """(m·h)·k = ω⁻¹(m₋₁⊗h₁⊗k₁) m₀·(h₂k₂) ω(m₁⊗h₃⊗k₃)"""
        lhs: dict = {}
        rhs: dict = {}
        for j2, c in at[j * n + a]:
            for j3, c2 in at[j2 * n + b]:
                put(lhs, (j3,), mul(c, c2))
        for inv_head, w_head, a2_head, j2, c in heads[j * n + a]:
            for (b1, b2, b3), cb in splits[b]:
                v = w_inv[inv_head + b1]
                if not v:
                    continue
                v2 = w[w_head + b3]
                if not v2:
                    continue
                coeff = mul(mul(mul(c, cb), v), v2)
                for t, cm in products[a2_head + b2]:
                    ccm = mul(coeff, cm)
                    for j3, c3 in at[j2 * n + t]:
                        put(rhs, (j3,), mul(ccm, c3))
        return lhs, rhs

    return identities + [
        ("action-unit", (d,), action_unit),
        ("action-left-colinear", (d, n), left_colinear),
        ("action-right-colinear", (d, n), right_colinear),
        ("action-quasi-associativity", (d, n, n), quasi_associativity)]


def _report(view: _View, identities) -> Report:
    values = view.codes.values
    return Report(tuple(check_identity(axiom, basis_tuples(*dims), sides, values)
                        for axiom, dims, sides in identities))


def _validate(H: DualQuasiBialgebra, M) -> Report:
    bad = _dimension_check(H, M)
    if bad:
        return Report((bad,))
    view = _view(H, M)
    return _report(view, view.identities)


def validate_left_comodule(H: DualQuasiBialgebra, V: LeftComodule) -> Report:
    """Coassociativity and counitality of a left coaction, on every basis vector."""
    return _validate(H, V)


def validate_bicomodule(H: DualQuasiBialgebra, M: HopfBicomodule) -> Report:
    """Every defining identity of a right dual quasi-Hopf H-bicomodule.

    Order: dimensions, both coaction axioms, bicomodule compatibility, action
    unit, left/right colinearity of the action, twisted associativity.
    """
    return _validate(H, M)


# -- constructions --------------------------------------------------------------


def _require_valid_coactions(H: DualQuasiBialgebra, M: Bicomodule) -> _View:
    bad = _dimension_check(H, M)
    if bad is not None:
        raise DimensionMismatch(bad.lhs or "inconsistent dimensions")
    view = _view(H, M)
    rep = _report(view, view.identities[:5])  # the coaction identities come first
    if not rep.ok:
        raise InvariantViolation(f"input coactions invalid: {rep.failures[0].axiom}")
    return view


def free_hopf_bicomodule(H: DualQuasiBialgebra, M: Bicomodule) -> HopfBicomodule:
    """Tensor a bicomodule with H on the right: the free Hopf bicomodule T(M).

    Structure on M⊗H (basis (i, a) ↦ i·n+a):

        ρ^l(m⊗h) = m₋₁h₁ ⊗ (m₀⊗h₂)
        ρ^r(m⊗h) = (m₀⊗h₁) ⊗ m₁h₂
        (m⊗h)·l = ω⁻¹(m₋₁⊗h₁⊗l₁) m₀⊗h₂l₂ ω(m₁⊗h₃⊗l₃)
    """
    view = _require_valid_coactions(H, M)
    d, n = M.dim, H.dim
    D = d * n
    mul, delta, products = view.codes.mul, view.delta, view.products
    rho_l = ((y * D + j * n + a2, i * n + a, mul(mul(c1, c2), c3))
             for i in range(d) for a in range(n) for x, j, c1 in view.lt[i]
             for a1, a2, c2 in delta[a] for y, c3 in products[x * n + a1])
    rho_r = (((j * n + a1) * n + y, i * n + a, mul(mul(c1, c2), c3))
             for i in range(d) for a in range(n) for j, b, c1 in view.rt[i]
             for a1, a2, c2 in delta[a] for y, c3 in products[b * n + a2])
    # (m⊗h)·l completes the (m, h) halves of the twisted product over l
    act = ((j * n + t, col * n + l, mul(mul(mul(mul(c, cl), v), v2), cm))
           for col, heads in enumerate(view.heads)
           for inv_head, w_head, a2_head, j, c in heads
           for l in range(n) for (l1, l2, l3), cl in view.splits[l]
           if (v := view.omega_inv[inv_head + l1]) and (v2 := view.omega[w_head + l3])
           for t, cm in products[a2_head + l2])
    return HopfBicomodule(D, view.matrix(n * D, D, rho_l), view.matrix(D * n, D, rho_r),
                          view.matrix(D, D * n, act))


def trivial_right_coaction(H: DualQuasiBialgebra, dim: int) -> Matrix:
    """The coaction v ↦ v⊗1_H as a (dim·n)×dim matrix."""
    return Matrix.identity(H.field, dim).kron(H.unit)


def trivial_left_coaction(H: DualQuasiBialgebra, dim: int) -> Matrix:
    """The coaction v ↦ 1_H⊗v as an (n·dim)×dim matrix."""
    return H.unit.kron(Matrix.identity(H.field, dim))


def induce_bicomodule(H: DualQuasiBialgebra, V: LeftComodule) -> HopfBicomodule:
    """Induce a Hopf bicomodule from a left comodule: V⊗H with

        ρ^l(v⊗h) = v₋₁h₁ ⊗ (v₀⊗h₂),  ρ^r(v⊗h) = (v⊗h₁) ⊗ h₂,
        (v⊗h)·l = ω⁻¹(v₋₁⊗h₁⊗l₁) v₀⊗h₂l₂.

    Implemented as the free construction on V with trivial right coaction.
    """
    rep = validate_left_comodule(H, V)
    if not rep.ok:
        raise InvariantViolation(f"input comodule invalid: {rep.failures[0].axiom}")
    base = Bicomodule(V.dim, V.rho_l, trivial_right_coaction(H, V.dim))
    return free_hopf_bicomodule(H, base)


def regular_bicomodule(H: DualQuasiBialgebra) -> Bicomodule:
    """H over itself, both coactions given by the comultiplication."""
    return Bicomodule(H.dim, H.delta, H.delta)


def hhat(H: DualQuasiBialgebra) -> HopfBicomodule:
    """The free Hopf bicomodule on H with trivial left coaction and
    comultiplication right coaction; underlying space H⊗H with

        ρ^r(h⊗k) = (h₁⊗k₁) ⊗ h₂k₂,  ρ^l(h⊗k) = k₁ ⊗ (h⊗k₂),
        (h⊗k)·l = h₁ ⊗ k₁l₁ ω(h₂⊗k₂⊗l₂).
    """
    base = Bicomodule(H.dim, trivial_left_coaction(H, H.dim), H.delta)
    return free_hopf_bicomodule(H, base)


# -- coinvariants and the adjunction maps ---------------------------------------


def coinvariants(H: DualQuasiBialgebra, M: HopfBicomodule | Bicomodule) -> Subspace:
    """The subspace {m : ρ^r(m) = m⊗1_H}, via an exact kernel computation."""
    basis_vectors = kernel(M.rho_r - trivial_right_coaction(H, M.dim))
    return Subspace(M.dim, Matrix.from_terms(H.field, M.dim, len(basis_vectors), (
        (i, col, v) for col, vec in enumerate(basis_vectors) for i, v in enumerate(vec) if v)))


def coinvariant_comodule(H: DualQuasiBialgebra, M: HopfBicomodule | Bicomodule) -> LeftComodule:
    """The coinvariants as a left comodule, in coinvariant coordinates.

    Raises InvariantViolation when the left coaction fails to restrict."""
    coinv = coinvariants(H, M)
    d, n, r = M.dim, H.dim, coinv.rank
    if r == 0:
        raise ValueError("the coinvariants are zero; there is no comodule to build")
    view = _view(H, M)
    mul, put, values = view.codes.mul, view.codes.put, view.codes.values
    terms = []
    for col in range(r):
        image: dict = {}
        for i, v in view.encode(coinv.basis.column_terms(col)):
            for a, i2, c in view.lt[i]:
                put(image, a * d + i2, mul(v, c))
        for a in range(n):
            coords = coinv.coordinates([values[image.get(a * d + i, 0)] for i in range(d)])
            if coords is None:
                raise InvariantViolation(
                    "left coaction does not restrict to the coinvariants")
            terms.extend((a * r + beta, col, v) for beta, v in enumerate(coords) if v)
    return LeftComodule(r, Matrix.from_terms(H.field, n * r, r, terms))


def adjunction_counit(H: DualQuasiBialgebra, M: HopfBicomodule,
                      coinv: Subspace | None = None) -> Matrix:
    """The evaluation map M^coH⊗H → M, x⊗h ↦ x·h, on coinvariant coordinates.

    Verifies that the left coaction restricts to a comodule on the
    coinvariants and that the map is a morphism of Hopf bicomodules out of
    the bicomodule induced from it: left and right colinear and right
    linear.  Each is M's own identity summed over a coinvariant basis
    vector x: ρ^r(x) = x⊗1_H turns bicomodule compatibility into
    x₋₁ ⊗ ρ^r(x₀) = x₋₁ ⊗ x₀ ⊗ 1_H, the right colinearity of the action
    into ρ^r(x·h) = x·h₁ ⊗ h₂, and its twisted associativity into
    (x·h)·l = ω⁻¹(x₋₁⊗h₁⊗l₁) x₀·(h₂l₂) once the coaction restricts.
    Violations raise InvariantViolation.
    """
    if coinv is None:
        coinv = coinvariants(H, M)
    d, n, r = M.dim, H.dim, coinv.rank
    view = _view(H, M)
    mul, put = view.codes.mul, view.codes.put
    xs = [view.encode(coinv.basis.column_terms(alpha)) for alpha in range(r)]
    eps = view.matrix(d, r * n, (
        (j, alpha * n + a, mul(v, c))
        for alpha in range(r) for a in range(n)
        for i, v in xs[alpha] for j, c in view.at[i * n + a]))
    identities = {axiom: (dims, sides) for axiom, dims, sides in view.identities}

    def at_coinvariants(sides):
        """sides at the α-th coinvariant vector: Σ v·sides(i, …) over its terms (i, v)."""
        def summed(alpha, *rest):
            lhs: dict = {}
            rhs: dict = {}
            for i, v in xs[alpha]:
                for acc, side in zip((lhs, rhs), sides(i, *rest)):
                    for key, c in side.items():
                        put(acc, key, mul(v, c))
            return lhs, rhs
        return summed

    for axiom, message in (
            ("bicomodule-compatibility", "left coaction does not restrict to the coinvariants"),
            ("left-coassociativity", "input comodule invalid: left-coassociativity"),
            ("left-counit", "input comodule invalid: left-counit"),
            ("action-left-colinear", "evaluation map is not left colinear"),
            ("action-right-colinear", "evaluation map is not right colinear"),
            ("action-quasi-associativity", "evaluation map is not right linear")):
        dims, sides = identities[axiom]
        witnesses = basis_tuples(r, *dims[1:])
        if not check_identity(axiom, witnesses, at_coinvariants(sides), view.codes.values).passed:
            raise InvariantViolation(message)
    return eps


def adjunction_unit(H: DualQuasiBialgebra, V: LeftComodule) -> Matrix:
    """The map V → (V⊗H)^coH, v ↦ v⊗1_H, in coinvariant coordinates.

    Always bijective; a rank defect raises InvariantViolation."""
    FV = induce_bicomodule(H, V)
    coinv = coinvariants(H, FV)
    d, n, r = V.dim, H.dim, coinv.rank
    terms = []
    for i in range(d):
        vec = [H.field.zero] * (d * n)
        for u, cu in H.unit_terms():
            vec[i * n + u] = cu
        coords = coinv.coordinates(vec)
        if coords is None:
            raise InvariantViolation("v⊗1 is not coinvariant; upstream data is corrupt")
        terms.extend((beta, i, v) for beta, v in enumerate(coords) if v)
    eta = Matrix.from_terms(H.field, r, d, terms)
    if r != d or rank(eta) != d:
        raise InvariantViolation(
            f"unit of the adjunction is not bijective (rank {rank(eta)}, dim {d})")
    return eta
