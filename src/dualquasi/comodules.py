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

from .dqb import DualQuasiBialgebra
from .errors import DimensionMismatch, InvariantViolation
from .linalg import Matrix, _rref, kernel, rank
from .report import Check, Report, basis_tuples, check_identity
from .scalars import Scalar
from .values import Value


class LeftComodule(Value):
    """A left H-comodule: coassociative, counital left coaction."""

    __slots__ = ("dim", "rho_l")

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

    __slots__ = ("dim", "rho_l", "rho_r")

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

    __slots__ = ("dim", "rho_l", "rho_r", "act")

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
    """A subspace of a coordinate space, by an explicit independent basis."""

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


# -- sparse structure-constant views ------------------------------------------


def _left_terms(rho_l: Matrix, d: int):
    """Per basis j: terms (a, i, c) with ρ(e_j) = Σ c·(e_a ⊗ e_i)."""
    return tuple(tuple((row // d, row % d, v) for row, v in rho_l.column_terms(j))
                 for j in range(d))


def _right_terms(rho_r: Matrix, d: int, n: int):
    """Per basis j: terms (i, a, c) with ρ(e_j) = Σ c·(e_i ⊗ e_a)."""
    return tuple(tuple((row // n, row % n, v) for row, v in rho_r.column_terms(j))
                 for j in range(d))


def _act_terms(act: Matrix, d: int, n: int):
    """Per (i, a): terms (j, c) with e_i·e_a = Σ c·e_j."""
    return tuple(tuple(act.column_terms(c)) for c in range(d * n))


def _coded(terms, code):
    """Per-index terms with the trailing coefficient of each replaced by its code."""
    return tuple(tuple((*t[:-1], code(t[-1])) for t in row) for row in terms)


def _sweedler(H: DualQuasiBialgebra, lterms, rterms, j: int, nleft: int, nright: int):
    """Iterated bicoaction of basis vector j.

    Yields (left_tuple, mid, right_tuple, coeff) for
    m₋ₗ⊗…⊗m₋₁ ⊗ m₀ ⊗ m₁⊗…⊗m_r; well-defined on valid bicomodules."""
    if nleft == 0:
        mids = [((), j, H.field.one)]
    else:
        mids = []
        for a, j2, c in lterms[j]:
            for tup, c2 in H.delta_power(a, nleft):
                mids.append((tup, j2, c * c2))
    out = []
    for ltup, j2, c in mids:
        if nright == 0:
            out.append((ltup, j2, (), c))
            continue
        for j3, b, c2 in rterms[j2]:
            for tupr, c3 in H.delta_power(b, nright):
                out.append((ltup, j3, tupr, c * c2 * c3))
    return out


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


def _identities(H: DualQuasiBialgebra, d: int, rho_l: Matrix,
                rho_r: Matrix | None = None, act: Matrix | None = None) -> list:
    """The defining identities of a d-dimensional left comodule (ρ^l), bicomodule
    (and ρ^r) or Hopf bicomodule (and the action), in report order, as
    (axiom, witness dimensions, sides).  The sides take a basis index of the
    module first and run on codes of H's numbering."""
    # a code of 0 or 1 skips the arithmetic, which would reject a foreign scalar
    for m in (rho_l, rho_r, act):
        if m is not None and m.field != H.field:
            raise ValueError(f"scalars from different fields: {H.field!r} vs {m.field!r}")
    n = H.dim
    code, mul, put = H._codes.code, H._codes.mul, H._codes.put
    delta, products, counit = H._coded_delta, H._coded_products, H._coded_counit
    scalar_lt = _left_terms(rho_l, d)
    lt = _coded(scalar_lt, code)

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
    if rho_r is None:
        return identities
    scalar_rt = _right_terms(rho_r, d, n)
    rt = _coded(scalar_rt, code)

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
    if act is None:
        return identities
    at = _coded(_act_terms(act, d, n), code)
    units = [(u, code(c)) for u, c in H.unit_terms()]

    def action_unit(j):
        acc: dict = {}
        for u, cu in units:
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

    sweedlers = [[(ltup[0], j2, rtup[0], code(c))
                  for ltup, j2, rtup, c in _sweedler(H, scalar_lt, scalar_rt, j, 1, 1)]
                 for j in range(d)]
    splits = [[(tup, code(c)) for tup, c in H.delta_power(a, 3)] for a in range(n)]
    w, w_inv = H._coded_omega, H._coded_omega_inv

    def quasi_associativity(j, a, b):
        """(m·h)·k = ω⁻¹(m₋₁⊗h₁⊗k₁) m₀·(h₂k₂) ω(m₁⊗h₃⊗k₃)"""
        lhs: dict = {}
        rhs: dict = {}
        for j2, c in at[j * n + a]:
            for j3, c2 in at[j2 * n + b]:
                put(lhs, (j3,), mul(c, c2))
        for x, j2, y, c in sweedlers[j]:
            for (a1, a2, a3), ca in splits[a]:
                for (b1, b2, b3), cb in splits[b]:
                    v = w_inv[(x * n + a1) * n + b1]
                    if not v:
                        continue
                    v2 = w[(y * n + a3) * n + b3]
                    if not v2:
                        continue
                    coeff = mul(mul(mul(mul(c, ca), cb), v), v2)
                    for t, cm in products[a2 * n + b2]:
                        ccm = mul(coeff, cm)
                        for j3, c3 in at[j2 * n + t]:
                            put(rhs, (j3,), mul(ccm, c3))
        return lhs, rhs

    return identities + [
        ("action-unit", (d,), action_unit),
        ("action-left-colinear", (d, n), left_colinear),
        ("action-right-colinear", (d, n), right_colinear),
        ("action-quasi-associativity", (d, n, n), quasi_associativity)]


def _report(H: DualQuasiBialgebra, identities) -> Report:
    values = H._codes.values
    return Report(tuple(check_identity(axiom, basis_tuples(*dims), sides, values)
                        for axiom, dims, sides in identities))


def validate_left_comodule(H: DualQuasiBialgebra, V: LeftComodule) -> Report:
    """Coassociativity and counitality of a left coaction, on every basis vector."""
    bad = _dimension_check(H, V)
    if bad:
        return Report((bad,))
    return _report(H, _identities(H, V.dim, V.rho_l))


def validate_bicomodule(H: DualQuasiBialgebra, M: HopfBicomodule) -> Report:
    """Every defining identity of a right dual quasi-Hopf H-bicomodule.

    Order: dimensions, both coaction axioms, bicomodule compatibility, action
    unit, left/right colinearity of the action, twisted associativity.
    """
    bad = _dimension_check(H, M)
    if bad:
        return Report((bad,))
    return _report(H, _identities(H, M.dim, M.rho_l, M.rho_r, M.act))


# -- constructions --------------------------------------------------------------


def _require_valid_coactions(H: DualQuasiBialgebra, M: Bicomodule) -> None:
    bad = _dimension_check(H, M)
    if bad is not None:
        raise DimensionMismatch(bad.lhs or "inconsistent dimensions")
    rep = _report(H, _identities(H, M.dim, M.rho_l, M.rho_r))
    if not rep.ok:
        raise InvariantViolation(f"input coactions invalid: {rep.failures[0].axiom}")


def free_hopf_bicomodule(H: DualQuasiBialgebra, M: Bicomodule) -> HopfBicomodule:
    """Tensor a bicomodule with H on the right: the free Hopf bicomodule T(M).

    Structure on M⊗H (basis (i, a) ↦ i·n+a):

        ρ^l(m⊗h) = m₋₁h₁ ⊗ (m₀⊗h₂)
        ρ^r(m⊗h) = (m₀⊗h₁) ⊗ m₁h₂
        (m⊗h)·l = ω⁻¹(m₋₁⊗h₁⊗l₁) m₀⊗h₂l₂ ω(m₁⊗h₃⊗l₃)
    """
    _require_valid_coactions(H, M)
    d, n = M.dim, H.dim
    D = d * n
    lt = _left_terms(M.rho_l, d)
    rt = _right_terms(M.rho_r, d, n)

    # (row, column, value) terms; equal positions add up in from_terms
    rho_l, rho_r, act = [], [], []
    for i in range(d):
        for a in range(n):
            col = i * n + a
            for x, j, c1 in lt[i]:
                for (a1, a2), c2 in H.delta_power(a, 2):
                    for y, c3 in H.mul_terms(x, a1):
                        rho_l.append((y * D + (j * n + a2), col, c1 * c2 * c3))
            for j, b, c1 in rt[i]:
                for (a1, a2), c2 in H.delta_power(a, 2):
                    for y, c3 in H.mul_terms(b, a2):
                        rho_r.append(((j * n + a1) * n + y, col, c1 * c2 * c3))
    sweedlers = [_sweedler(H, lt, rt, i, 1, 1) for i in range(d)]
    for i in range(d):
        for a in range(n):
            for l in range(n):
                col = (i * n + a) * n + l
                for ltup, j, rtup, c in sweedlers[i]:
                    x, y = ltup[0], rtup[0]
                    for atup, ca in H.delta_power(a, 3):
                        for ltup2, cl in H.delta_power(l, 3):
                            w = H.omega_inv_at(x, atup[0], ltup2[0])
                            if not w:
                                continue
                            w2 = H.omega_at(y, atup[2], ltup2[2])
                            if not w2:
                                continue
                            coeff = c * ca * cl * w * w2
                            for t, cm in H.mul_terms(atup[1], ltup2[1]):
                                act.append((j * n + t, col, coeff * cm))
    return HopfBicomodule(
        D,
        Matrix.from_terms(H.field, n * D, D, rho_l),
        Matrix.from_terms(H.field, D * n, D, rho_r),
        Matrix.from_terms(H.field, D, D * n, act),
    )


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
    A = M.rho_r - trivial_right_coaction(H, M.dim)
    basis_vectors = kernel(A)
    d = M.dim
    entries = [H.field.zero] * (d * len(basis_vectors))
    for col, vec in enumerate(basis_vectors):
        for i, v in enumerate(vec):
            entries[i * len(basis_vectors) + col] = v
    return Subspace(d, Matrix(H.field, d, len(basis_vectors), entries))


def coinvariant_comodule(H: DualQuasiBialgebra, M: HopfBicomodule | Bicomodule,
                         coinv: Subspace | None = None) -> LeftComodule:
    """The coinvariants as a left comodule, in coinvariant coordinates.

    Raises InvariantViolation when the left coaction fails to restrict."""
    if coinv is None:
        coinv = coinvariants(H, M)
    d, n, r = M.dim, H.dim, coinv.rank
    if r == 0:
        raise ValueError("the coinvariants are zero; there is no comodule to build")
    lt = _left_terms(M.rho_l, d)
    zero = H.field.zero
    entries = [zero] * (n * r * r)
    for col in range(r):
        image = [zero] * (n * d)
        for i, v in coinv.basis.column_terms(col):
            for a, i2, c in lt[i]:
                image[a * d + i2] = image[a * d + i2] + v * c
        for a in range(n):
            coords = coinv.coordinates(image[a * d:(a + 1) * d])
            if coords is None:
                raise InvariantViolation(
                    "left coaction does not restrict to the coinvariants")
            for beta, v in enumerate(coords):
                if v:
                    entries[(a * r + beta) * r + col] = v
    return LeftComodule(r, Matrix(H.field, n * r, r, entries))


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
    at = _act_terms(M.act, d, n)
    eps = Matrix.from_terms(H.field, d, r * n, [
        (j, alpha * n + a, v * c)
        for alpha in range(r) for a in range(n)
        for i, v in coinv.basis.column_terms(alpha) for j, c in at[i * n + a]])

    code, mul, put = H._codes.code, H._codes.mul, H._codes.put
    xs = [[(i, code(v)) for i, v in coinv.basis.column_terms(alpha)] for alpha in range(r)]
    identities = {axiom: (dims, sides) for axiom, dims, sides
                  in _identities(H, d, M.rho_l, M.rho_r, M.act)}

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
        if not check_identity(axiom, witnesses, at_coinvariants(sides), H._codes.values).passed:
            raise InvariantViolation(message)
    return eps


def adjunction_unit(H: DualQuasiBialgebra, V: LeftComodule) -> Matrix:
    """The map V → (V⊗H)^coH, v ↦ v⊗1_H, in coinvariant coordinates.

    Always bijective; a rank defect raises InvariantViolation."""
    FV = induce_bicomodule(H, V)
    coinv = coinvariants(H, FV)
    d, n = V.dim, H.dim
    zero = H.field.zero
    columns = []
    for i in range(d):
        vec = [zero] * (d * n)
        for u, cu in H.unit_terms():
            vec[i * n + u] = cu
        coords = coinv.coordinates(vec)
        if coords is None:
            raise InvariantViolation("v⊗1 is not coinvariant; upstream data is corrupt")
        columns.append(coords)
    r = coinv.rank
    entries = [zero] * (r * d)
    for col, coords in enumerate(columns):
        for beta, v in enumerate(coords):
            entries[beta * d + col] = v
    eta = Matrix(H.field, r, d, entries)
    if r != d or rank(eta) != d:
        raise InvariantViolation(
            f"unit of the adjunction is not bijective (rank {rank(eta)}, dim {d})")
    return eta
