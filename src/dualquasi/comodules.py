"""Comodules and right dual quasi-Hopf bicomodules over a dual quasi-bialgebra.

Index conventions on a d-dimensional space M over an n-dimensional H:

* left coaction  ``rho_l``  (n·d × d):  ρ(e_j) lives in H⊗M, row a·d+i,
* right coaction ``rho_r``  (d·n × d):  ρ(e_j) lives in M⊗H, row i·n+a,
* right action   ``act``    (d × d·n):  e_i·e_a is column i·n+a.

A Hopf bicomodule is an H-bicomodule with a right action that is bicolinear
for the codiagonal structures and associative up to the reassociator twist:

    (m·h)·k = ω⁻¹(m₋₁⊗h₁⊗k₁) m₀·(h₂k₂) ω(m₁⊗h₃⊗k₃).

The free construction T tensors a bicomodule with H on the right; inducing
from a left comodule first installs the trivial right coaction.  The coded
view and the identity table are in ``coded``, the adjunction maps in
``adjunction``.
"""

from __future__ import annotations

from .coded import _View, _dimension_check, _report, _validate, _view
from .dqb import DualQuasiBialgebra
from .elimination import Subspace
from .errors import DimensionMismatch, InvariantViolation
from .linalg import Matrix
from .report import Report
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


# -- validation -----------------------------------------------------------------


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
           for col in range(D) for inv_head, w_head, a2_head, j, c in view.half(col)
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


# -- coinvariants ---------------------------------------------------------------


def coinvariants(H: DualQuasiBialgebra, M: HopfBicomodule | Bicomodule) -> Subspace:
    """The subspace {m : ρ^r(m) = m⊗1_H}, via an exact kernel computation
    made once per (H, M) and kept on M's coded view."""
    view = _view(H, M)
    if view.coinvariants is None:
        view.coinvariants = Subspace.null_space(M.rho_r - trivial_right_coaction(H, M.dim))
    return view.coinvariants
