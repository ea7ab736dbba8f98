"""The adjunction between left comodules and Hopf bicomodules: the
coinvariants as a left comodule, the evaluation map M^coH⊗H → M (the
counit) and the unit V → (V⊗H)^coH, each verified as it is built."""

from __future__ import annotations

from .coded import _view
from .comodules import (Bicomodule, HopfBicomodule, LeftComodule, coinvariants,
                        induce_bicomodule, trivial_right_coaction)
from .dqb import DualQuasiBialgebra
from .elimination import rank
from .errors import InvariantViolation
from .linalg import Matrix
from .report import basis_tuples, check_identity


def coinvariant_comodule(H: DualQuasiBialgebra, M: HopfBicomodule | Bicomodule) -> LeftComodule:
    """The coinvariants as a left comodule, in coinvariant coordinates.

    Raises InvariantViolation when the left coaction fails to restrict."""
    coinv = coinvariants(H, M)
    d, n, r = M.dim, H.dim, coinv.rank
    if r == 0:
        raise ValueError("the coinvariants are zero; there is no comodule to build")
    view = _view(H, M)
    mul = view.codes.mul
    # column a·r + α holds the e_a component of ρ^l of the α-th basis vector
    images = view.matrix(d, n * r, (
        (i2, a * r + alpha, mul(v, c))
        for alpha in range(r) for i, v in view.encode(coinv.basis.column_terms(alpha))
        for a, i2, c in view.lt[i]))
    coords = coinv.coordinates(images)
    if coords is None:
        raise InvariantViolation("left coaction does not restrict to the coinvariants")
    return LeftComodule(r, Matrix.from_terms(H.field, n * r, r, (
        (col // r * r + beta, col % r, v)
        for beta in range(r) for col, v in coords.row_terms(beta))))


def adjunction_counit(H: DualQuasiBialgebra, M: HopfBicomodule) -> Matrix:
    """The evaluation map M^coH⊗H → M, x⊗h ↦ x·h, on coinvariant coordinates.

    Verifies that the left coaction restricts to a comodule on the
    coinvariants and that the map is a morphism of Hopf bicomodules out of
    the bicomodule induced from it: left and right colinear and right
    linear.  Each is M's own identity summed over a coinvariant basis
    vector x: ρ^r(x) = x⊗1_H turns bicomodule compatibility into
    x₋₁ ⊗ ρ^r(x₀) = x₋₁ ⊗ x₀ ⊗ 1_H, the right colinearity of the action
    into ρ^r(x·h) = x·h₁ ⊗ h₂, and its twisted associativity into
    (x·h)·l = ω⁻¹(x₋₁⊗h₁⊗l₁) x₀·(h₂l₂) once the coaction restricts.
    Violations raise InvariantViolation.  The verified map is kept on M's
    coded view, so it is built once per (H, M).
    """
    view = _view(H, M)
    if view.evaluation is not None:
        return view.evaluation
    coinv = coinvariants(H, M)
    d, n, r = M.dim, H.dim, coinv.rank
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
    view.evaluation = eps
    return eps


def adjunction_unit(H: DualQuasiBialgebra, V: LeftComodule) -> Matrix:
    """The map V → (V⊗H)^coH, v ↦ v⊗1_H, in coinvariant coordinates.

    Always bijective; a rank defect raises InvariantViolation."""
    FV = induce_bicomodule(H, V)
    coinv = coinvariants(H, FV)
    d, r = V.dim, coinv.rank
    eta = coinv.coordinates(trivial_right_coaction(H, d))
    if eta is None:
        raise InvariantViolation("v⊗1 is not coinvariant; upstream data is corrupt")
    eta_rank = rank(eta)
    if r != d or eta_rank != d:
        raise InvariantViolation(
            f"unit of the adjunction is not bijective (rank {eta_rank}, dim {d})")
    return eta
