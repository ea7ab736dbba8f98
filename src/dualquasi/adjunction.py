"""The adjunction between left comodules and Hopf bicomodules: the
coinvariants as a left comodule, the evaluation map M^coH⊗H → M (the
counit) and the unit V → (V⊗H)^coH, each verified as it is built."""

from __future__ import annotations

from .coded import _view
from .comodules import (Bicomodule, HopfBicomodule, LeftComodule, coinvariants,
                        induce_bicomodule)
from .dqb import DualQuasiBialgebra
from .elimination import Subspace, rank
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
    eta_rank = rank(eta)
    if r != d or eta_rank != d:
        raise InvariantViolation(
            f"unit of the adjunction is not bijective (rank {eta_rank}, dim {d})")
    return eta
