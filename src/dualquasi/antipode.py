"""Antipode data (s, α, β) of a dual quasi-Hopf algebra: the checks of its
defining conditions and the preantipode β∗s∗α built from it; and, on a group
algebra, how far a preantipode is from a coalgebra antimorphism."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from .dqb import AntipodeData, DualQuasiBialgebra, _require_square
from .errors import DimensionMismatch, InvariantViolation
from .linalg import Matrix
from .preantipode import (_counit_forms, _form_sides, _scalar_compat_sides,
                          check_preantipode)
from .report import (Check, Report, _add, basis_tuples, check_identity, format_terms,
                     terms_equal)
from .scalars import Scalar

if TYPE_CHECKING:
    from .groups import GroupData


def check_antipode(H: DualQuasiBialgebra, data: AntipodeData) -> Report:
    """Evaluate all defining conditions of a dual quasi-Hopf antipode triple:

        Δs(h) = s(h₂)⊗s(h₁),  εs = ε,
        h₁β(h₂)s(h₃) = β(h)1_H,  s(h₁)α(h₂)h₃ = α(h)1_H,
        ω(h₁ ⊗ β(h₂)s(h₃)α(h₄) ⊗ h₅) = ε(h) = ω⁻¹(s(h₁) ⊗ α(h₂)h₃β(h₄) ⊗ s(h₅)).

    The last four read convolutions of s or id with α, β or ε: the
    contractions are the preantipode layer's h₁·(β∗s)(h₂) and s(h₁)·(α∗id)(h₂),
    and the reassociator identities take β∗s∗α and α∗id∗β."""
    _require_square(H, data.s)
    s, alpha, beta, eps = data.s, data.alpha, data.beta, H.counit
    n = H.dim
    identity, eps_s = Matrix.identity(H.field, n), eps @ s
    middle = _convolution(H, alpha, identity, beta)

    def reassociator_inverse(p):
        """ω⁻¹(s(h₁) ⊗ (α∗id∗β)(h₂) ⊗ s(h₃))"""
        acc = H.field.zero
        for (h1, h2, h3), c0 in H.delta2[p]:
            for q2, c2 in middle.column_terms(h2):
                for q1, s1 in s.column_terms(h1):
                    for q3, s3 in s.column_terms(h3):
                        acc = acc + c0 * c2 * s1 * s3 * H.omega_inv_at(q1, q2, q3)
        return acc, H.eps(p)

    return Report((
        check_identity("antipode-comultiplication", basis_tuples(n),
                       partial(_antimorphism_sides, H, s)),
        check_identity("antipode-counit", basis_tuples(n),
                       lambda p: (eps_s.entries[p], H.eps(p))),
        check_identity("antipode-left-contraction", basis_tuples(n),
                       partial(_scalar_compat_sides, H, identity,
                               _convolution(H, beta, s, eps), beta)),
        check_identity("antipode-right-contraction", basis_tuples(n),
                       partial(_scalar_compat_sides, H, s,
                               _convolution(H, alpha, identity, eps), alpha)),
        # ω(h₁ ⊗ β(h₂)s(h₃)α(h₄) ⊗ h₅) = ε(h) is the preantipode identity at β∗s∗α
        check_identity("antipode-reassociator", basis_tuples(n),
                       partial(_form_sides, H, _sandwich(H, data), _counit_forms)),
        check_identity("antipode-reassociator-inverse", basis_tuples(n),
                       reassociator_inverse),
    ))


def _antimorphism_sides(H: DualQuasiBialgebra, s: Matrix, p: int) -> tuple[dict, dict]:
    """Δs(h) and s(h₂)⊗s(h₁) for h = e_p, as sparse vectors on H⊗H."""
    coproduct: dict = {}
    flipped: dict = {}
    for q, sq in s.column_terms(p):
        for x, y, c in H.delta_terms(q):
            _add(coproduct, (x, y), sq * c)
    for a, b, c0 in H.delta_terms(p):
        for q1, s1 in s.column_terms(b):
            for q2, s2 in s.column_terms(a):
                _add(flipped, (q1, q2), c0 * s1 * s2)
    return coproduct, flipped


def _convolution(H: DualQuasiBialgebra, f: Matrix, X: Matrix, g: Matrix) -> Matrix:
    """The map h ↦ f(h₁)·X(h₂)·g(h₃) as a matrix, for functionals f and g (ε
    among them) and a linear map X."""
    n = H.dim
    fe, ge = f.entries, g.entries
    terms = []
    for p in range(n):
        for (a, b, c), c0 in H.delta2[p]:
            coeff = c0 * fe[a] * ge[c]
            if not coeff:
                continue
            for q, xq in X.column_terms(b):
                terms.append((q, p, coeff * xq))
    return Matrix.from_terms(H.field, n, n, terms)


def _sandwich(H: DualQuasiBialgebra, data: AntipodeData) -> Matrix:
    """The convolution β∗s∗α as a matrix: S(h) = β(h₁)·s(h₂)·α(h₃)."""
    return _convolution(H, data.beta, data.s, data.alpha)


def preantipode_from_antipode(H: DualQuasiBialgebra, data: AntipodeData) -> Matrix:
    """Build the preantipode β∗s∗α from verified antipode data.

    Raises ValueError when the antipode data fails its own axioms, and
    InvariantViolation should the constructed map fail the preantipode
    axioms (which would contradict the construction's guarantee)."""
    rep = check_antipode(H, data)
    if not rep.ok:
        raise ValueError(f"antipode data invalid: {rep.failures[0].axiom}")
    return preantipode_with_report(H, data)[0]


def preantipode_with_report(H: DualQuasiBialgebra,
                            data: AntipodeData) -> tuple[Matrix, Report]:
    """β∗s∗α and its preantipode report, for antipode data that already
    passed ``check_antipode``; raises InvariantViolation when the report fails."""
    S = _sandwich(H, data)
    rep_s = check_preantipode(H, S)
    if not rep_s.ok:
        raise InvariantViolation(
            f"convolution of valid antipode data failed {rep_s.failures[0].axiom}")
    return S, rep_s


def anti_homomorphism_defect(group: GroupData, H: DualQuasiBialgebra,
                             S: Matrix) -> tuple[Report, list[Scalar]]:
    """Measure how far S is from a coalgebra antimorphism on a group algebra.

    Verifies S(g₂)⊗S(g₁) = ω(g,g⁻¹,g)⁻¹·ΔS(g) for every group element and
    returns the defect scalars ω(g,g⁻¹,g)⁻¹ (a defect of 1 means S behaves
    like an honest antimorphism at that element)."""
    _require_square(H, S)
    if group.order != H.dim:
        raise DimensionMismatch("group order disagrees with the algebra dimension")
    checks: list[Check] = []
    defects: list[Scalar] = []
    for g in range(group.order):
        defect = H.omega_at(g, group.inv(g), g).inverse()
        defects.append(defect)
        coproduct, lhs = _antimorphism_sides(H, S, g)
        rhs = {key: defect * v for key, v in coproduct.items()}
        if terms_equal(lhs, rhs):
            checks.append(Check(f"antimorphism-defect[{g}]", True, (g,),
                                str(defect), None))
        else:
            checks.append(Check(f"antimorphism-defect[{g}]", False, (g,),
                                format_terms(lhs), format_terms(rhs)))
    return Report(tuple(checks)), defects
