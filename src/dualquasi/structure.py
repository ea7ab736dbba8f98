"""The structure theorem: the coinvariant retraction a preantipode induces,
and the evaluation isomorphism M^coH⊗H → M it inverts.

Existence of a preantipode S is equivalent to the evaluation maps
M^coH⊗H → M being bijective for every Hopf bicomodule M, with explicit
inverse ψ(m) = τ(m₀)⊗m₁ built from the retraction

    τ(m) = ω[m₋₁ ⊗ S(m₁)₁ ⊗ m₂] · m₀S(m₁)₂.
"""

from __future__ import annotations

from .adjunction import adjunction_counit
from .coded import _report, _view
from .comodules import HopfBicomodule, coinvariants
from .dqb import AntipodeData, DualQuasiBialgebra, _require_square
from .elimination import Subspace
from .errors import InvariantViolation
from .linalg import Matrix
from .report import Check, Report, clean_terms
from .values import Value


class CoinvariantRetraction(Value):
    """The retraction M → M^coH and the inverse of the evaluation map.

    ``retraction`` is r×d in coinvariant coordinates; ``counit_inverse`` is
    the (r·n)×d matrix of m ↦ τ(m₀)⊗m₁."""

    __slots__ = ("coinvariants", "retraction", "counit_inverse")

    def __init__(self, coinvariants: Subspace, retraction: Matrix, counit_inverse: Matrix):
        self._set(coinvariants, retraction, counit_inverse)


def _retraction_pieces(H: DualQuasiBialgebra, S: Matrix, M: HopfBicomodule):
    """The five retraction verdicts and τ on every basis vector (as codes of
    M's view)."""
    _require_square(H, S)
    d, n = M.dim, H.dim
    view = _view(H, M)
    mul, put = view.codes.mul, view.codes.put
    lt, rt, at = view.lt, view.rt, view.at
    coinv = coinvariants(H, M)

    # τ(e_i) = ω[m₋₁ ⊗ S(m₁)₁ ⊗ m₂]·m₀S(m₁)₂ in M coordinates, for every i
    s_cols = [view.encode(S.column_terms(b)) for b in range(n)]
    tau = []
    for terms in view.sweedler(1, 2):
        acc: dict = {}
        for (x,), j, (b1, b2), c in terms:
            for q, sq in s_cols[b1]:
                for q1, q2, cq in view.delta[q]:
                    w = view.omega[(x * n + q1) * n + b2]
                    if not w:
                        continue
                    coeff = mul(mul(mul(c, sq), cq), w)
                    for j2, ca in at[j * n + q2]:
                        put(acc, (j2,), mul(coeff, ca))
        tau.append(clean_terms(acc))

    def into_coinvariants(i):
        """ρ^r(τ(m)) = τ(m)⊗1"""
        lhs: dict = {}
        rhs: dict = {}
        for (j,), v in tau[i].items():
            for j2, b, c in rt[j]:
                put(lhs, (j2, b), mul(v, c))
            for u, cu in view.units:
                put(rhs, (j, u), mul(v, cu))
        return lhs, rhs

    def module_identity(i, a):
        """τ(mh) = ω⁻¹[τ(m₀)₋₁ ⊗ m₁ ⊗ h]·τ(m₀)₀"""
        lhs: dict = {}
        rhs: dict = {}
        for j, c in at[i * n + a]:
            for key, v in tau[j].items():
                put(lhs, key, mul(c, v))
        for j, b, c in rt[i]:
            for (j2,), v in tau[j].items():
                for x, j3, c3 in lt[j2]:
                    w = view.omega_inv[(x * n + b) * n + a]
                    if w:
                        put(rhs, (j3,), mul(mul(mul(c, v), c3), w))
        return lhs, rhs

    def left_colinearity(i):
        """m₋₁ ⊗ τ(m₀) = τ(m₀)₋₁m₁ ⊗ τ(m₀)₀"""
        lhs: dict = {}
        rhs: dict = {}
        for x, j, c in lt[i]:
            for (j2,), v in tau[j].items():
                put(lhs, (x, j2), mul(c, v))
        for j, b, c in rt[i]:
            for (j2,), v in tau[j].items():
                for y, j3, c3 in lt[j2]:
                    for t, cm in view.products[y * n + b]:
                        put(rhs, (t, j3), mul(mul(mul(c, v), c3), cm))
        return lhs, rhs

    def splits_counit(i):
        """τ(m₀)·m₁ = m"""
        acc: dict = {}
        for j, b, c in rt[i]:
            for (j2,), v in tau[j].items():
                for j3, c3 in at[j2 * n + b]:
                    put(acc, (j3,), mul(mul(c, v), c3))
        return acc, {(i,): 1}

    def fixes_coinvariants(alpha, a):
        """τ(mh) = m·ε(h) on coinvariant m"""
        lhs: dict = {}
        rhs: dict = {}
        for i, v in view.encode(coinv.basis.column_terms(alpha)):
            for j, c in at[i * n + a]:
                for key, v2 in tau[j].items():
                    put(lhs, key, mul(mul(v, c), v2))
            put(rhs, (i,), mul(v, view.counit[a]))
        return lhs, rhs

    report = _report(view, (
        ("retraction-into-coinvariants", (d,), into_coinvariants),
        ("retraction-module-identity", (d, n), module_identity),
        ("retraction-left-colinearity", (d,), left_colinearity),
        ("retraction-splits-counit", (d,), splits_counit),
        ("retraction-fixes-coinvariants", (coinv.rank, n), fixes_coinvariants)))
    return report, tau


# the message of a failed composite; a failed identity names its axiom and witness
_COMPOSITE_FAILURES = {"counit-after-inverse": "evaluation ∘ inverse is not the identity",
                       "inverse-after-counit": "inverse ∘ evaluation is not the identity"}


def _structure(H: DualQuasiBialgebra, S: Matrix, M: HopfBicomodule, strict: bool = False):
    """(report, τ, retraction, ψ): everything S induces on M, built once.

    The report holds the five retraction identities and, once they hold,
    whether ψ(m) = τ(m₀)⊗m₁ inverts M's evaluation map ε:
    ``counit-after-inverse`` (ε∘ψ = id) and ``inverse-after-counit``
    (ψ∘ε = id).  τ holds the images of M's basis as codes of M's view; the
    retraction (r×d, in coinvariant coordinates) and ψ ((r·n)×d) are None
    while an identity fails.  With ``strict`` the first failure raises
    InvariantViolation, after ε's own checks, which always raise."""
    report, tau = _retraction_pieces(H, S, M)
    retraction = psi = None
    if report.ok:
        d = M.dim
        images = _view(H, M).matrix(
            d, d, ((j, i, v) for i in range(d) for (j,), v in tau[i].items()))
        retraction = coinvariants(H, M).coordinates(images)
        assert retraction is not None  # guaranteed by retraction-into-coinvariants
        psi = retraction.kron(Matrix.identity(H.field, H.dim)) @ M.rho_r
        eps = adjunction_counit(H, M)
        report = Report(report.checks + (
            Check("counit-after-inverse", eps @ psi == Matrix.identity(H.field, eps.rows)),
            Check("inverse-after-counit", psi @ eps == Matrix.identity(H.field, psi.rows))))
    if strict and not report.ok:
        bad = report.failures[0]
        raise InvariantViolation(_COMPOSITE_FAILURES.get(bad.axiom) or (
            f"retraction identity {bad.axiom} failed at witness {bad.witness}"))
    return report, tau, retraction, psi


def retraction_report(H: DualQuasiBialgebra, S: Matrix, M: HopfBicomodule, *,
                      inverse: bool = False) -> Report:
    """Per-identity verdicts for the retraction induced by S on M.

    Checks, in order: the image lies in the coinvariants, the module identity
    for τ(mh), left colinearity, τ(m₀)m₁ = m, and triviality on coinvariants.
    The last identity is equivalent to the middle two given the splitting
    identity, so matching verdicts across the two routes is itself a useful
    consistency signal.

    With ``inverse`` the report goes on, once the five identities hold, to
    whether ψ(m) = τ(m₀)⊗m₁ inverts the evaluation map ε:
    ``counit-after-inverse`` (ε∘ψ = id) and ``inverse-after-counit`` (ψ∘ε = id).
    """
    return (_structure if inverse else _retraction_pieces)(H, S, M)[0]


def coinvariant_retraction(H: DualQuasiBialgebra, S: Matrix,
                           M: HopfBicomodule) -> CoinvariantRetraction:
    """The retraction in coinvariant coordinates plus the evaluation inverse.

    Any failed identity raises InvariantViolation."""
    _, _, retraction, psi = _structure(H, S, M, strict=True)
    return CoinvariantRetraction(coinvariants(H, M), retraction, psi)


def structure_isomorphism(H: DualQuasiBialgebra, S: Matrix,
                          M: HopfBicomodule) -> tuple[Matrix, Matrix]:
    """The mutually inverse pair (evaluation M^coH⊗H → M, its inverse ψ).

    Both composites are verified to be identity matrices, exactly."""
    psi = _structure(H, S, M, strict=True)[3]
    return adjunction_counit(H, M), psi


# -- comparison with the antipode-based projection -------------------------------


def check_projection_formula(H: DualQuasiBialgebra, data: AntipodeData,
                             M: HopfBicomodule) -> tuple[Report, bool]:
    """For S = β∗s∗α, verify τ(m) = ω(m₋₁⊗s(m₁)⊗m₃)·P(m₀)·α(m₂) on every
    basis element, where P(m) = m₀·(β∗s)(m₁) is the antipode-based projection.

    Also reports (as the returned boolean, not as a failure) whether the
    candidate inverse γ(m) = P(m₀)⊗m₁ coincides with the actual inverse ψ;
    the two agree when α = ε and the reassociator twists are trivial."""
    # no command calls this, so structure-theorem never loads the antipode module
    from .antipode import _convolution, _sandwich

    d, n = M.dim, H.dim
    _, tau, _, psi = _structure(H, _sandwich(H, data), M, strict=True)
    view = _view(H, M)
    mul, put = view.codes.mul, view.codes.put
    s_cols = [view.encode(data.s.column_terms(b)) for b in range(n)]
    alpha = view.codes.encode(data.alpha.entries)
    # P = act∘(id⊗β∗s)∘ρ^r, that is P(m) = m₀·(β∗s)(m₁), and γ = (P⊗id)∘ρ^r
    beta_s = _convolution(H, data.beta, data.s, H.counit)
    proj = M.act @ Matrix.identity(H.field, d).kron(beta_s) @ M.rho_r
    gamma = proj.kron(Matrix.identity(H.field, n)) @ M.rho_r
    proj_cols = [view.encode(proj.column_terms(j)) for j in range(d)]
    sweedlers = view.sweedler(1, 3)

    def projection_formula(i):
        rhs: dict = {}
        for (x,), j, (b1, b2, b3), c in sweedlers[i]:
            coeff = mul(c, alpha[b2])
            if not coeff:
                continue
            for q, sq in s_cols[b1]:
                w = view.omega[(x * n + q) * n + b3]
                if not w:
                    continue
                for j2, v in proj_cols[j]:
                    put(rhs, (j2,), mul(mul(mul(coeff, sq), w), v))
        return tau[i], rhs

    report = _report(view, (("retraction-projection-formula", (d,), projection_formula),))
    return report, gamma == coinvariants(H, M).basis.kron(Matrix.identity(H.field, n)) @ psi
