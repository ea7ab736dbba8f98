"""Preantipodes: axiom checks, linear solving, construction from antipode data,
the coinvariant retraction, and the structure isomorphism it inverts.

A preantipode is a linear map S : H → H with, in Sweedler notation,

    S(x₂)₁ ⊗ x₁S(x₂)₂ = S(x)⊗1_H          (right coaction identity)
    S(x₁)₁x₂ ⊗ S(x₁)₂ = 1_H⊗S(x)          (left coaction identity)
    ω(x₁ ⊗ S(x₂) ⊗ x₃) = ε(x)             (reassociator-counit identity)

All three are linear in S, so the set of preantipodes is an affine subspace
of the n² matrix entries and can be computed exactly.  Existence of a
preantipode is equivalent to the evaluation maps M^coH⊗H → M being bijective
for every Hopf bicomodule M, with explicit inverse ψ(m) = τ(m₀)⊗m₁ built
from the retraction

    τ(m) = ω[m₋₁ ⊗ S(m₁)₁ ⊗ m₂] · m₀S(m₁)₂.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from .dqb import AntipodeData, DualQuasiBialgebra, _add, _require_square
from .errors import InvariantViolation
from .linalg import Matrix, solve_affine
from .report import Check, Report, basis_tuples, check_identity, clean_terms
from .scalars import Scalar
from .values import Value

# The retraction functions import the comodule layer when they run, so
# solving for a preantipode never loads it.
if TYPE_CHECKING:
    from .comodules import HopfBicomodule, Subspace


class PreantipodeFamily(Value):
    """The affine solution set of the preantipode system."""

    __slots__ = ("particular", "kernel")

    def __init__(self, particular: Matrix, kernel: tuple[Matrix, ...]):
        self._set(particular, kernel)

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel)


class CoinvariantRetraction(Value):
    """The retraction M → M^coH and the inverse of the evaluation map.

    ``retraction`` is r×d in coinvariant coordinates; ``counit_inverse`` is
    the (r·n)×d matrix of m ↦ τ(m₀)⊗m₁."""

    __slots__ = ("coinvariants", "retraction", "counit_inverse")

    def __init__(self, coinvariants: Subspace, retraction: Matrix, counit_inverse: Matrix):
        self._set(coinvariants, retraction, counit_inverse)


# -- the defining identities as linear forms in S ---------------------------------
#
# At x = e_p each defining identity is a pair of forms (lhs, rhs).  A form maps
# an output key to {(q, b): coefficient of S[q][b]}, with any constant term
# under None; the key () stands for the ground field.


def _put(form: dict, key, col, c) -> None:
    _add(form.setdefault(key, {}), col, c)


def _coaction_forms(H, p, right: bool = True):
    """For x = e_p, in H⊗H: S(x₂)₁ ⊗ x₁S(x₂)₂  vs  S(x)⊗1_H (right), or
    S(x₁)₁x₂ ⊗ S(x₁)₂  vs  1_H⊗S(x) (left)."""
    lhs: dict = {}
    rhs: dict = {}
    for a, b, c0 in H.delta_terms(p):
        for q in range(H.dim):
            for q1, q2, c1 in H.delta_terms(q):
                if right:
                    for w, c2 in H.mul_terms(a, q2):
                        _put(lhs, (q1, w), (q, b), c0 * c1 * c2)
                else:
                    for w, c2 in H.mul_terms(q1, b):
                        _put(lhs, (w, q2), (q, a), c0 * c1 * c2)
    for q in range(H.dim):
        for u, cu in H.unit_terms():
            _put(rhs, (q, u) if right else (u, q), (q, p), cu)
    return lhs, rhs


def _counit_forms(H, p):
    """ω(x₁ ⊗ S(x₂) ⊗ x₃)  vs  ε(x), for x = e_p.  The key () is there even
    when ω gives no term in S, so the solver then still states 0 = ε(x)."""
    lhs: dict = {(): {}}
    for (a, b, c), c0 in H.delta_power(p, 3):
        for q in range(H.dim):
            w = H.omega_at(a, q, c)
            if w:
                _add(lhs[()], (q, b), c0 * w)
    return lhs, {(): {None: H.eps(p)}}


_DEFINING = (
    ("preantipode-right-coaction", _coaction_forms),
    ("preantipode-left-coaction", partial(_coaction_forms, right=False)),
    ("preantipode-reassociator-counit", _counit_forms),
)


def _form_sides(H, S, forms, p):
    """Both sides of a defining identity at x = e_p, evaluated on S: sparse
    vectors, or scalars under the key ()."""
    one, zero = H.field.one, H.field.zero

    def value(coeffs):
        return sum((c * (one if col is None else S[col]) for col, c in coeffs.items()),
                   zero)

    lhs, rhs = ({key: value(coeffs) for key, coeffs in form.items()}
                for form in forms(H, p))
    return (lhs[()], rhs[()]) if () in rhs else (lhs, rhs)


def _counit_scalar(H, S, i) -> Scalar:
    acc = H.field.zero
    for q, sq in S.column_terms(i):
        acc = acc + sq * H.eps(q)
    return acc


def _scalar_compat_sides(H, S, left: bool, p):
    """h₁S(h₂)  (resp. S(h₁)h₂)  vs  εS(h)·1_H, for h = e_p.

    These follow from the two coaction identities by applying the counit to
    one leg; they are checked as a derived consistency suite."""
    lhs: dict = {}
    rhs: dict = {}
    for a, b, c0 in H.delta_terms(p):
        if left:
            for q, sq in S.column_terms(b):
                for w, cm in H.mul_terms(a, q):
                    _add(lhs, (w,), c0 * sq * cm)
        else:
            for q, sq in S.column_terms(a):
                for w, cm in H.mul_terms(q, b):
                    _add(lhs, (w,), c0 * sq * cm)
    t = _counit_scalar(H, S, p)
    for u, cu in H.unit_terms():
        _add(rhs, (u,), t * cu)
    return lhs, rhs


def check_preantipode(H: DualQuasiBialgebra, S: Matrix) -> Report:
    """Evaluate the three defining identities of a preantipode, plus the
    derived scalar compatibilities, on every basis element of H."""
    _require_square(H, S)
    n = H.dim
    return Report(tuple(
        check_identity(axiom, basis_tuples(n), partial(_form_sides, H, S, forms))
        for axiom, forms in _DEFINING) + (
        check_identity("preantipode-counit-left", basis_tuples(n),
                       partial(_scalar_compat_sides, H, S, True)),
        check_identity("preantipode-counit-right", basis_tuples(n),
                       partial(_scalar_compat_sides, H, S, False)),
    ))


def solve_preantipode(H: DualQuasiBialgebra) -> PreantipodeFamily | None:
    """The full affine set of preantipodes of H, or None when empty.

    Every key of every defining identity gives the row lhs − rhs = 0 of one
    exact linear system in the n² entries of S (unknown S[u][v] at column
    u·n+v); the kernel dimension is returned as data, never assumed to vanish.
    """
    n, field = H.dim, H.field
    terms, b = [], []
    for p in range(n):
        for _, forms in _DEFINING:
            lhs, rhs = forms(H, p)
            for key in {**lhs, **rhs}:
                row = dict(lhs.get(key, {}))
                for col, c in rhs.get(key, {}).items():
                    _add(row, col, -c)
                b.append(-row.pop(None, field.zero))
                terms.extend((len(b) - 1, u * n + v, c) for (u, v), c in row.items())
    sol = solve_affine(Matrix.from_terms(field, len(b), n * n, terms), b)
    if sol is None:
        return None
    particular = Matrix(field, n, n, list(sol.particular))
    kern = tuple(Matrix(field, n, n, list(v)) for v in sol.kernel)
    return PreantipodeFamily(particular, kern)


# -- antipode data and the convolution construction ------------------------------


def check_antipode(H: DualQuasiBialgebra, data: AntipodeData) -> Report:
    """Evaluate all defining conditions of a dual quasi-Hopf antipode triple:

        Δs(h) = s(h₂)⊗s(h₁),  εs = ε,
        h₁β(h₂)s(h₃) = β(h)1_H,  s(h₁)α(h₂)h₃ = α(h)1_H,
        ω(h₁ ⊗ β(h₂)s(h₃)α(h₄) ⊗ h₅) = ε(h) = ω⁻¹(s(h₁) ⊗ α(h₂)h₃β(h₄) ⊗ s(h₅)).
    """
    _require_square(H, data.s)
    s = data.s
    alpha = data.alpha.entries
    beta = data.beta.entries

    def comultiplication(p):
        lhs: dict = {}
        rhs: dict = {}
        for q, sq in s.column_terms(p):
            for x, y, c in H.delta_terms(q):
                _add(lhs, (x, y), sq * c)
        for a, b, c0 in H.delta_terms(p):
            for q1, s1 in s.column_terms(b):
                for q2, s2 in s.column_terms(a):
                    _add(rhs, (q1, q2), c0 * s1 * s2)
        return lhs, rhs

    def left_contraction(p):
        lhs: dict = {}
        rhs: dict = {}
        for (a, b, c), c0 in H.delta_power(p, 3):
            coeff = c0 * beta[b]
            if not coeff:
                continue
            for q, sq in s.column_terms(c):
                for w, cm in H.mul_terms(a, q):
                    _add(lhs, (w,), coeff * sq * cm)
        for u, cu in H.unit_terms():
            _add(rhs, (u,), beta[p] * cu)
        return lhs, rhs

    def right_contraction(p):
        lhs: dict = {}
        rhs: dict = {}
        for (a, b, c), c0 in H.delta_power(p, 3):
            coeff = c0 * alpha[b]
            if not coeff:
                continue
            for q, sq in s.column_terms(a):
                for w, cm in H.mul_terms(q, c):
                    _add(lhs, (w,), coeff * sq * cm)
        for u, cu in H.unit_terms():
            _add(rhs, (u,), alpha[p] * cu)
        return lhs, rhs

    def reassociator(p):
        acc = H.field.zero
        for (h1, h2, h3, h4, h5), c0 in H.delta_power(p, 5):
            coeff = c0 * beta[h2] * alpha[h4]
            if not coeff:
                continue
            for q, sq in s.column_terms(h3):
                acc = acc + coeff * sq * H.omega_at(h1, q, h5)
        return acc, H.eps(p)

    def reassociator_inverse(p):
        acc = H.field.zero
        for (h1, h2, h3, h4, h5), c0 in H.delta_power(p, 5):
            coeff = c0 * alpha[h2] * beta[h4]
            if not coeff:
                continue
            for q1, s1 in s.column_terms(h1):
                for q2, s2 in s.column_terms(h5):
                    acc = acc + coeff * s1 * s2 * H.omega_inv_at(q1, h3, q2)
        return acc, H.eps(p)

    n = H.dim
    return Report((
        check_identity("antipode-comultiplication", basis_tuples(n), comultiplication),
        check_identity("antipode-counit", basis_tuples(n),
                       lambda p: (_counit_scalar(H, s, p), H.eps(p))),
        check_identity("antipode-left-contraction", basis_tuples(n), left_contraction),
        check_identity("antipode-right-contraction", basis_tuples(n), right_contraction),
        check_identity("antipode-reassociator", basis_tuples(n), reassociator),
        check_identity("antipode-reassociator-inverse", basis_tuples(n),
                       reassociator_inverse),
    ))


def _sandwich(H: DualQuasiBialgebra, data: AntipodeData) -> Matrix:
    """The convolution β∗s∗α as a matrix: S(h) = β(h₁)·s(h₂)·α(h₃)."""
    n = H.dim
    alpha = data.alpha.entries
    beta = data.beta.entries
    terms = []
    for p in range(n):
        for (a, b, c), c0 in H.delta_power(p, 3):
            coeff = c0 * beta[a] * alpha[c]
            if not coeff:
                continue
            for q, sq in data.s.column_terms(b):
                terms.append((q, p, coeff * sq))
    return Matrix.from_terms(H.field, n, n, terms)


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


# -- the retraction τ and the structure isomorphism ------------------------------


def _retraction_pieces(H: DualQuasiBialgebra, S: Matrix, M: HopfBicomodule,
                       coinv: Subspace | None = None):
    """The five retraction verdicts, τ on every basis vector (as codes of M's
    view) and the coinvariant basis (computed here unless given)."""
    from .comodules import _view, coinvariants

    _require_square(H, S)
    d, n = M.dim, H.dim
    view = _view(H, M)
    mul, put = view.codes.mul, view.codes.put
    lt, rt, at = view.lt, view.rt, view.at
    if coinv is None:
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

    report = Report(tuple(
        check_identity(axiom, basis_tuples(*dims), sides, view.codes.values)
        for axiom, dims, sides in (
            ("retraction-into-coinvariants", (d,), into_coinvariants),
            ("retraction-module-identity", (d, n), module_identity),
            ("retraction-left-colinearity", (d,), left_colinearity),
            ("retraction-splits-counit", (d,), splits_counit),
            ("retraction-fixes-coinvariants", (coinv.rank, n), fixes_coinvariants))))
    return report, tau, coinv


def _evaluation_inverse(H: DualQuasiBialgebra, M: HopfBicomodule, coinv: Subspace,
                        tau: list[dict]) -> tuple[Matrix, Matrix]:
    """τ in coinvariant coordinates (r×d) and ψ(m) = τ(m₀)⊗m₁ ((r·n)×d)."""
    from .comodules import _view

    d, r = M.dim, coinv.rank
    zero = H.field.zero
    values = _view(H, M).codes.values
    terms = []
    for i in range(d):
        vec = [zero] * d
        for (j,), v in tau[i].items():
            vec[j] = values[v]
        coords = coinv.coordinates(vec)
        assert coords is not None  # guaranteed by retraction-into-coinvariants
        terms.extend((beta, i, v) for beta, v in enumerate(coords) if v)
    retraction = Matrix.from_terms(H.field, r, d, terms)
    return retraction, retraction.kron(Matrix.identity(H.field, H.dim)) @ M.rho_r


def _composites(H: DualQuasiBialgebra, eps: Matrix, psi: Matrix) -> tuple[Check, Check]:
    """Whether ε∘ψ and ψ∘ε are identity matrices."""
    return (Check("counit-after-inverse", eps @ psi == Matrix.identity(H.field, eps.rows)),
            Check("inverse-after-counit", psi @ eps == Matrix.identity(H.field, psi.rows)))


def _verified_inverse(H: DualQuasiBialgebra, M: HopfBicomodule, report: Report,
                      tau: list[dict], coinv: Subspace) -> tuple[Matrix, Matrix, Matrix]:
    """(retraction, ψ, ε) once the retraction identities and both composites
    hold; any failure raises InvariantViolation."""
    from .comodules import adjunction_counit

    if not report.ok:
        bad = report.failures[0]
        raise InvariantViolation(
            f"retraction identity {bad.axiom} failed at witness {bad.witness}")
    retraction, psi = _evaluation_inverse(H, M, coinv, tau)
    eps = adjunction_counit(H, M, coinv)
    after, before = _composites(H, eps, psi)
    if not after.passed:
        raise InvariantViolation("evaluation ∘ inverse is not the identity")
    if not before.passed:
        raise InvariantViolation("inverse ∘ evaluation is not the identity")
    return retraction, psi, eps


def retraction_report(H: DualQuasiBialgebra, S: Matrix, M: HopfBicomodule, *,
                      coinv: Subspace | None = None, eps: Matrix | None = None) -> Report:
    """Per-identity verdicts for the retraction induced by S on M.

    Checks, in order: the image lies in the coinvariants, the module identity
    for τ(mh), left colinearity, τ(m₀)m₁ = m, and triviality on coinvariants.
    The last identity is equivalent to the middle two given the splitting
    identity, so matching verdicts across the two routes is itself a useful
    consistency signal.

    ``coinv`` is the coinvariant basis when the caller already has it.  Given
    also the evaluation map ``eps`` on that basis, the report goes on, once
    the five identities hold, to whether ψ(m) = τ(m₀)⊗m₁ inverts it:
    ``counit-after-inverse`` (ε∘ψ = id) and ``inverse-after-counit`` (ψ∘ε = id).
    """
    report, tau, coinv = _retraction_pieces(H, S, M, coinv)
    if eps is None or not report.ok:
        return report
    _, psi = _evaluation_inverse(H, M, coinv, tau)
    return Report(report.checks + _composites(H, eps, psi))


def coinvariant_retraction(H: DualQuasiBialgebra, S: Matrix,
                           M: HopfBicomodule) -> CoinvariantRetraction:
    """The retraction in coinvariant coordinates plus the evaluation inverse.

    Recomputes the coinvariant basis itself (never trusts a caller-supplied
    one) so the codomain of the inverse matches the evaluation map exactly.
    Any failed identity raises InvariantViolation."""
    report, tau, coinv = _retraction_pieces(H, S, M)
    retraction, psi, _ = _verified_inverse(H, M, report, tau, coinv)
    return CoinvariantRetraction(coinv, retraction, psi)


def structure_isomorphism(H: DualQuasiBialgebra, S: Matrix,
                          M: HopfBicomodule) -> tuple[Matrix, Matrix]:
    """The mutually inverse pair (evaluation M^coH⊗H → M, its inverse ψ).

    Both composites are verified to be identity matrices, exactly."""
    report, tau, coinv = _retraction_pieces(H, S, M)
    _, psi, eps = _verified_inverse(H, M, report, tau, coinv)
    return eps, psi


# -- comparison with the antipode-based projection -------------------------------


def check_projection_formula(H: DualQuasiBialgebra, data: AntipodeData,
                             M: HopfBicomodule) -> tuple[Report, bool]:
    """For S = β∗s∗α, verify τ(m) = ω(m₋₁⊗s(m₁)⊗m₃)·P(m₀)·α(m₂) on every
    basis element, where P(m) = m₀β(m₁)s(m₂) is the antipode-based projection.

    Also reports (as the returned boolean, not as a failure) whether the
    candidate inverse γ(m) = P(m₀)⊗m₁ coincides with the actual inverse ψ;
    the two agree when α = ε and the reassociator twists are trivial."""
    from .comodules import _view

    S = _sandwich(H, data)
    d, n = M.dim, H.dim
    retraction_checks, tau, coinv = _retraction_pieces(H, S, M)
    view = _view(H, M)
    mul, put = view.codes.mul, view.codes.put
    s_cols = [view.encode(data.s.column_terms(b)) for b in range(n)]
    alpha = view.codes.encode(data.alpha.entries)
    beta = view.codes.encode(data.beta.entries)

    # P(e_i) = Σ β(m₁)·m₀·s(m₂)
    proj = []
    for terms in view.sweedler(0, 2):
        acc: dict = {}
        for _, j, (b1, b2), c in terms:
            coeff = mul(c, beta[b1])
            if not coeff:
                continue
            for q, sq in s_cols[b2]:
                for j2, ca in view.at[j * n + q]:
                    put(acc, (j2,), mul(mul(coeff, sq), ca))
        proj.append(clean_terms(acc))

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
                for key, v in proj[j].items():
                    put(rhs, key, mul(mul(mul(coeff, sq), w), v))
        return tau[i], rhs

    report = Report((check_identity("retraction-projection-formula", basis_tuples(d),
                                    projection_formula, view.codes.values),))

    _, psi, _ = _verified_inverse(H, M, retraction_checks, tau, coinv)
    gamma_matrix = view.matrix(d * n, d, (
        (j2 * n + b, i, mul(c, v))
        for i in range(d) for j, b, c in view.rt[i] for (j2,), v in proj[j].items()))
    embedded_psi = coinv.basis.kron(Matrix.identity(H.field, n)) @ psi
    return report, gamma_matrix == embedded_psi
