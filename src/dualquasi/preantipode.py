"""Preantipodes: the defining identities, their check, and the linear solver.

A preantipode is a linear map S : H → H with, in Sweedler notation,

    S(x₂)₁ ⊗ x₁S(x₂)₂ = S(x)⊗1_H          (right coaction identity)
    S(x₁)₁x₂ ⊗ S(x₁)₂ = 1_H⊗S(x)          (left coaction identity)
    ω(x₁ ⊗ S(x₂) ⊗ x₃) = ε(x)             (reassociator-counit identity)

All three are linear in S, so the set of preantipodes is an affine subspace
of the n² matrix entries and can be computed exactly.  The construction from
antipode data is in ``antipode``, the structure theorem the preantipode
proves in ``structure``.
"""

from __future__ import annotations

from functools import partial

from .dqb import DualQuasiBialgebra, _require_square
from .linalg import Matrix
from .report import Report, _add, basis_tuples, check_identity
from .scalars import Scalar
from .values import Value


class PreantipodeFamily(Value):
    """The affine solution set of the preantipode system: one preantipode and
    the dimension of the set."""

    __slots__ = ("particular", "kernel_dimension")

    def __init__(self, particular: Matrix, kernel_dimension: int):
        self._set(particular, kernel_dimension)


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
    for (a, b, c), c0 in H.delta2[p]:
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


def _contraction(H, A, B, p) -> dict:
    """Σ A(h₁)·B(h₂) for h = e_p, a sparse vector on H; ``Matrix.identity``
    stands in for a bare leg."""
    out: dict = {}
    for a, b, c0 in H.delta_terms(p):
        for qa, va in A.column_terms(a):
            ca = c0 * va
            for qb, vb in B.column_terms(b):
                cab = ca * vb
                for w, cm in H.mul_terms(qa, qb):
                    _add(out, (w,), cab * cm)
    return out


def _unit_times(H, t: Scalar) -> dict:
    """t·1_H as a sparse vector on H."""
    return {(u,): t * cu for u, cu in H.unit_terms()}


def _scalar_compat_sides(H, A, B, t: Matrix, p):
    """Σ A(h₁)·B(h₂)  vs  t(h)·1_H, for h = e_p and a functional t."""
    return _contraction(H, A, B, p), _unit_times(H, t.entries[p])


def check_preantipode(H: DualQuasiBialgebra, S: Matrix) -> Report:
    """Evaluate the three defining identities of a preantipode, plus the
    derived scalar compatibilities h₁S(h₂) = εS(h)·1_H = S(h₁)h₂, which
    follow from the two coaction identities by applying the counit to one
    leg, on every basis element of H."""
    _require_square(H, S)
    n = H.dim
    identity, eps_s = Matrix.identity(H.field, n), H.counit @ S
    return Report(tuple(
        check_identity(axiom, basis_tuples(n), partial(_form_sides, H, S, forms))
        for axiom, forms in _DEFINING) + tuple(
        check_identity(axiom, basis_tuples(n), partial(_scalar_compat_sides, H, A, B, eps_s))
        for axiom, A, B in (("preantipode-counit-left", identity, S),
                            ("preantipode-counit-right", S, identity))))


def solve_preantipode(H: DualQuasiBialgebra) -> PreantipodeFamily | None:
    """A preantipode of H and the dimension of the affine set of them, or None
    when the set is empty.

    Every key of every defining identity gives the row lhs − rhs = 0 of one
    exact linear system in the n² entries of S (unknown S[u][v] at column
    u·n+v); the kernel dimension is returned as data, never assumed to vanish.
    """
    # imported here, so from-antipode, which only checks S, loads no elimination
    from .elimination import solve_affine

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
    return PreantipodeFamily(Matrix(field, n, n, sol.particular), sol.kernel_dimension)
