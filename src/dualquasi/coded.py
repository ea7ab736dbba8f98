"""Comodules on value codes: the coded view of a module against an algebra,
and the table of its defining identities.

Every reader of a module's structure (its validators and constructions, the
adjunction maps and the retraction) reads one view of it, built on first use
and kept on the module for the algebra it was built against.  The view also
keeps M's coinvariant basis and its evaluation map once they are computed.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .dqb import DualQuasiBialgebra, _Codes
from .linalg import Matrix
from .report import Check, Report, basis_tuples, check_identity


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
        # rt[j] ∋ (i, a, c)
        self.lt = tuple(tuple((row // d, row % d, code(v)) for row, v in M.rho_l.column_terms(j))
                        for j in range(d))
        self.rt = None if rho_r is None else tuple(
            tuple((row // n, row % n, code(v)) for row, v in rho_r.column_terms(j))
            for j in range(d))
        self._act = act
        self.units = tuple((u, code(c)) for u, c in H.unit_terms())
        # M's coinvariant basis and verified evaluation map, computed on first
        # use by comodules.coinvariants and adjunction.adjunction_counit
        self.coinvariants = self.evaluation = None

    def encode(self, terms):
        """(index, scalar) terms with each scalar replaced by its code."""
        return [(i, self.codes.code(v)) for i, v in terms]

    def sweedler(self, nleft: int, nright: int) -> list:
        """Per basis j of M: terms (left_tuple, mid, right_tuple, code) of
        m₋₁ ⊗ m₀ ⊗ m₁⊗…⊗m_r at m = e_j, as (H⊗ρ^r)ρ^l; nleft is 0 or 1, and
        the right legs are m₁, Δ(m₁) or Δ²(m₁) for nright = 1, 2 or 3."""
        mul, lt, rt = self.codes.mul, self.lt, self.rt
        rights = ([[((b,), 1)] for b in range(self.H.dim)] if nright == 1 else
                  [[((b1, b2), c) for b1, b2, c in terms] for terms in self.delta]
                  if nright == 2 else self.splits)
        out = []
        for j in range(self.dim):
            mids = [((a,), j2, c) for a, j2, c in lt[j]] if nleft else [((), j, 1)]
            out.append([(ltup, j3, rtup, mul(mul(c, c2), c3))
                        for ltup, j2, c in mids for j3, b, c2 in rt[j2]
                        for rtup, c3 in rights[b]])
        return out

    @cached_property
    def at(self) -> tuple | None:
        """e_i·e_a = Σ c·e_j as at[i·n+a] ∋ (j, c), or None without an
        action; coded on first read, since a view read only for M's
        coinvariants never needs it."""
        act, code = self._act, self.codes.code
        return None if act is None else tuple(
            tuple((j, code(v)) for j, v in act.column_terms(c))
            for c in range(self.dim * self.H.dim))

    @cached_property
    def identities(self) -> list:
        """M's identity table (``_identities``), built on first use: a view
        read only for M's coinvariants never needs it."""
        return _identities(self)

    @cached_property
    def splits(self) -> list:
        """Per basis a of H: terms ((a₁, a₂, a₃), code) of Δ²(e_a), from H's table."""
        code = self.codes.code
        return [[(t, code(c)) for t, c in self.H.delta2[a]] for a in range(self.H.dim)]

    @cached_property
    def half(self):
        """j·n+a ↦ the (j, a) half of ω⁻¹(m₋₁⊗a₁⊗b₁) m₀⊗a₂b₂ ω(m₁⊗a₃⊗b₃) at
        m = e_j: the Sweedler terms of e_j times Δ²(a), as (ω⁻¹ index head,
        ω index head, a₂ head, m₀, code).  Each b loop reads at most M.dim
        halves at a time (one per term of a coinvariant vector in
        ``adjunction_counit``), so the cache keeps that many, and no row is
        kept for every (j, a)."""
        n, mul = self.H.dim, self.codes.mul
        # a term adds nothing at any b when ω⁻¹(x⊗·⊗·), ω⁻¹(·⊗a₁⊗·),
        # ω(y⊗·⊗·) or ω(·⊗a₃⊗·) is zero, so it is left out
        inv_x, inv_a = _live(self.omega_inv, n)
        w_y, w_a = _live(self.omega, n)
        splits = [[s for s in row if inv_a[s[0][0]] and w_a[s[0][2]]] for row in self.splits]
        terms = [[t for t in row if inv_x[t[0][0]] and w_y[t[2][0]]]
                 for row in self.sweedler(1, 1)]

        def half(col):
            j, a = divmod(col, n)
            return [((x * n + a1) * n, (y * n + a3) * n, a2 * n, j2, mul(c, ca))
                    for (x,), j2, (y,), c in terms[j] for (a1, a2, a3), ca in splits[a]]
        # one int argument is its own cache key
        return lru_cache(maxsize=self.dim)(half)

    def matrix(self, rows: int, cols: int, terms) -> Matrix:
        """The matrix whose entry (i, j) sums the values of the codes given at (i, j)."""
        values = self.codes.values
        return Matrix.from_terms(self.H.field, rows, cols,
                                 ((i, j, values[c]) for i, j, c in terms))


def _live(w: list, n: int) -> tuple[list, list]:
    """From the coded table w of ω or ω⁻¹: for each basis x, whether
    w(x⊗·⊗·) is nonzero somewhere, and the same for the middle leg."""
    rows = [any(w[h:h + n]) for h in range(0, n ** 3, n)]
    return [any(rows[x * n:x * n + n]) for x in range(n)], [any(rows[a::n]) for a in range(n)]


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


# -- the identity table ---------------------------------------------------------


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

    half, splits, w, w_inv = view.half, view.splits, view.omega, view.omega_inv

    def quasi_associativity(j, a, b):
        """(m·h)·k = ω⁻¹(m₋₁⊗h₁⊗k₁) m₀·(h₂k₂) ω(m₁⊗h₃⊗k₃)"""
        lhs: dict = {}
        rhs: dict = {}
        col = j * n + a
        for j2, c in at[col]:
            for j3, c2 in at[j2 * n + b]:
                put(lhs, (j3,), mul(c, c2))
        for inv_head, w_head, a2_head, j2, c in half(col):
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
