"""The axiom suite of a dual quasi-bialgebra: ``validate_dqb``.

Everything is checked exactly by expanding both sides of each identity on
basis tuples; linearity makes that complete.  The reassociator's
invertibility, the cocycle identity and quasi-associativity run on the
algebra's value codes.
"""

from __future__ import annotations

from functools import partial

from .convolutions import _convolve
from .dqb import DualQuasiBialgebra
from .linalg import tensor_unindex
from .report import Check, Report, _add, basis_tuples, check_identity

# Each identity is a sides function: given basis indices it returns both sides,
# as sparse vectors keyed by index tuples or as scalars.


def _coassociativity(H, i):
    lhs: dict = {}
    rhs: dict = {}
    for a, b, c in H.delta_terms(i):
        for a1, a2, c2 in H.delta_terms(a):
            _add(lhs, (a1, a2, b), c * c2)
        for b1, b2, c2 in H.delta_terms(b):
            _add(rhs, (a, b1, b2), c * c2)
    return lhs, rhs


def _counit_law(H, side, i):
    acc: dict = {}
    for a, b, c in H.delta_terms(i):
        if side == 0:
            _add(acc, (b,), c * H.eps(a))
        else:
            _add(acc, (a,), c * H.eps(b))
    return acc, {(i,): H.field.one}


def _mul_comultiplicative(H, i, j):
    lhs: dict = {}
    rhs: dict = {}
    for t, c in H.mul_terms(i, j):
        for x, y, c2 in H.delta_terms(t):
            _add(lhs, (x, y), c * c2)
    for a1, a2, ca in H.delta_terms(i):
        for b1, b2, cb in H.delta_terms(j):
            for x, cx in H.mul_terms(a1, b1):
                for y, cy in H.mul_terms(a2, b2):
                    _add(rhs, (x, y), ca * cb * cx * cy)
    return lhs, rhs


def _mul_counital(H, i, j):
    lhs = H.field.zero
    for t, c in H.mul_terms(i, j):
        lhs = lhs + c * H.eps(t)
    return lhs, H.eps(i) * H.eps(j)


def _unit_comultiplicative(H):
    lhs: dict = {}
    rhs: dict = {}
    for u, cu in H.unit_terms():
        for x, y, c in H.delta_terms(u):
            _add(lhs, (x, y), cu * c)
    for u1, c1 in H.unit_terms():
        for u2, c2 in H.unit_terms():
            _add(rhs, (u1, u2), c1 * c2)
    return lhs, rhs


def _unit_counital(H):
    acc = H.field.zero
    for u, cu in H.unit_terms():
        acc = acc + cu * H.eps(u)
    return acc, H.field.one


def _first_difference(axiom: str, lhs: list[int], rhs: list[int], values,
                      n: int, arity: int) -> Check:
    """Two code lists on H^⊗arity, in flat order, agree at every basis tuple;
    flat order is the lexicographic order of the tuples, and ``values`` maps
    a code back to its scalar."""
    if lhs == rhs:
        return Check(axiom, True)
    flat = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return Check(axiom, False, tensor_unindex(flat, n, arity),
                 str(values[lhs[flat]]), str(values[rhs[flat]]))


def _reassociator_invertible(H) -> Check:
    """ω∗ω⁻¹ = ε⊗ε⊗ε = ω⁻¹∗ω, the first product scanned in full first."""
    codes = H._codes
    eps3 = codes.encode(H.counit_power(3).entries)
    w, w_inv = H._coded_omega, H._coded_omega_inv
    for f, g in ((w, w_inv), (w_inv, w)):
        check = _first_difference("reassociator-invertible", _convolve(H, f, g, 3),
                                  eps3, codes.values, H.dim, 3)
        if not check.passed:
            break
    return check


def _combination(codes, terms, part, length: int) -> list[int]:
    """Σ c·part(t) over the terms (t, c), each part(t) a code list of that length."""
    acc = None
    for t, c in terms:
        run = part(t)
        if c != 1:
            run = [codes.mul(c, v) for v in run]
        acc = run if acc is None else list(map(codes.add, acc, run))
    return [0] * length if acc is None else acc


def _cocycle_identity(H) -> Check:
    """ω(H⊗H⊗m) ∗ ω(m⊗H⊗H) = (ε⊗ω) ∗ ω(H⊗m⊗H) ∗ (ω⊗ε) on H⊗4.

    H^⊗4 comultiplies factor by factor, so at a first factor h each side is
    Σ c·(f(h₁⊗·) ∗ g(h₂⊗·)) over Δ(h), convolutions on H^⊗3; the right side
    splits h by (Δ⊗id)Δ, as the bracketing ((ε⊗ω) ∗ ω(H⊗m⊗H)) ∗ (ω⊗ε) does.
    A term whose ω factor is zero on x⊗H⊗H is left out."""
    n = H.dim
    n2, n3 = n * n, n ** 3
    codes = H._codes
    eps, w = H._coded_counit, H._coded_omega
    delta, products = H._coded_delta, H._coded_products
    rows = [w[x * n2:x * n2 + n2] for x in range(n)]
    live = list(map(any, rows))

    # the slices at x of the factors, as codes on (k, l, p) in flat order
    def w_hh_m(x):  # ω(x⊗k⊗lp): a run along k per (l, p), then transposed
        run = [rows[x][t::n] for t in range(n)].__getitem__
        return [v for vs in zip(*[_combination(codes, terms, run, n) for terms in products])
                for v in vs]

    def w_m_hh(x):  # ω(xk⊗l⊗p)
        return [v for terms in products[x * n:x * n + n]
                for v in _combination(codes, terms, rows.__getitem__, n2)]

    def w_h_m_h(x):  # ω(x⊗kl⊗p)
        run = [rows[x][t * n:t * n + n] for t in range(n)].__getitem__
        return [v for terms in products for v in _combination(codes, terms, run, n)]

    def w_eps(x):  # ω(x⊗k⊗l)·ε(p)
        return [codes.mul(v, e) for v in rows[x] for e in eps]

    def eps_w_m(x):  # ((ε⊗ω) ∗ ω(H⊗m⊗H)) at x, where (ε⊗ω) at x₁ is ε(x₁)·ω
        terms = [(x2, e) for x1, x2, c in delta[x] if live[x2] and (e := codes.mul(eps[x1], c))]
        return _combination(codes, terms, lambda x2: _convolve(H, w, w_h_m_h(x2), 3), n3)

    for h in range(n):
        lhs = _combination(codes, [((a, b), c) for a, b, c in delta[h] if live[a]],
                           lambda ab: _convolve(H, w_hh_m(ab[0]), w_m_hh(ab[1]), 3), n3)
        rhs = _combination(codes, [((a, b), c) for a, b, c in delta[h] if live[b]],
                           lambda ab: _convolve(H, eps_w_m(ab[0]), w_eps(ab[1]), 3), n3)
        if lhs != rhs:
            check = _first_difference("cocycle-identity", lhs, rhs, codes.values, n, 3)
            return Check(check.axiom, False, (h,) + check.witness, check.lhs, check.rhs)
    return Check("cocycle-identity", True)


def _cocycle_normalization(H, slot, j, k):
    """ω(h⊗k⊗l) = ε(h)ε(k)ε(l) whenever the unit element sits in a slot."""
    acc = H.field.zero
    for u, cu in H.unit_terms():
        args = [j, k]
        args.insert(slot, u)
        acc = acc + cu * H.omega_at(*args)
    return acc, H.eps(j) * H.eps(k)


def _quasi_associativity(H, i, j, k):
    """h₁(k₁l₁)·ω(h₂⊗k₂⊗l₂) = ω(h₁⊗k₁⊗l₁)·(h₂k₂)l₂ on basis triples, as codes."""
    n = H.dim
    mul, put = H._codes.mul, H._codes.put
    delta, products, w = H._coded_delta, H._coded_products, H._coded_omega
    lhs: dict = {}
    rhs: dict = {}
    for a1, a2, ca in delta[i]:
        for b1, b2, cb in delta[j]:
            cab = mul(ca, cb)
            for c1, c2, cc in delta[k]:
                coeff = mul(cab, cc)
                v = w[(a2 * n + b2) * n + c2]
                if v:
                    v = mul(coeff, v)
                    for t, cm in products[b1 * n + c1]:
                        for t2, cm2 in products[a1 * n + t]:
                            put(lhs, (t2,), mul(mul(v, cm), cm2))
                v = w[(a1 * n + b1) * n + c1]
                if v:
                    v = mul(coeff, v)
                    for t, cm in products[a2 * n + b2]:
                        for t2, cm2 in products[t * n + c2]:
                            put(rhs, (t2,), mul(mul(v, cm), cm2))
    return lhs, rhs


def _unit_law(H, left, i):
    acc: dict = {}
    for u, cu in H.unit_terms():
        pairs = H.mul_terms(u, i) if left else H.mul_terms(i, u)
        for t, c in pairs:
            _add(acc, (t,), cu * c)
    return acc, {(i,): H.field.one}


def validate_dqb(H: DualQuasiBialgebra) -> Report:
    """Exhaustively check every defining identity of a dual quasi-bialgebra.

    Fixed order: coalgebra axioms, coalgebra-map conditions on m and u,
    reassociator invertibility, cocycle identities, quasi-associativity,
    unit laws.  Each failing entry carries the first offending basis tuple
    in lexicographic order and both values.
    """
    n = H.dim

    def holds(axiom, arity, sides, *args, values=None):
        witnesses = [None] if arity is None else basis_tuples(*[n] * arity)
        return check_identity(axiom, witnesses, partial(sides, H, *args), values)

    return Report((
        holds("coassociativity", 1, _coassociativity),
        holds("counit-left", 1, _counit_law, 0),
        holds("counit-right", 1, _counit_law, 1),
        holds("multiplication-comultiplicative", 2, _mul_comultiplicative),
        holds("multiplication-counital", 2, _mul_counital),
        holds("unit-comultiplicative", None, _unit_comultiplicative),
        holds("unit-counital", None, _unit_counital),
        _reassociator_invertible(H),
        _cocycle_identity(H),
        holds("cocycle-normalization-left", 2, _cocycle_normalization, 0),
        holds("cocycle-normalization-middle", 2, _cocycle_normalization, 1),
        holds("cocycle-normalization-right", 2, _cocycle_normalization, 2),
        holds("quasi-associativity", 3, _quasi_associativity, values=H._codes.values),
        holds("unit-left", 1, _unit_law, True),
        holds("unit-right", 1, _unit_law, False),
    ))
