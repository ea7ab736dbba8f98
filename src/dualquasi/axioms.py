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


def _omega_with_product(H, w: list[int], slot: int) -> list[int]:
    """ω with the product of two factors in slot 0, 1 or 2, as codes on H^⊗4
    in flat order: ω(hk⊗l⊗p), ω(h⊗kl⊗p) or ω(h⊗k⊗lp).  ``w`` holds the
    codes of ω."""
    n = H.dim
    mul, add = H._codes.mul, H._codes.add
    heads, tail = n ** slot, n ** (2 - slot)
    # ω(head⊗t⊗x) sits at in + t·tail and the value at a⊗b in the slot at
    # out + (a·n + b)·tail, where (in, out) = (head·n·tail + x, head·n²·tail + x);
    # each product is copied in runs along the longer of the head and x axes
    if heads <= tail:
        runs = [(h * n * tail, h * n * n * tail) for h in range(heads)]
        length, in_step, out_step = tail, 1, 1
    else:
        runs = [(x, x) for x in range(tail)]
        length, in_step, out_step = heads, n * tail, n * n * tail
    out = [0] * n ** 4
    for ab, terms in enumerate(H._coded_products):
        for start, target in runs:
            # the run of a product is Σ c·ω over the runs of its terms
            run = [0] * length
            for t, c in terms:
                i = start + t * tail
                part = w[i:i + length * in_step:in_step]
                if c != 1:
                    part = [mul(c, v) for v in part]
                run = part if len(terms) == 1 else list(map(add, run, part))
            o = target + ab * tail
            out[o:o + length * out_step:out_step] = run
    return out


def _cocycle_identity(H) -> Check:
    """ω(H⊗H⊗m) ∗ ω(m⊗H⊗H) = (ε⊗ω) ∗ ω(H⊗m⊗H) ∗ (ω⊗ε) on H⊗4."""
    if H.omega.is_zero():
        # every term on either side has an ω factor: both sides are zero,
        # and the dense code lists on H^⊗4 are not built
        return Check("cocycle-identity", True)
    codes = H._codes
    mul = codes.mul
    eps, w = H._coded_counit, H._coded_omega
    eps_w = [mul(e, v) for e in eps for v in w]
    w_eps = [mul(v, e) for v in w for e in eps]
    lhs = _convolve(H, _omega_with_product(H, w, 2), _omega_with_product(H, w, 0), 4)
    rhs = _convolve(H, _convolve(H, eps_w, _omega_with_product(H, w, 1), 4), w_eps, 4)
    return _first_difference("cocycle-identity", lhs, rhs, codes.values, H.dim, 4)


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
