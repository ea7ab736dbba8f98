"""Independent sympy oracle for the preantipode system over ℚ.

Derives the three defining identities straight from a document's structure
constants, with no code from the package:

    S(x₂)₁ ⊗ x₁S(x₂)₂ = S(x) ⊗ 1
    S(x₁)₁x₂ ⊗ S(x₁)₂ = 1 ⊗ S(x)
    ω(x₁ ⊗ S(x₂) ⊗ x₃) = ε(x)

and solves them with ``sympy.linsolve``.  Unlike the grouplike oracle in
``tests/helpers.py`` it also covers a non-grouplike Δ (Sweedler's algebra)
and the empty solution set (the idempotent-monoid control).
"""

from __future__ import annotations

from collections import defaultdict

import sympy


def preantipode_solution(doc: dict):
    """``(particular, free)`` for a rational algebra document, or None when
    no preantipode exists.  ``particular`` is the matrix as strings in the
    document convention (``[row][col]`` is the coefficient of e_row in the
    image of e_col), with every free parameter set to zero."""
    if doc["field"]["kind"] != "rationals":
        raise ValueError("the oracle works over the rationals only")
    n = doc["dim"]
    q = sympy.Rational
    delta, mul = defaultdict(list), defaultdict(list)
    for i, j, k, c in doc["delta"]:
        delta[i].append((j, k, q(c)))
    for a, b, t, c in doc["mul"]:
        mul[a, b].append((t, q(c)))
    omega = {(i, j, k): q(c) for i, j, k, c in doc["omega"]}
    unit = [q(c) for c in doc["unit"]]
    counit = [q(c) for c in doc["counit"]]
    syms = sympy.symbols(f"s0:{n * n}")

    def s(h, k):  # coefficient of e_h in S(e_k)
        return syms[h * n + k]

    eqs = []
    for x in range(n):
        right, left = defaultdict(int), defaultdict(int)
        for j, k, c in delta[x]:
            for h in range(n):
                for p, r, d in delta[h]:
                    for t, m in mul[j, r]:
                        right[p, t] += c * d * m * s(h, k)
                    for t, m in mul[p, k]:
                        left[t, r] += c * d * m * s(h, j)
        for a in range(n):
            for b in range(n):
                right[a, b] -= s(a, x) * unit[b]
                left[a, b] -= unit[a] * s(b, x)
        counit_eq = -counit[x]
        for j, k, c in delta[x]:
            for a, b, c2 in delta[j]:
                for h in range(n):
                    counit_eq += c * c2 * omega.get((a, h, k), 0) * s(h, b)
        eqs.extend(right.values())
        eqs.extend(left.values())
        eqs.append(counit_eq)
    solset = sympy.linsolve([e for e in eqs if e != 0], syms)
    if not solset:
        return None
    (solution,) = solset
    free = solution.free_symbols
    zeroed = [v.subs({f: 0 for f in free}) for v in solution]
    particular = [[str(zeroed[h * n + k]) for k in range(n)] for h in range(n)]
    return particular, len(free)
