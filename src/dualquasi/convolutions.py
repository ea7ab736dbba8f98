"""The convolution algebra of functionals on tensor powers of a dual
quasi-bialgebra: f∗g, and the convolution inverse as an exact linear solve.

Convolutions run on the algebra's value codes (``dqb._Codes``); ε⊗…⊗ε is the
two-sided unit.
"""

from __future__ import annotations

from .dqb import DualQuasiBialgebra
from .errors import DimensionMismatch
from .linalg import Matrix


def _functional_arity(H: DualQuasiBialgebra, f: Matrix, arity: int | None) -> int:
    if f.rows != 1:
        raise DimensionMismatch("functionals are row vectors")
    n = H.dim
    if arity is not None:
        if f.cols != n ** arity:
            raise DimensionMismatch(f"functional has {f.cols} columns, expected {n ** arity}")
        return arity
    if n == 1:
        if f.cols != 1:
            raise DimensionMismatch("functional on a 1-dimensional coalgebra must have 1 column")
        return 1
    k, p = 0, 1
    while p < f.cols:
        p *= n
        k += 1
    if p != f.cols:
        raise DimensionMismatch(f"{f.cols} columns is not a tensor power of {n}")
    return k


def _convolve(H: DualQuasiBialgebra, f, g, k: int) -> list[int]:
    """Codes of f∗g on H^⊗k in flat order, from the codes of f and g, read
    off H's split table of arity k."""
    mul, add = H._codes.mul, H._codes.add
    out = []
    for terms in H.split_table(k):
        if len(terms) == 1:
            (lf, rf, c), = terms
            v = mul(f[lf], g[rf])
            out.append(v if c == 1 else mul(v, c))
            continue
        acc = 0
        for lf, rf, c in terms:
            fv = f[lf]
            if not fv:
                continue
            gv = g[rf]
            if not gv:
                continue
            acc = add(acc, mul(mul(fv, gv), c))
        out.append(acc)
    return out


def convolution(H: DualQuasiBialgebra, f: Matrix, g: Matrix,
                arity: int | None = None) -> Matrix:
    """Convolution f∗g of functionals on a common tensor power of H.

    (f∗g)(x) = Σ f(x₍₁₎)·g(x₍₂₎) with the componentwise comultiplication of
    the tensor-power coalgebra; ε⊗…⊗ε is the two-sided unit.  Like
    ``convolution_inverse`` it builds and keeps H's split table of arity k.
    """
    k = _functional_arity(H, f, arity)
    if _functional_arity(H, g, arity) != k:
        raise DimensionMismatch("convolution factors live on different tensor powers")
    # the codes of H's numbering are scalars of H's field
    if f.field != H.field:
        raise ValueError(f"scalars from different fields: {f.field!r} vs {H.field!r}")
    if g.field != H.field:
        raise ValueError(f"scalars from different fields: {H.field!r} vs {g.field!r}")
    codes = H._codes
    out = _convolve(H, codes.encode(f.entries), codes.encode(g.entries), k)
    return Matrix.row_vector(H.field, [codes.values[c] for c in out])


def convolution_inverse(H: DualQuasiBialgebra, f: Matrix,
                        arity: int | None = None) -> Matrix | None:
    """Two-sided convolution inverse of f, or None when it does not exist.

    Solves the linear system f∗g = ε^⊗k exactly, then verifies g∗f = ε^⊗k.
    """
    from .elimination import solve_affine

    k = _functional_arity(H, f, arity)
    N = H.dim ** k
    fe = f.entries
    values = H._codes.values
    system = Matrix.from_terms(H.field, N, N, (
        (x, rf, fv * values[c])
        for x, terms in enumerate(H.split_table(k))
        for lf, rf, c in terms if (fv := fe[lf])))
    eps_k = H.counit_power(k)
    sol = solve_affine(system, eps_k.entries)
    if sol is None:
        return None
    g = Matrix.row_vector(H.field, list(sol.particular))
    if convolution(H, g, f, arity=k) != eps_k:
        return None
    return g
