"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from dualquasi import (Bicomodule, DualQuasiBialgebra, Field, LeftComodule,
                       Matrix, inverse)
from dualquasi.groups import (Cocycle, GroupData, GroupExample,
                              canonical_group_preantipode, cyclic_group_example,
                              group_antipode_data, group_dqb,
                              idempotent_monoid_bialgebra)

CYCLIC_PARAMS = [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)]

_example_cache: dict = {}


def bundled_examples():
    """The six cyclic-group examples used throughout the suite."""
    out = []
    for n, r in CYCLIC_PARAMS:
        key = (n, r)
        if key not in _example_cache:
            _example_cache[key] = cyclic_group_example(n, r)
        out.append(_example_cache[key])
    return out


def control_bialgebra() -> DualQuasiBialgebra:
    if "control" not in _example_cache:
        _example_cache["control"] = idempotent_monoid_bialgebra()
    return _example_cache["control"]


def symmetric_group_with_sign_cocycle():
    """S₃ from its table, with the ℤ₂ cocycle (a,b,c) ↦ (−1)^(abc) pulled back
    along the sign map; S₃ is non-abelian, so hk and kh differ."""
    Q = Field.rationals()
    perms = list(permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
             for p in perms]
    group = GroupData.from_table(table)
    parity = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
              for p in perms]
    theta = Cocycle.from_function(
        group, Q, lambda g, h, k: Q.from_fraction((-1) ** (parity[g] * parity[h] * parity[k])))
    return group, theta


def twisted_by_coboundary(group, theta, seed):
    """θ·δf for a seeded normalized 2-cochain f, with
    δf(g,h,k) = f(h,k)·f(gh,k)⁻¹·f(g,hk)·f(g,h)⁻¹; again a normalized cocycle,
    whose values now depend on the products themselves."""
    rng = random.Random(seed)
    n, mul, e, one = group.order, group.mul, group.identity, theta.field.one
    f = [[one if e in (g, h) else theta.field.from_fraction(rng.choice([2, 3, -1, Fraction(1, 2)]))
          for h in range(n)] for g in range(n)]
    return Cocycle.from_function(
        group, theta.field,
        lambda g, h, k: theta.theta(g, h, k) * f[h][k] / f[mul(g, h)][k]
        * f[g][mul(h, k)] / f[g][h])


def symmetric_group_examples():
    """The algebra of S₃, the only non-abelian group in the suite, once with
    the sign cocycle and once with its coboundary twist: algebra, antipode
    datum and closed-form preantipode, each built by the library."""
    if "S3" not in _example_cache:
        group, theta = symmetric_group_with_sign_cocycle()
        _example_cache["S3"] = [
            GroupExample(name, group, cocycle, group_dqb(group, cocycle),
                         group_antipode_data(group, cocycle),
                         canonical_group_preantipode(group, cocycle))
            for name, cocycle in (("S3", theta),
                                  ("S3 twisted", twisted_by_coboundary(group, theta, 5)))]
    return _example_cache["S3"]


def random_conjugator(field: Field, d: int, rng: random.Random) -> Matrix:
    """A small-entry invertible matrix: a product of two transvections."""
    P = Matrix.identity(field, d)
    for _ in range(2):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        lam = field.from_fraction(rng.choice([1, -1, 2]))
        T = Matrix.from_terms(field, d, d,
                              [(k, k, field.one) for k in range(d)] + [(i, j, lam)])
        P = P @ T
    return P


def random_left_comodule(H: DualQuasiBialgebra, group: GroupData,
                         rng: random.Random, max_dim: int = 3) -> LeftComodule:
    """A group-graded comodule in a randomly twisted basis; valid by construction."""
    d = rng.randint(1, max_dim)
    field = H.field
    grades = [rng.randrange(group.order) for _ in range(d)]
    rho = Matrix.from_terms(field, group.order * d, d,
                            [(grades[i] * d + i, i, field.one) for i in range(d)])
    P = random_conjugator(field, d, rng)
    rho = Matrix.identity(field, group.order).kron(inverse(P)) @ rho @ P
    return LeftComodule(d, rho)


def random_bicomodule(H: DualQuasiBialgebra, group: GroupData,
                      rng: random.Random, max_dim: int = 3) -> Bicomodule:
    """A bigraded bicomodule in a randomly twisted basis; valid by construction."""
    d = rng.randint(1, max_dim)
    field = H.field
    n = group.order
    gl = [rng.randrange(n) for _ in range(d)]
    gr = [rng.randrange(n) for _ in range(d)]
    rho_l = Matrix.from_terms(field, n * d, d,
                              [(gl[i] * d + i, i, field.one) for i in range(d)])
    rho_r = Matrix.from_terms(field, d * n, d,
                              [(i * n + gr[i], i, field.one) for i in range(d)])
    P = random_conjugator(field, d, rng)
    Pinv = inverse(P)
    I = Matrix.identity(field, n)
    return Bicomodule(d, I.kron(Pinv) @ rho_l @ P, Pinv.kron(I) @ rho_r @ P)


def rational(scalar) -> Fraction:
    """Extract the rational value of a scalar over the rational field."""
    assert len(scalar.coeffs) == 1
    return scalar.coeffs[0]


def with_entry(m: Matrix, row: int, col: int, value) -> Matrix:
    """A copy of m with one entry replaced."""
    entries = list(m.entries)
    entries[row * m.cols + col] = value
    return Matrix(m.field, m.rows, m.cols, entries)


def with_parts(H: DualQuasiBialgebra, **parts) -> DualQuasiBialgebra:
    """H with some structure constants replaced; omega_inv is kept as given."""
    p = {"delta": H.delta, "counit": H.counit, "mul": H.mul, "unit": H.unit,
         "omega": H.omega, "omega_inv": H.omega_inv, **parts}
    return DualQuasiBialgebra(H.field, H.dim, p["delta"], p["counit"], p["mul"],
                              p["unit"], p["omega"], p["omega_inv"])


def sweedler_four_dim_hopf():
    """Sweedler's four-dimensional Hopf algebra over the rationals.

    Basis 1, g, x, gx with g² = 1, x² = 0, xg = −gx, Δg = g⊗g,
    Δx = x⊗1 + g⊗x.  Noncommutative and noncocommutative, so it exercises
    the multi-term comultiplication paths the grouplike examples never hit.
    Returns (algebra, antipode data); the antipode is s(g) = g, s(x) = −gx.
    """
    if "sweedler" in _example_cache:
        return _example_cache["sweedler"]
    from dualquasi import DualQuasiBialgebra
    from dualquasi.dqb import AntipodeData

    Q = Field.rationals()
    one, zero = Q.one, Q.zero
    delta = Matrix.from_terms(Q, 16, 4, [
        (0 * 4 + 0, 0, one),
        (1 * 4 + 1, 1, one),
        (2 * 4 + 0, 2, one), (1 * 4 + 2, 2, one),
        (3 * 4 + 1, 3, one), (0 * 4 + 3, 3, one),
    ])
    counit = Matrix.row_vector(Q, [one, one, zero, zero])
    products = [
        (0, (0, 0), 1), (1, (0, 1), 1), (2, (0, 2), 1), (3, (0, 3), 1),
        (1, (1, 0), 1), (0, (1, 1), 1), (3, (1, 2), 1), (2, (1, 3), 1),
        (2, (2, 0), 1), (3, (2, 1), -1),
        (3, (3, 0), 1), (2, (3, 1), -1),
    ]
    mul = Matrix.from_terms(Q, 4, 16, [(r, a * 4 + b, Q.from_fraction(c))
                                       for r, (a, b), c in products])
    unit = Matrix.column_vector(Q, [one, zero, zero, zero])
    omega = Matrix.row_vector(Q, [
        counit.entries[i] * counit.entries[j] * counit.entries[k]
        for i in range(4) for j in range(4) for k in range(4)])
    H = DualQuasiBialgebra(Q, 4, delta, counit, mul, unit, omega)
    s = Matrix.from_terms(Q, 4, 4, [(0, 0, one), (1, 1, one),
                                    (3, 2, Q.from_fraction(-1)), (2, 3, one)])
    data = AntipodeData(s, counit, counit)
    _example_cache["sweedler"] = (H, data)
    return H, data


def taft_algebra(n: int):
    """The Taft algebra T_n over ℚ(ζ_n) and its antipode datum.

    Basis g^i x^j (0 ≤ i, j < n) at index i·n + j, with x g = ζ g x, gⁿ = 1,
    xⁿ = 0 and Δ(g^i x^j) = Σ_k C(j,k)_ζ g^{i+k} x^{j−k} ⊗ g^i x^k, where the
    ζ-binomials satisfy C(j,k) = C(j−1,k−1) + ζ^k C(j−1,k); ε(g^i x^j) = δ_{j,0}
    and ω = ε⊗ε⊗ε.  The antipode datum is s(g^i x^j) = (−g⁻¹x)^j g^{−i} with
    α = β = ε.  Δ is not grouplike for n ≥ 2, and T₂ is Sweedler's algebra
    with its basis in another order.
    """
    if ("taft", n) in _example_cache:
        return _example_cache["taft", n]
    from dualquasi.dqb import AntipodeData

    F = Field.cyclotomic(n)
    N = n * n

    def index(i, j):
        return i % n * n + j

    def product(a, b):
        """(g^i x^j)(g^k x^l) = ζ^{jk} g^{i+k} x^{j+l}, as its only term or none."""
        (i, j), (k, l) = divmod(a, n), divmod(b, n)
        return [] if j + l >= n else [(index(i + k, j + l), F.zeta(j * k))]

    binomial = [[F.one]]
    for j in range(1, n):
        prev = binomial[-1] + [F.zero]
        binomial.append([prev[0]] + [prev[k - 1] + F.zeta(k) * prev[k] for k in range(1, j + 1)])
    delta = Matrix.from_terms(F, N * N, N, (
        (index(i + k, j - k) * N + index(i, k), index(i, j), binomial[j][k])
        for i in range(n) for j in range(n) for k in range(j + 1)))
    mul = Matrix.from_terms(F, N, N * N, ((t, a * N + b, c) for a in range(N)
                                          for b in range(N) for t, c in product(a, b)))
    eps = [F.one if a % n == 0 else F.zero for a in range(N)]
    counit = Matrix.row_vector(F, eps)
    omega = Matrix.row_vector(F, [eps[a] * eps[b] * eps[c]
                                  for a in range(N) for b in range(N) for c in range(N)])

    def s_entry(a):
        """s(g^i x^j) = (−g⁻¹x)^j g^{−i} as its one entry (row, a, coefficient)."""
        i, j = divmod(a, n)
        term, c = index(-i, 0), F.one
        for _ in range(j):
            ((term, c2),) = product(index(-1, 1), term)
            c = -c * c2
        return term, a, c

    s = Matrix.from_terms(F, N, N, map(s_entry, range(N)))
    unit = Matrix.column_vector(F, [F.one] + [F.zero] * (N - 1))
    out = (DualQuasiBialgebra(F, N, delta, counit, mul, unit, omega),
           AntipodeData(s, counit, counit))
    _example_cache["taft", n] = out
    return out


def sympy_grouplike_preantipode(group: GroupData, theta_fraction):
    """Independent parametric oracle for the preantipode system on a group
    algebra over the rationals.

    Derives the equations directly from the grouplike simplification (every
    Δ(e_g) = e_g⊗e_g), with theta_fraction(g,h,k) -> Fraction, and solves
    them with sympy.  Returns (particular as row-major Fractions with free
    parameters set to zero, number of free parameters, residual callable).
    """
    import sympy

    n = group.order
    syms = sympy.symbols(f"s0:{n * n}")  # S[h][x] at index h*n + x

    def entry(h, x):
        return syms[h * n + x]

    eqs = []
    e = group.identity
    for x in range(n):
        # S(x₂)₁ ⊗ x₁S(x₂)₂ = S(x)⊗1 componentwise at (p, q)
        for p in range(n):
            for q in range(n):
                coeff = (1 if group.mul(x, p) == q else 0) - (1 if q == e else 0)
                if coeff:
                    eqs.append(coeff * entry(p, x))
        # S(x₁)₁x₂ ⊗ S(x₁)₂ = 1⊗S(x) componentwise at (p, q)
        for p in range(n):
            for q in range(n):
                coeff = (1 if group.mul(q, x) == p else 0) - (1 if p == e else 0)
                if coeff:
                    eqs.append(coeff * entry(q, x))
        # ω(x₁ ⊗ S(x₂) ⊗ x₃) = ε(x)
        eqs.append(sympy.Add(*[
            entry(h, x) * sympy.Rational(theta_fraction(x, h, x)) for h in range(n)
        ]) - 1)

    solset = sympy.linsolve(eqs, syms)
    if not solset:
        return None
    (solution,) = solset
    free = sorted(solution.free_symbols, key=lambda s: s.name)
    zeroed = [expr.subs({s: 0 for s in free}) for expr in solution]
    particular = [Fraction(int(sympy.fraction(v)[0]), int(sympy.fraction(v)[1]))
                  for v in [sympy.nsimplify(v) for v in zeroed]]

    def residual(flat_fractions):
        subs = {syms[i]: sympy.Rational(flat_fractions[i]) for i in range(n * n)}
        return [sympy.simplify(eq.subs(subs)) for eq in eqs]

    return particular, len(free), residual


def twist(H: DualQuasiBialgebra, gamma: Matrix) -> DualQuasiBialgebra:
    """The gauge twist of H by a normalized, convolution invertible γ on H⊗H.

    The coalgebra stays the same, and

        m^γ(x⊗y) = γ(x₁,y₁)·x₂y₂·γ⁻¹(x₃,y₃),
        ω^γ = (ε⊗γ) ∗ γ(id⊗m) ∗ ω ∗ γ⁻¹(m⊗id) ∗ (γ⁻¹⊗ε)  on H⊗H⊗H.
    """
    from dualquasi import convolution, convolution_inverse

    n, field = H.dim, H.field
    gamma_inv = convolution_inverse(H, gamma, arity=2)
    assert gamma_inv is not None, "γ is not convolution invertible"
    g, gi, eps = gamma.entries, gamma_inv.entries, H.counit.entries
    mul_terms = []
    for x in range(n):
        for y in range(n):
            for (x1, x2, x3), cx in H.delta2[x]:
                for (y1, y2, y3), cy in H.delta2[y]:
                    coeff = cx * cy * g[x1 * n + y1] * gi[x3 * n + y3]
                    if coeff:
                        mul_terms.extend((t, x * n + y, coeff * c)
                                         for t, c in H.mul_terms(x2, y2))
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]

    def functional(value):
        return Matrix.row_vector(field, [value(*t) for t in triples])

    def on_product(f, x, y, z, left):
        """f(xy⊗z) when ``left``, else f(x⊗yz), for a functional f on H⊗H."""
        if left:
            return sum((c * f[t * n + z] for t, c in H.mul_terms(x, y)), field.zero)
        return sum((c * f[x * n + t] for t, c in H.mul_terms(y, z)), field.zero)

    factors = [functional(lambda x, y, z: eps[x] * g[y * n + z]),
               functional(lambda x, y, z: on_product(g, x, y, z, False)),
               H.omega,
               functional(lambda x, y, z: on_product(gi, x, y, z, True)),
               functional(lambda x, y, z: gi[x * n + y] * eps[z])]
    omega = factors[0]
    for f in factors[1:]:
        omega = convolution(H, omega, f, arity=3)
    return DualQuasiBialgebra(field, n, H.delta, H.counit,
                              Matrix.from_terms(field, n, n * n, mul_terms), H.unit, omega)


def twisted_sweedler() -> DualQuasiBialgebra:
    """Sweedler's algebra twisted by γ = ε⊗ε except γ(x,gx) = 3, γ(gx,x) = −1:
    a non-grouplike Δ together with a nontrivial ω."""
    if "twisted_sweedler" not in _example_cache:
        H, _ = sweedler_four_dim_hopf()
        Q = H.field
        eps = H.counit.entries
        special = {(2, 3): 3, (3, 2): -1}
        gamma = Matrix.row_vector(Q, [
            Q.from_fraction(special[a, b]) if (a, b) in special else eps[a] * eps[b]
            for a in range(4) for b in range(4)])
        _example_cache["twisted_sweedler"] = twist(H, gamma)
    return _example_cache["twisted_sweedler"]
