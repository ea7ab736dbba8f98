"""Finite groups and 3-cochains as raw data, group algebras with normalized
3-cocycles, and the negative control example.

A normalized 3-cocycle θ on a finite group extends trilinearly to a
reassociator on the group algebra, turning it into a dual quasi-bialgebra
with the usual grouplike coalgebra structure.  The canonical dual quasi-Hopf
datum is s(g) = g⁻¹, α = ε, β(g) = ω(g,g⁻¹,g)⁻¹, and the resulting
preantipode is S(g) = ω(g,g⁻¹,g)⁻¹·g⁻¹.
"""

from __future__ import annotations

from .dqb import AntipodeData, DualQuasiBialgebra, _Codes
from .errors import InvariantViolation
from .fields import Field
from .linalg import Matrix, tensor_unindex
from .report import Check, Report, basis_tuples, check_identity
from .scalars import Scalar
from .values import Value


class GroupData(Value):
    """A finite group: index-valued multiplication table, identity, inverses."""

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], identity: int,
                 inverse: tuple[int, ...]):
        self._set(order, table, identity, inverse)

    @classmethod
    def from_table(cls, table) -> "GroupData":
        """Build from a multiplication table, verifying the group axioms."""
        n = len(table)
        rows = tuple(tuple(row) for row in table)
        for g, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {g} has length {len(row)}, expected {n}")
            for h, v in enumerate(row):
                if not 0 <= v < n:
                    raise ValueError(f"table entry ({g},{h}) = {v} out of range")
        identity = None
        for e in range(n):
            if all(rows[e][g] == g == rows[g][e] for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no two-sided identity")
        inverse = []
        for g in range(n):
            inv = next((h for h in range(n)
                        if rows[g][h] == identity == rows[h][g]), None)
            if inv is None:
                raise ValueError(f"element {g} has no inverse")
            inverse.append(inv)
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    if rows[rows[g][h]][k] != rows[g][rows[h][k]]:
                        raise ValueError(f"table is not associative at ({g},{h},{k})")
        return cls(n, rows, identity, tuple(inverse))

    @classmethod
    def cyclic(cls, n: int) -> "GroupData":
        """The cyclic group of order n; element a represents the a-th power."""
        if n < 1:
            raise ValueError("order must be positive")
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(n, table, 0, tuple((-a) % n for a in range(n)))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]


class Cocycle(Value):
    """A total map G×G×G → nonzero scalars, stored flat (g·N² + h·N + k)."""

    __slots__ = ("field", "order", "values")

    def __init__(self, field: Field, order: int, values: tuple[Scalar, ...]):
        if len(values) != order ** 3:
            raise ValueError(
                f"cocycle needs {order ** 3} values, got {len(values)}")
        self._set(field, order, values)

    @classmethod
    def from_function(cls, group: GroupData, field: Field, fn) -> "Cocycle":
        n = group.order
        values = [fn(g, h, k) for g in range(n) for h in range(n) for k in range(n)]
        return cls(field, n, tuple(values))

    def theta(self, g: int, h: int, k: int) -> Scalar:
        n = self.order
        return self.values[(g * n + h) * n + k]


def validate_cocycle(group: GroupData, theta: Cocycle) -> Report:
    """Check that θ is nowhere zero, normalized (θ(g,1,h) = 1), and satisfies

        θ(h,k,l)·θ(g,hk,l)·θ(g,h,k) = θ(g,h,kl)·θ(gh,k,l)

    for all group quadruples, exhaustively."""
    n = group.order
    if theta.order != n:
        return Report((Check("cocycle-total", False, None,
                             f"defined on a group of order {theta.order}",
                             f"group has order {n}"),))
    codes = _Codes((theta.field.zero, theta.field.one))
    c = codes.encode(theta.values)
    e = group.identity
    return Report((
        Check("cocycle-nonzero", True) if 0 not in c
        else Check("cocycle-nonzero", False, tensor_unindex(c.index(0), n, 3),
                   "0", "nonzero"),
        check_identity("cocycle-normalized", ((g, e, h) for g, h in basis_tuples(n, n)),
                       lambda *w: (theta.theta(*w), theta.field.one)),
        _cocycle_identity(group, codes, c),
    ))


def _cocycle_identity(group: GroupData, codes: _Codes, c: list[int]) -> Check:
    """θ(h,k,l)·θ(g,hk,l)·θ(g,h,k) = θ(g,h,kl)·θ(gh,k,l) on the codes c of θ,
    all l at once; the first failing quadruple in lexicographic order is the
    witness."""
    n, table, mul = group.order, group.table, codes.mul

    def row(g, h):  # θ(g, h, ·)
        start = (g * n + h) * n
        return c[start:start + n]

    for g, h, k in basis_tuples(n, n, n):
        ghk = c[(g * n + h) * n + k]
        lhs = [mul(mul(a, b), ghk) for a, b in zip(row(h, k), row(g, table[h][k]))]
        gh_row = row(g, h)
        rhs = [mul(gh_row[kl], b) for kl, b in zip(table[k], row(table[g][h], k))]
        if lhs != rhs:
            l = next(l for l in range(n) if lhs[l] != rhs[l])
            return Check("cocycle-identity", False, (g, h, k, l),
                         str(codes.values[lhs[l]]), str(codes.values[rhs[l]]))
    return Check("cocycle-identity", True)


def trivial_cocycle(group: GroupData, field: Field | None = None) -> Cocycle:
    if field is None:
        field = Field.rationals()
    return Cocycle(field, group.order, (field.one,) * group.order ** 3)


def cyclic_cocycle(n: int, r: int, field: Field | None = None) -> Cocycle:
    """The standard normalized 3-cocycle on the cyclic group of order n:

        θ(gᵃ, gᵇ, gᶜ) = ζⁿ^(r·a·⌊(b+c)/n⌋),   a, b, c ∈ {0, …, n−1}.

    Exponent representatives are fixed to {0,…,n−1} before applying the
    formula; the output is validated exhaustively (the validation is this
    construction's own correctness oracle)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= r < n:
        raise ValueError(f"r must lie in [0, {n}), got {r}")
    group = GroupData.cyclic(n)
    if field is None:
        field = Field.rationals() if (r == 0 or n <= 2) else Field.cyclotomic(n)
    if field.kind == "rationals":
        if r and n > 2:
            raise ValueError(f"a primitive {n}-th root of unity is not rational")
        root = field.from_fraction(-1) if n == 2 else field.one
    else:
        if field.order != n:
            raise ValueError(f"need the cyclotomic field of order {n}, got {field.order}")
        root = field.zeta(1)

    powers = [field.one]
    for _ in range(n - 1):
        powers.append(powers[-1] * root)

    def value(a, b, c):
        return powers[(r * a * ((b + c) // n)) % n]

    theta = Cocycle.from_function(group, field, value)
    rep = validate_cocycle(group, theta)
    if not rep.ok:
        raise InvariantViolation(f"generated cocycle failed {rep.failures[0].axiom}")
    return theta


def group_dqb(group: GroupData, theta: Cocycle) -> DualQuasiBialgebra:
    """The group algebra as a dual quasi-bialgebra: grouplike basis, product
    from the group table, reassociator the trilinear extension of θ."""
    rep = validate_cocycle(group, theta)
    if not rep.ok:
        raise ValueError(f"invalid cocycle: {rep.failures[0].axiom}")
    return _table_algebra(theta.field, group.table, group.identity, theta.values)


def _table_algebra(field: Field, table, identity: int, omega) -> DualQuasiBialgebra:
    """The algebra of a finite multiplication table with identity: grouplike
    basis, all-ones counit, product e_g·e_h = e_{table[g][h]}, and the
    reassociator with values ω (flat, g·N² + h·N + k) and ω⁻¹ pointwise."""
    n = len(table)
    one = field.one
    inverses = {v: v.inverse() for v in dict.fromkeys(omega)}
    return DualQuasiBialgebra(
        field, n,
        Matrix.from_terms(field, n * n, n, ((g * n + g, g, one) for g in range(n))),
        Matrix.row_vector(field, [one] * n),
        Matrix.from_terms(field, n, n * n, ((table[g][h], g * n + h, one)
                                            for g in range(n) for h in range(n))),
        Matrix.from_terms(field, n, 1, ((identity, 0, one),)),
        Matrix.row_vector(field, omega),
        Matrix.row_vector(field, [inverses[v] for v in omega]),
    )


def group_antipode_data(group: GroupData, theta: Cocycle) -> AntipodeData:
    """The canonical dual quasi-Hopf datum: s(g) = g⁻¹, α = ε,
    β(g) = ω(g,g⁻¹,g)⁻¹."""
    field = theta.field
    n = group.order
    s = Matrix.from_terms(field, n, n, ((group.inv(g), g, field.one) for g in range(n)))
    alpha = Matrix.row_vector(field, [field.one] * n)
    beta = Matrix.row_vector(
        field, [theta.theta(g, group.inv(g), g).inverse() for g in range(n)])
    return AntipodeData(s, alpha, beta)


def canonical_group_preantipode(group: GroupData, theta: Cocycle) -> Matrix:
    """S(g) = ω(g,g⁻¹,g)⁻¹·g⁻¹, written down directly from the closed formula."""
    return Matrix.from_terms(theta.field, group.order, group.order, (
        (group.inv(g), g, theta.theta(g, group.inv(g), g).inverse())
        for g in range(group.order)))


def idempotent_monoid_bialgebra(field: Field | None = None) -> DualQuasiBialgebra:
    """The monoid algebra of {1, e} with e² = e: an ordinary bialgebra with
    grouplike basis, trivial reassociator, and provably no preantipode.

    Serves as the negative control: the preantipode system is inconsistent
    and the evaluation map on the free bicomodule is rank-deficient."""
    if field is None:
        field = Field.rationals()
    # index 0 is the unit, index 1 is the idempotent
    return _table_algebra(field, ((0, 1), (1, 1)), 0, (field.one,) * 8)


class GroupExample(Value):
    """A bundled cyclic-group example: group, cocycle, algebra, Hopf datum,
    and the closed-form preantipode."""

    __slots__ = ("name", "group", "cocycle", "dqb", "antipode", "preantipode")

    def __init__(self, name: str, group: GroupData, cocycle: Cocycle,
                 dqb: DualQuasiBialgebra, antipode: AntipodeData, preantipode: Matrix):
        self._set(name, group, cocycle, dqb, antipode, preantipode)


def cyclic_group_example(n: int, r: int, field: Field | None = None) -> GroupExample:
    group = GroupData.cyclic(n)
    theta = cyclic_cocycle(n, r, field)  # validated there
    return GroupExample(
        name=f"cyclic_{n}_r{r}",
        group=group,
        cocycle=theta,
        dqb=_table_algebra(theta.field, group.table, group.identity, theta.values),
        antipode=group_antipode_data(group, theta),
        preantipode=canonical_group_preantipode(group, theta),
    )
