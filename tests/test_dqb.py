import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from dualquasi import (DualQuasiBialgebra, Field, InvariantViolation, Matrix,
                       convolution, convolution_inverse, validate_dqb)
from dualquasi.groups import GroupData, cyclic_group_example, group_dqb, trivial_cocycle
from dualquasi.io import load_dqb
from dualquasi.linalg import tensor_index
from dualquasi.report import Check, basis_tuples

from helpers import bundled_examples, control_bialgebra

Q = Field.rationals()


def z2_theta():
    for ex in bundled_examples():
        if ex.name == "cyclic_2_r1":
            return ex
    raise AssertionError


def grouplike_dqb(table, omega_values=None, field=Q):
    """A monoid algebra with every basis vector grouplike."""
    n = len(table)
    one, zero = field.one, field.zero
    delta = Matrix.from_terms(field, n * n, n,
                              [((g * n + g), g, one) for g in range(n)])
    mul = Matrix.from_terms(field, n, n * n,
                            [(table[g][h], g * n + h, one)
                             for g in range(n) for h in range(n)])
    unit = [zero] * n
    unit[0] = one
    omega = omega_values or [one] * n ** 3
    return DualQuasiBialgebra(field, n, delta,
                              Matrix.row_vector(field, [one] * n),
                              mul, Matrix.column_vector(field, unit),
                              Matrix.row_vector(field, omega))


# -- convolution ------------------------------------------------------------------


def test_convolution_unit():
    H = z2_theta().dqb
    eps3 = H.counit_power(3)
    assert convolution(H, eps3, H.omega) == H.omega
    assert convolution(H, H.omega, eps3) == H.omega
    eps1 = H.counit_power(1)
    assert convolution(H, eps1, eps1) == eps1


def test_convolution_omega_squares_to_unit_on_z2():
    # pointwise on grouplike triples: (±1)² = 1
    H = z2_theta().dqb
    assert convolution(H, H.omega, H.omega) == H.counit_power(3)


def test_convolution_is_associative_and_unital():
    rng = random.Random(99)
    H = next(ex for ex in bundled_examples() if ex.name == "cyclic_3_r1").dqb
    field = H.field

    def random_functional(k):
        z = field.zeta(1)
        return Matrix.row_vector(field, [
            field.from_fraction(rng.randint(-2, 2)) + z * rng.randint(-1, 1)
            for _ in range(H.dim ** k)])

    for k in (1, 2):
        unit = H.counit_power(k)
        for _ in range(4):
            f, g, h = (random_functional(k) for _ in range(3))
            left = convolution(H, convolution(H, f, g, arity=k), h, arity=k)
            right = convolution(H, f, convolution(H, g, h, arity=k), arity=k)
            assert left == right
            assert convolution(H, unit, f, arity=k) == f
            assert convolution(H, f, unit, arity=k) == f


def test_convolution_on_four_factors_matches_sweedler_sums():
    # Δ(x) = x⊗1 + g⊗x on Sweedler's algebra, so a first factor can split in
    # two terms; arity 5 takes one more factor off the front
    from helpers import sweedler_four_dim_hopf
    H = sweedler_four_dim_hopf()[0]
    n, field = H.dim, H.field
    rng = random.Random(41)
    splits = [[(row // n, row % n, c) for row, c in H.delta.column_terms(i)]
              for i in range(n)]

    def reference(f, g, k):
        out = []
        for w in basis_tuples(*[n] * k):
            acc = field.zero
            parts = [((), (), field.one)]
            for i in w:
                parts = [(left + (a,), right + (b,), c * c2)
                         for left, right, c in parts for a, b, c2 in splits[i]]
            for left, right, c in parts:
                acc = (acc + c * f.entries[tensor_index(left, n)]
                       * g.entries[tensor_index(right, n)])
            out.append(acc)
        return Matrix.row_vector(field, out)

    for k, rounds in ((4, 4), (5, 1)):
        for _ in range(rounds):
            f, g = (Matrix.row_vector(field, [
                field.from_fraction(rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)]))
                for _ in range(n ** k)]) for _ in range(2))
            assert convolution(H, f, g, arity=k) == reference(f, g, k)
            assert convolution(H, f, g) == reference(f, g, k)
            unit = H.counit_power(k)
            assert convolution(H, unit, f) == f == convolution(H, f, unit)


def test_convolution_arity_mismatch():
    from dualquasi import DimensionMismatch
    H = z2_theta().dqb
    with pytest.raises(DimensionMismatch):
        convolution(H, H.counit_power(1), H.counit_power(2))
    eps = H.counit_power(1)
    for f, arity, message in ((eps.kron(Matrix.column_vector(Q, [Q.one, Q.one])), None,
                               "functionals are row vectors"),
                              (eps, 2, "functional has 2 columns, expected 4"),
                              (Matrix.row_vector(Q, [Q.one] * 3), None,
                               "3 columns is not a tensor power of 2")):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            convolution(H, f, f, arity)
    with pytest.raises(DimensionMismatch,
                       match="^functional on a 1-dimensional coalgebra must have 1 column$"):
        convolution(_one_dimensional(), eps, eps)


def test_convolution_rejects_functionals_over_another_field():
    ex = next(e for e in bundled_examples() if e.name == "cyclic_4_r1")
    H, Q = ex.dqb, Field.rationals()
    foreign = Matrix.row_vector(Q, [Q.one] * H.dim)
    eps = H.counit_power(1)
    for f, g, message in ((foreign, eps, "Field.rationals() vs Field.cyclotomic(4)"),
                          (eps, foreign, "Field.cyclotomic(4) vs Field.rationals()"),
                          (foreign, foreign, "Field.rationals() vs Field.cyclotomic(4)")):
        with pytest.raises(ValueError) as info:
            convolution(H, f, g)
        assert str(info.value) == f"scalars from different fields: {message}"
    with pytest.raises(ValueError):
        convolution_inverse(H, foreign)


def test_convolution_inverse_examples():
    H = z2_theta().dqb
    eps2 = H.counit_power(2)
    assert convolution_inverse(H, eps2) == eps2
    # group-algebra reassociator inverts pointwise
    assert convolution_inverse(H, H.omega) == H.omega_inv
    zero = Matrix.zeros(H.field, 1, H.dim)
    assert convolution_inverse(H, zero) is None


def test_stored_inverse_matches_computed_for_all_bundles():
    # cyclic 8 r=3 and 6 r=5 solve the ω⁻¹ system over ℚ(ζ₈) and ℚ(ζ₆)
    extra = [cyclic_group_example(8, 3), cyclic_group_example(6, 5)]
    assert [ex.dqb.field.degree for ex in extra] == [4, 2]
    for ex in bundled_examples() + extra:
        H = ex.dqb
        assert convolution_inverse(H, H.omega) == H.omega_inv


# -- validation --------------------------------------------------------------------


def test_bundled_examples_validate():
    for ex in bundled_examples():
        report = validate_dqb(ex.dqb)
        assert report.ok, (ex.name, [c.axiom for c in report.failures])


def test_control_validates():
    assert validate_dqb(control_bialgebra()).ok


def test_ordinary_hopf_z2():
    G = GroupData.cyclic(2)
    H = group_dqb(G, trivial_cocycle(G))
    assert validate_dqb(H).ok


def test_broken_normalization_has_witness():
    # ω(g,g,g) = −1 is a valid cocycle, but ω(1,g,g) = −1 breaks unitality
    one = Q.one
    omega = [one] * 8
    omega[0b111] = Q.from_fraction(-1)
    omega[0b011] = Q.from_fraction(-1)
    table = ((0, 1), (1, 0))
    H = grouplike_dqb(table, omega_values=omega)
    report = validate_dqb(H)
    assert not report.ok
    failures = {c.axiom: c for c in report.failures}
    assert "cocycle-normalization-left" in failures
    assert failures["cocycle-normalization-left"].witness == (1, 1)
    assert failures["cocycle-normalization-left"].lhs == "-1"
    assert failures["cocycle-normalization-left"].rhs == "1"


def test_trivial_reassociator_detects_nonassociative_product():
    # a magma that is unital and grouplike-compatible but not associative:
    # with trivial ω, quasi-associativity degenerates to plain associativity
    table = ((0, 1, 2), (1, 2, 0), (2, 1, 0))
    assert table[table[1][1]][1] != table[1][table[1][1]]
    H = grouplike_dqb(table)
    report = validate_dqb(H)
    failing = [c.axiom for c in report.failures]
    assert failing == ["quasi-associativity"]


def test_associative_with_trivial_reassociator_passes():
    table = ((0, 1), (1, 1))  # the idempotent monoid
    assert validate_dqb(grouplike_dqb(table)).ok


def test_cocycle_identity_holds_exhaustively_for_bundles():
    # the report already expands all n^4 tuples; spot-check the entry exists
    for ex in bundled_examples():
        report = validate_dqb(ex.dqb)
        axioms = [c.axiom for c in report.checks]
        assert "cocycle-identity" in axioms
        assert "quasi-associativity" in axioms


def test_noninvertible_reassociator_rejected_at_construction():
    table = ((0, 1), (1, 0))
    omega = [Q.one] * 8
    omega[0b111] = Q.zero  # vanishing value kills pointwise invertibility
    with pytest.raises(InvariantViolation):
        grouplike_dqb(table, omega_values=omega)


def test_wrong_stored_inverse_fails_validation():
    table = ((0, 1), (1, 0))
    base = grouplike_dqb(table)
    H = DualQuasiBialgebra(Q, 2, base.delta, base.counit, base.mul, base.unit,
                           base.omega, base.omega * Q.from_fraction(2))
    report = validate_dqb(H)
    assert [c.axiom for c in report.failures] == ["reassociator-invertible"]


def _one_dimensional(dim=1, **parts):
    """The one-dimensional algebra over ℚ, with some parts replaced."""
    one = Matrix.row_vector(Q, [Q.one])
    p = {"delta": one, "counit": one, "mul": one, "unit": one, "omega": one, **parts}
    return DualQuasiBialgebra(Q, dim, p["delta"], p["counit"], p["mul"], p["unit"], p["omega"])


def test_construction_rejects_bad_dimension_shape_and_field():
    from dualquasi import DimensionMismatch
    Q3 = Field.cyclotomic(3)
    for build, message in (
            (lambda: _one_dimensional(dim=0), "dimension must be at least 1"),
            (lambda: _one_dimensional(counit=Matrix.zeros(Q, 1, 2)), "counit must be 1x1, got 1x2"),
            (lambda: _one_dimensional(omega=Matrix.row_vector(Q3, [Q3.one])),
             "omega lives over Field.cyclotomic(3), expected Field.rationals()")):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            build()


def test_convolution_on_one_dimensional_algebra():
    H1 = _one_dimensional()
    f = Matrix.row_vector(Q, [Q.from_fraction(2)])
    g = Matrix.row_vector(Q, [Q.from_fraction(3)])
    assert convolution(H1, f, g) == Matrix.row_vector(Q, [Q.from_fraction(6)])
    assert convolution_inverse(H1, f) == Matrix.row_vector(Q, [Q.from_fraction("1/2")])


# -- reference evaluation of the two convolution identities ---------------------


def _reference_reassociator(H):
    """ω∗ω⁻¹ and then ω⁻¹∗ω against ε⊗ε⊗ε, one basis triple at a time."""
    n = H.dim
    for first, second in ((H.omega_at, H.omega_inv_at), (H.omega_inv_at, H.omega_at)):
        for w in basis_tuples(n, n, n):
            lhs = H.field.zero
            for h1, h2, ch in H.delta_terms(w[0]):
                for k1, k2, ck in H.delta_terms(w[1]):
                    for l1, l2, cl in H.delta_terms(w[2]):
                        lhs = lhs + ch * ck * cl * first(h1, k1, l1) * second(h2, k2, l2)
            rhs = H.eps(w[0]) * H.eps(w[1]) * H.eps(w[2])
            if lhs != rhs:
                return Check("reassociator-invertible", False, w, str(lhs), str(rhs))
    return Check("reassociator-invertible", True)


def _reference_cocycle(H):
    """Σ ω(h₁,k₁,l₁p₁)·ω(h₂k₂,l₂,p₂) against
    Σ ε(h₁)ω(k₁,l₁,p₁)·ω(h₂,k₂l₂,p₂)·ω(h₃,k₃,l₃)ε(p₃), one basis quadruple at
    a time.  The three-fold sum splits x into x₍₁₎⊗x₍₂₎ and then x₍₁₎ again,
    the bracketing ((ε⊗ω)∗ω(H⊗m⊗H))∗(ω⊗ε), so a corrupted Δ that is not
    coassociative is read the same way by both routes."""
    n = H.dim
    zero = H.field.zero

    def split2(w):
        for h1, h2, ch in H.delta_terms(w[0]):
            for k1, k2, ck in H.delta_terms(w[1]):
                for l1, l2, cl in H.delta_terms(w[2]):
                    for p1, p2, cp in H.delta_terms(w[3]):
                        yield (h1, k1, l1, p1), (h2, k2, l2, p2), ch * ck * cl * cp

    def split3(w):
        for left, right3, c in split2(w):
            for left1, left2, c2 in split2(left):
                yield left1, left2, right3, c * c2

    def w_hh_m(h, k, l, p):  # ω(h, k, lp)
        return sum((c * H.omega_at(h, k, t) for t, c in H.mul_terms(l, p)), zero)

    def w_m_hh(h, k, l, p):  # ω(hk, l, p)
        return sum((c * H.omega_at(t, l, p) for t, c in H.mul_terms(h, k)), zero)

    def w_h_m_h(h, k, l, p):  # ω(h, kl, p)
        return sum((c * H.omega_at(h, t, p) for t, c in H.mul_terms(k, l)), zero)

    for w in basis_tuples(n, n, n, n):
        lhs = zero
        for x1, x2, c in split2(w):
            lhs = lhs + c * w_hh_m(*x1) * w_m_hh(*x2)
        rhs = zero
        for x1, x2, x3, c in split3(w):
            rhs = rhs + (c * H.eps(x1[0]) * H.omega_at(*x1[1:]) * w_h_m_h(*x2)
                         * H.omega_at(*x3[:3]) * H.eps(x3[3]))
        if lhs != rhs:
            return Check("cocycle-identity", False, w, str(lhs), str(rhs))
    return Check("cocycle-identity", True)


def _perturbed(m, row, col, value):
    """m with value added at (row, col)."""
    terms = [(r, c, v) for r in range(m.rows) for c, v in m.row_terms(r)]
    terms.append((row, col, value))
    return Matrix.from_terms(m.field, m.rows, m.cols, terms)


def _corruptions(H, seed):
    """H with one seeded entry of ω, ω⁻¹, m or Δ changed, one at a time.  Δ is
    changed once at a random position, which usually adds a split term, and
    once at one of its terms, which changes a coefficient."""
    rng = random.Random(seed)
    field = H.field
    value = field.from_fraction(rng.choice([-2, -1, 1, 2, 3]))
    if field.kind == "cyclotomic":
        value = value + field.zeta(1) * rng.choice([-1, 0, 1])
    parts = dict(delta=H.delta, counit=H.counit, mul=H.mul, unit=H.unit,
                 omega=H.omega, omega_inv=H.omega_inv)
    positions = [(key, rng.randrange(parts[key].rows), rng.randrange(parts[key].cols))
                 for key in ("omega", "omega_inv", "mul", "delta")]
    positions.append(("delta", *rng.choice([(r, c) for r in range(H.delta.rows)
                                            for c, _ in H.delta.row_terms(r)])))
    for key, row, col in positions:
        changed = dict(parts, **{key: _perturbed(parts[key], row, col, value)})
        yield key, DualQuasiBialgebra(field, H.dim, **changed)


def _reference_algebras():
    """Fresh copies, so that no table another test built on a shared instance
    is seen; twisted Sweedler is the one with a non-grouplike Δ and a
    nontrivial ω together."""
    from helpers import sweedler_four_dim_hopf, twisted_sweedler, with_parts
    from dualquasi import cyclic_group_example
    return [(name, with_parts(H)) for name, H in (
        ("cyclic_3_r2", cyclic_group_example(3, 2).dqb),
        ("cyclic_4_r1", cyclic_group_example(4, 1).dqb),
        ("sweedler", sweedler_four_dim_hopf()[0]),
        ("twisted_sweedler", twisted_sweedler()))]


def test_validation_builds_no_table_on_four_factors():
    for name, H in _reference_algebras():
        assert validate_dqb(H).ok, name
        assert max(H._split_tables) == 3, name


def test_all_zero_reassociator_validates_in_small_memory():
    # the cocycle identity runs one first factor at a time, so no code list on
    # H^⊗4 (24⁴ = 331 776 codes) is built: not with ω = 0, where both sides are
    # zero, nor with a single nonzero entry of ω and a zero stored inverse
    n = 24
    zero = {"version": 1, "field": {"kind": "rationals"}, "dim": n, "delta": [],
            "counit": ["0"] * n, "mul": [], "unit": ["0"] * n, "omega": []}
    one_entry = dict(zero, omega=[[1, 2, 3, "1"]], omega_inv=[])
    for doc in (zero, one_entry):
        H = load_dqb(json.dumps(doc))
        tracemalloc.start()
        try:
            report = validate_dqb(H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, doc["omega"]
        failed = [c.axiom for c in report.checks if not c.passed]
        assert "cocycle-identity" not in failed and len(failed) == 5, doc["omega"]


def test_convolution_identities_match_the_definitions():
    failed = {"reassociator-invertible": 0, "cocycle-identity": 0}
    for index, (name, base) in enumerate(_reference_algebras()):
        cases = [("base", base)]
        for seed in range(3):
            cases.extend(_corruptions(base, 10 * index + seed))
        for label, H in cases:
            got = {c.axiom: c for c in validate_dqb(H).checks}
            for expected in (_reference_reassociator(H), _reference_cocycle(H)):
                assert got[expected.axiom] == expected, (name, label)
                failed[expected.axiom] += not expected.passed
    # the reference has to see failures of both identities to mean anything
    assert min(failed.values()) >= 5, failed
