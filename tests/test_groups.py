import random
import re
from fractions import Fraction
from itertools import product

import pytest

from dualquasi import Check, Field, serialize_report, validate_dqb
from dualquasi.groups import (Cocycle, GroupData, canonical_group_preantipode,
                              cyclic_cocycle, group_antipode_data, group_dqb,
                              idempotent_monoid_bialgebra, trivial_cocycle,
                              validate_cocycle)

from helpers import symmetric_group_examples

Q = Field.rationals()


def test_group_table_validation():
    G = GroupData.cyclic(4)
    assert G.identity == 0
    assert G.inv(1) == 3 and G.mul(3, 2) == 1
    with pytest.raises(ValueError):
        GroupData.from_table([[0, 1], [1, 1]])  # idempotent monoid: no inverse
    with pytest.raises(ValueError):
        GroupData.from_table([[1, 0], [1, 0]])  # no identity
    for table, message in (([[0, 1], [1]], "row 1 has length 1, expected 2"),
                           ([[0, 1], [1, 2]], "table entry (1,1) = 2 out of range"),
                           # identity 0 and inverses, but (1·1)·2 = 2 and 1·(1·2) = 1
                           ([[0, 1, 2], [1, 0, 0], [2, 0, 0]],
                            "table is not associative at (1,1,2)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GroupData.from_table(table)
    with pytest.raises(ValueError, match="^order must be positive$"):
        GroupData.cyclic(0)
    with pytest.raises(ValueError, match="^n must be positive$"):
        cyclic_cocycle(0, 0)


def test_cocycle_on_a_group_of_another_order_is_not_total():
    report = validate_cocycle(GroupData.cyclic(3), trivial_cocycle(GroupData.cyclic(2)))
    assert serialize_report(report, "json-lines") == (
        '{"axiom": "cocycle-total", "pass": false, "witness": null, '
        '"lhs": "defined on a group of order 2", "rhs": "group has order 3"}')


def test_trivial_cocycle_validates():
    for n in (1, 2, 3, 5):
        G = GroupData.cyclic(n)
        assert validate_cocycle(G, trivial_cocycle(G)).ok


def test_z2_cocycle_is_parity_of_product():
    theta = cyclic_cocycle(2, 1)
    G = GroupData.cyclic(2)
    assert validate_cocycle(G, theta).ok
    for a in range(2):
        for b in range(2):
            for c in range(2):
                expected = Fraction(-1) ** (a * b * c)
                assert theta.theta(a, b, c) == Q.from_fraction(expected)


def test_broken_normalization_detected():
    G = GroupData.cyclic(2)
    values = [Q.one] * 8
    values[(1 * 2 + 0) * 2 + 1] = Q.from_fraction(-1)  # θ(g, 1, g) = −1
    theta = Cocycle(Q, 2, tuple(values))
    report = validate_cocycle(G, theta)
    failures = {c.axiom: c for c in report.failures}
    assert "cocycle-normalized" in failures
    assert failures["cocycle-normalized"].witness == (1, 0, 1)


def test_zero_value_detected():
    G = GroupData.cyclic(2)
    values = [Q.one] * 8
    values[7] = Q.zero
    report = validate_cocycle(G, Cocycle(Q, 2, tuple(values)))
    assert any(c.axiom == "cocycle-nonzero" and c.witness == (1, 1, 1)
               for c in report.failures)


def test_cyclic_cocycles_validate_up_to_order_six():
    for n in range(1, 7):
        for r in range(n):
            theta = cyclic_cocycle(n, r)  # validates internally
            assert validate_cocycle(GroupData.cyclic(n), theta).ok


def test_cyclic_cocycle_z3_value():
    theta = cyclic_cocycle(3, 1)
    field = theta.field
    assert field.order == 3
    assert theta.theta(1, 1, 2) == field.zeta(1)  # exponent 1·⌊3/3⌋ = 1
    assert theta.theta(1, 1, 1) == field.one      # ⌊2/3⌋ = 0


def test_cyclic_cocycle_field_handling():
    assert cyclic_cocycle(2, 1).field.kind == "rationals"
    assert cyclic_cocycle(5, 0).field.kind == "rationals"
    assert cyclic_cocycle(4, 1).field is Field.cyclotomic(4)
    with pytest.raises(ValueError):
        cyclic_cocycle(3, 1, Field.rationals())
    with pytest.raises(ValueError):
        cyclic_cocycle(3, 1, Field.cyclotomic(4))
    with pytest.raises(ValueError):
        cyclic_cocycle(3, 5)


def test_group_dqb_structures():
    G = GroupData.cyclic(2)
    theta = cyclic_cocycle(2, 1)
    H = group_dqb(G, theta)
    assert validate_dqb(H).ok
    assert H.omega_at(1, 1, 1) == Q.from_fraction(-1)
    assert all(H.omega_at(g, h, k) == Q.one
               for g in range(2) for h in range(2) for k in range(2)
               if (g, h, k) != (1, 1, 1))


def test_group_dqb_product_follows_a_non_abelian_table():
    # S₃ is the only non-abelian table in the suite, so only it shows whether
    # a builder transposes the product
    for ex in symmetric_group_examples():
        G, H = ex.group, ex.dqb
        pairs = list(product(range(G.order), repeat=2))
        assert any(G.mul(g, h) != G.mul(h, g) for g, h in pairs)
        for g, h in pairs:
            assert H.mul_terms(g, h) == ((G.mul(g, h), 1),), (ex.name, g, h)
        assert validate_dqb(H).ok, ex.name


def test_group_dqb_rejects_invalid_cocycle():
    G = GroupData.cyclic(2)
    values = [Q.one] * 8
    values[(1 * 2 + 0) * 2 + 1] = Q.from_fraction(-1)
    with pytest.raises(ValueError):
        group_dqb(G, Cocycle(Q, 2, tuple(values)))


def test_antipode_data_values():
    G = GroupData.cyclic(2)
    theta = cyclic_cocycle(2, 1)
    data = group_antipode_data(G, theta)
    assert [str(v) for v in data.beta.entries] == ["1", "-1"]
    assert [str(v) for v in data.alpha.entries] == ["1", "1"]
    assert data.s[0, 0] == Q.one and data.s[1, 1] == Q.one


def test_antipode_data_z4():
    theta = cyclic_cocycle(4, 1)
    data = group_antipode_data(GroupData.cyclic(4), theta)
    field = theta.field
    i = field.zeta(1)
    assert list(data.beta.entries) == [field.one, i ** 3, i ** 2, i]


def test_canonical_preantipode_formula():
    G = GroupData.cyclic(3)
    theta = cyclic_cocycle(3, 1)
    S = canonical_group_preantipode(G, theta)
    field = theta.field
    for a in range(3):
        terms = S.column_terms(a)
        assert len(terms) == 1
        row, value = terms[0]
        assert row == (-a) % 3
        assert value == theta.theta(a, (-a) % 3, a).inverse()


def test_idempotent_monoid_control():
    H = idempotent_monoid_bialgebra()
    assert validate_dqb(H).ok
    assert H.dim == 2


def test_cyclotomic_cocycle_values_are_roots_of_unity():
    theta = cyclic_cocycle(6, 1, Field.cyclotomic(6))
    for v in theta.values:
        assert v ** 6 == theta.field.one


# -- the G⁴ cocycle identity against a per-quadruple reference ------------------


def _reference_cocycle_identity(group, theta):
    """θ(h,k,l)·θ(g,hk,l)·θ(g,h,k) = θ(g,h,kl)·θ(gh,k,l), evaluated quadruple by
    quadruple in lexicographic order from ``theta.theta`` and ``group.mul``."""
    t, mul, n = theta.theta, group.mul, group.order
    for g, h, k, l in product(range(n), repeat=4):
        lhs = t(h, k, l) * t(g, mul(h, k), l) * t(g, h, k)
        rhs = t(g, h, mul(k, l)) * t(mul(g, h), k, l)
        if lhs != rhs:
            return Check("cocycle-identity", False, (g, h, k, l), str(lhs), str(rhs))
    return Check("cocycle-identity", True)


def _cocycle_cases():
    for ex in symmetric_group_examples():
        yield ex.name, ex.group, ex.cocycle
    for n, r in ((4, 1), (6, 5), (8, 3)):
        yield f"cyclic_{n}_r{r}", GroupData.cyclic(n), cyclic_cocycle(n, r)


def _corrupted(theta, seed):
    """θ with one seeded value changed."""
    rng = random.Random(seed)
    field = theta.field
    value = field.from_fraction(rng.choice([-2, -1, 2, 3]))
    if field.kind == "cyclotomic":
        value = value * field.zeta(rng.randrange(field.order))
    values = list(theta.values)
    values[rng.randrange(len(values))] = value
    return Cocycle(field, theta.order, tuple(values))


def test_cocycle_identity_matches_the_per_quadruple_reference():
    failed = 0
    for index, (name, group, theta) in enumerate(_cocycle_cases()):
        cases = [theta] + [_corrupted(theta, 10 * index + seed) for seed in range(3)]
        for label, case in enumerate(cases):
            got = {c.axiom: c for c in validate_cocycle(group, case).checks}
            expected = _reference_cocycle_identity(group, case)
            assert got["cocycle-identity"] == expected, (name, label)
            failed += not expected.passed
        assert validate_cocycle(group, theta).ok, name
    # the reference has to see failures to mean anything
    assert failed >= 5, failed
