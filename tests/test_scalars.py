from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquasi import Field, Scalar, ScalarParseError

Q = Field.rationals()
QI = Field.cyclotomic(4)
QW = Field.cyclotomic(3)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def rational_scalars():
    return fractions.map(Q.from_fraction)


def cyclotomic_scalars(field):
    return st.tuples(*[fractions] * field.degree).map(lambda t: Scalar(field, t))


@pytest.mark.parametrize("field,strategy", [
    (Q, rational_scalars()),
    (QI, cyclotomic_scalars(QI)),
    (QW, cyclotomic_scalars(QW)),
], ids=["Q", "Q(i)", "Q(zeta3)"])
def test_field_axioms(field, strategy):
    @settings(max_examples=60, deadline=None)
    @given(strategy, strategy, strategy)
    def run(a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == field.one
            assert a / a == field.one

    run()


def test_cyclotomic_root_examples():
    assert Field.cyclotomic(2).zeta(1) == -1
    assert QI.zeta(2) == -1
    z3 = QW.zeta(1)
    assert z3 ** 3 == QW.one
    assert z3 != QW.one
    # primitive root relation: 1 + z + z^2 = 0 in Q(zeta3)
    assert QW.one + z3 + z3 * z3 == QW.zero
    with pytest.raises(ValueError):
        Q.zeta(1)


def test_root_order_and_powers():
    i = QI.zeta(1)
    assert i ** 4 == QI.one
    assert i ** 2 == -1
    assert QI.zeta(-1) == i ** 3
    assert QI.zeta(7) == i ** 7


def test_inverse_of_cyclotomic_sums():
    z = QW.zeta(1)
    a = QW.one + z  # = -z^2, invertible
    assert a * a.inverse() == QW.one
    with pytest.raises(ZeroDivisionError):
        QW.zero.inverse()


def test_canonical_equality_is_componentwise():
    z = QW.zeta(1)
    assert z * z == -1 - z  # z^2 reduced mod z^2 + z + 1
    assert Scalar(QW, (Fraction(-1), Fraction(-1))) == z * z


@pytest.mark.parametrize("text,field,expected", [
    ("3", Q, 3),
    ("-7/2", Q, Fraction(-7, 2)),
    ("0", Q, 0),
    ("z", QI, None),
    ("-z", QI, None),
    ("z^2", QI, -1),
    ("1/2*z - 1", QI, None),
    ("2 + z", QI, None),
])
def test_parse_and_round_trip(text, field, expected):
    value = field.parse(text)
    if expected is not None:
        assert value == expected
    assert field.parse(str(value)) == value


def test_parse_high_power_reduces():
    assert QI.parse("z^6") == -1
    assert QW.parse("z^3") == QW.one


def test_canonical_format_examples():
    f5 = Field.cyclotomic(5)
    v = f5.parse("1/2*z^3 - 1")
    assert str(v) == "1/2*z^3 - 1"
    assert str(QI.parse("-z")) == "-z"
    assert str(Q.from_fraction(Fraction(6, 4))) == "3/2"


@pytest.mark.parametrize("bad,field", [
    ("", Q),
    ("z", Q),          # no root of unity in the rationals
    ("1/0", Q),
    ("1 +", Q),
    ("--2", Q),
    ("2 2", Q),
    ("q", QI),
    ("z^", QI),
    ("3*", QI),
])
def test_parse_errors_carry_position(bad, field):
    with pytest.raises(ScalarParseError) as err:
        field.parse(bad)
    assert err.value.position >= 0


def test_fields_are_interned_and_order_one_is_rational():
    assert Field.cyclotomic(1) is Field.rationals()
    assert Field.cyclotomic(4) is QI
    assert Field.cyclotomic(2).kind == "cyclotomic"
    assert Field.cyclotomic(2).degree == 1


def test_cross_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        QI.one + QW.one


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[fractions] * 2))
def test_str_round_trip_random_qi(coeffs):
    value = Scalar(QI, coeffs)
    assert QI.parse(str(value)) == value
