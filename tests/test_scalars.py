import operator
import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquasi import Field, Scalar, ScalarParseError
from dualquasi.scalars import _make

Q = Field.rationals()
QI = Field.cyclotomic(4)
QW = Field.cyclotomic(3)
# Φ₅ and Φ₁₂ are not binomials; Φ₈ = z⁴ + 1 is
Q5, Q8, Q12 = Field.cyclotomic(5), Field.cyclotomic(8), Field.cyclotomic(12)
WIDE = [Q5, Q8, Q12]

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def rational_scalars():
    return fractions.map(Q.from_fraction)


def cyclotomic_scalars(field):
    return st.tuples(*[fractions] * field.degree).map(lambda t: Scalar(field, t))


def assert_canonical(s: Scalar) -> None:
    """Integer numerators over a positive denominator sharing no factor with
    them; so zero is all zeros over 1."""
    assert type(s.den) is int and s.den > 0
    assert len(s.num) == s.field.degree
    assert all(type(c) is int for c in s.num)
    assert gcd(s.den, *s.num) == 1


@pytest.mark.parametrize("field,strategy", [
    (Q, rational_scalars()),
    (QI, cyclotomic_scalars(QI)),
    (QW, cyclotomic_scalars(QW)),
    (Q5, cyclotomic_scalars(Q5)),
    (Q8, cyclotomic_scalars(Q8)),
    (Q12, cyclotomic_scalars(Q12)),
], ids=["Q", "Q(i)", "Q(zeta3)", "Q(zeta5)", "Q(zeta8)", "Q(zeta12)"])
def test_field_axioms(field, strategy):
    @settings(max_examples=60, deadline=None)
    @given(strategy, strategy, strategy)
    def run(a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - b == -(b - a)
        assert a / 3 * 3 == a
        outcomes = [a, a * b, (a * b) * c, a + b, b + c, a * (b + c), a - b, b - a, -a,
                    a - a, a / 3]
        if a:
            assert a * a.inverse() == field.one
            assert a / a == field.one
            assert b / a * a == b
            outcomes += [a.inverse(), b / a]
        for s in outcomes:
            assert_canonical(s)

    run()


unequal_denominators = st.tuples(
    st.integers(-30, 30), st.integers(1, 12), st.integers(-30, 30), st.integers(1, 12)
).filter(lambda t: Fraction(t[0], t[1]).denominator != Fraction(t[2], t[3]).denominator)


@settings(max_examples=120, deadline=None)
@given(unequal_denominators)
def test_rational_sums_with_unequal_denominators(t):
    x, y = Fraction(t[0], t[1]), Fraction(t[2], t[3])
    a, b = Q.from_fraction(x), Q.from_fraction(y)
    for got, want in ((a + b, x + y), (b + a, x + y), (a - b, x - y), (b - a, y - x)):
        assert got.coeffs == (want,)
        assert_canonical(got)


def _general_path(op, x: Scalar, y: Scalar) -> Scalar:
    """x op y by the arithmetic that runs when neither operand is 0 or 1."""
    field = x.field
    if op == "*":
        num = (x.num[0] * y.num[0],) if field.degree == 1 else field._mul_int(x.num, y.num)
        return _make(field, num, x.den * y.den)
    sign = 1 if op == "+" else -1
    return _make(field, tuple(a * y.den + sign * b * x.den for a, b in zip(x.num, y.num)),
                 x.den * y.den)


@pytest.mark.parametrize("field", [Q, Q8, Q12], ids=["Q", "Q(zeta8)", "Q(zeta12)"])
def test_identity_operands_return_the_other_operand(field):
    def check(x):
        zero, one = field.zero, field.one
        cases = [(x * one, "*", x, one), (one * x, "*", one, x),
                 (x + zero, "+", x, zero), (zero + x, "+", zero, x),
                 (x - zero, "-", x, zero), (zero - x, "-", zero, x)]
        for got, op, left, right in cases:
            assert got == _general_path(op, left, right)
            assert_canonical(got)
        if x != one:
            assert x * one is x and one * x is x
        if x:
            assert x + zero is x and zero + x is x and x - zero is x
        assert zero - x == -x

    settings(max_examples=40, deadline=None)(given(
        rational_scalars() if field is Q else cyclotomic_scalars(field))(check))()
    # denominators other than 1
    z = field.zeta(1) if field is not Q else field.one
    for value in (Fraction(-5, 6), Fraction(7, 4)):
        x = field.from_fraction(value) * z + field.from_fraction(Fraction(1, 3))
        assert x.den != 1
        check(x)


@pytest.mark.parametrize("op", [lambda a, b: a * b, lambda a, b: a + b,
                                lambda a, b: a - b], ids=["*", "+", "-"])
def test_identity_operands_still_reject_other_fields(op):
    other = Q5.zeta(1)
    for identity in (Q8.zero, Q8.one):
        with pytest.raises(ValueError):
            op(identity, other)
        with pytest.raises(ValueError):
            op(other, identity)


def _sympy_poly(s: Scalar, x):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x**k
                          for k, c in enumerate(s.coeffs)), x, domain="QQ")


@pytest.mark.parametrize("field", WIDE, ids=["Q(zeta5)", "Q(zeta8)", "Q(zeta12)"])
def test_arithmetic_matches_sympy(field):
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(field.order, x), x, domain="QQ")
    strategy = cyclotomic_scalars(field)

    @settings(max_examples=25, deadline=None)
    @given(strategy, strategy)
    def run(a, b):
        pa, pb = _sympy_poly(a, x), _sympy_poly(b, x)
        assert _sympy_poly(a * b, x) == (pa * pb).rem(phi)
        assert _sympy_poly(a - b, x) == pa - pb
        if a:
            assert _sympy_poly(a.inverse(), x) == sympy.invert(pa, phi)

    run()


def test_canonical_form_examples():
    half = Scalar(Q8, (Fraction(1, 2), Fraction(-3, 4), 0, 1))
    assert (half.num, half.den) == ((2, -3, 0, 4), 4)
    assert half.coeffs == (Fraction(1, 2), Fraction(-3, 4), 0, 1)
    assert (Q8.zero.num, Q8.zero.den) == ((0, 0, 0, 0), 1)
    assert_canonical(half - half)
    assert (half - half).den == 1
    assert (Q.from_fraction(Fraction(6, -4)).num, Q.from_fraction(Fraction(6, -4)).den) \
        == ((-3,), 2)
    assert Q.from_fraction(-3).inverse().coeffs == (Fraction(-1, 3),)


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


def test_fields_are_built_only_through_their_constructors():
    with pytest.raises(TypeError, match=r"^use Field\.rationals\(\) or Field\.cyclotomic\(order\)$"):
        Field()
    with pytest.raises(ValueError, match="^order must be positive, got 0$"):
        Field.cyclotomic(0)


def test_cross_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        QI.one + QW.one


@pytest.mark.parametrize("s", [Q.from_fraction(Fraction(-3, 2)), Q8.zeta(1) - Fraction(3, 2),
                               Q12.zeta(1) + Q12.zeta(4) - 2], ids=["Q", "Q(zeta8)", "Q(zeta12)"])
def test_reciprocals_and_negative_powers(s):
    field = s.field
    assert 1 / s == s.inverse() and (1 / s) * s == field.one
    assert Fraction(2, 5) / s == field.from_fraction(Fraction(2, 5)) * s.inverse()
    assert s ** -3 == s.inverse() ** 3 and s ** -3 * s ** 3 == field.one
    with pytest.raises(ZeroDivisionError):
        1 / field.zero


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                operator.pow], ids=["+", "-", "*", "/", "**"])
@pytest.mark.parametrize("other", [1.5, "1", None], ids=["float", "str", "None"])
def test_scalar_mixed_with_a_non_number_raises(op, other):
    for left, right in ((QI.one, other), (other, QI.one)):
        with pytest.raises(TypeError):
            op(left, right)
    assert QI.one != other


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[fractions] * 2))
def test_str_round_trip_random_qi(coeffs):
    value = Scalar(QI, coeffs)
    assert QI.parse(str(value)) == value


@pytest.mark.parametrize("field", WIDE, ids=["Q(zeta5)", "Q(zeta8)", "Q(zeta12)"])
def test_str_round_trip_random_wide(field):
    @settings(max_examples=40, deadline=None)
    @given(cyclotomic_scalars(field))
    def run(value):
        assert field.parse(str(value)) == value

    run()


@pytest.mark.parametrize("field", [Q, QI, Q8], ids=["Q", "Q(i)", "Q(zeta8)"])
@pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
def test_equal_values_hash_equal(field, value):
    s = field.from_fraction(value)
    same = Scalar(field, (value,) + (0,) * (field.degree - 1))
    for other in (value, Fraction(value), same, field.parse(str(value))):
        assert s == other and hash(s) == hash(other)
    assert {value: 1}.get(s) == 1
    assert len({s, value, Fraction(value)}) == 1


numerators = st.integers(0, 10**30)
denominators = st.integers(1, 10**30)


_P = sys.hash_info.modulus


@pytest.mark.parametrize("num, den", [
    (1, _P), (-1, _P), (5, 3 * _P), (-7, _P * _P), (_P + 1, 2), (-_P, 3),
    (2 * _P + 1, _P - 1), (-1, 2), (10**40 + 1, 10**39)])
def test_rational_hash_is_the_fraction_hash(num, den):
    # a denominator that is a multiple of the modulus has no inverse there
    value = Fraction(num, den)
    for field in (Q, Q8):
        assert hash(field.from_fraction(value)) == hash(value)


@pytest.mark.parametrize("field", [Q, QI, Q12], ids=["Q", "Q(i)", "Q(zeta12)"])
def test_parse_of_a_ratio_matches_the_fraction(field):
    @settings(max_examples=60, deadline=None)
    @given(numerators, denominators, st.integers(0, 30), st.sampled_from(["", "0", "00"]))
    def run(p, q, k, pad):
        want = field.from_fraction(Fraction(p, q))
        assert field.parse(f"{pad}{p}/{pad}{q}") == want
        assert field.parse(f"-{p}/{q}") == -want
        assert field.parse(f" - {p}/{q} ") == -want
        if field.kind == "cyclotomic":
            assert field.parse(f"{p}/{q}*z^{k}") == want * field.zeta(k)
            assert field.parse(f"-{p}/{q} * z^{k}") == -want * field.zeta(k)

    run()


@pytest.mark.parametrize("text,position", [
    ("1/0", 0), ("-3/0", 1), ("2 - 5/00", 4), ("0/0", 0), ("7/0*z", 0), ("z + 1/0*z^2", 4),
])
def test_zero_denominator_is_located(text, position):
    with pytest.raises(ScalarParseError, match="zero denominator") as err:
        QI.parse(text)
    assert err.value.position == position


@pytest.mark.parametrize("text,value", [("٣/٤", Fraction(3, 4)), ("-１２/５", Fraction(-12, 5))],
                         ids=["arabic-indic", "fullwidth"])
def test_parse_reads_any_decimal_digits(text, value):
    assert Q.parse(text) == Q.from_fraction(value)


def test_coefficient_count_must_match_the_degree():
    # each of these once built a value off the canonical form: z^4 unreduced
    # in Q(zeta8), a one-slot vector that multiplied to 0, and "2*z + 1" in Q
    for field, coeffs, message in ((Q8, (0, 0, 0, 0, 1), "degree 4, got 5"),
                                   (Q8, (1,), "degree 4, got 1"),
                                   (Q, (1, 2), "degree 1, got 2")):
        with pytest.raises(ValueError, match=message):
            Scalar(field, coeffs)
    assert Scalar(Q8, (0, 1, 0, 0)) == Q8.zeta(1)


def test_any_rational_mixes_in_as_its_integer_ratio():
    half = sympy.Rational(-5, 3)
    for field in (Q, Q8):
        s = field.from_fraction(half)
        assert_canonical(s)
        assert s == Fraction(-5, 3) and s == half
        assert field.one * half == s and (field.one - half) * 3 == 8
