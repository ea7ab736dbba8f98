from fractions import Fraction

import pytest

from dualquasi import Check, Field, Report
from dualquasi.report import format_terms, serialize_report

Q8 = Field.cyclotomic(8)
z = Q8.zeta(1)


def test_format_terms_parenthesizes_multi_term_coefficients():
    terms = {(0,): z + 5, (1, 1): -z - 1, (2,): z, (3,): -z, (4,): Q8.from_fraction(-3),
             (5,): z * Fraction(-1, 2), (6,): Q8.zero}
    assert format_terms(terms) == ("(z + 5)*e(0) + (-z - 1)*e(1,1) + z*e(2) + -z*e(3)"
                                   " + -3*e(4) + -1/2*z*e(5)")


def test_format_terms_rational_and_empty():
    Q = Field.rationals()
    assert format_terms({(1,): Q.from_fraction(Fraction(-7, 2)), (0, 2): Q.one}) \
        == "1*e(0,2) + -7/2*e(1)"
    assert format_terms({(0,): Q.zero}) == "0"
    assert format_terms({}) == "0"


def test_unknown_report_format_rejected():
    with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
        serialize_report(Report((Check("a", True),)), "xml")
