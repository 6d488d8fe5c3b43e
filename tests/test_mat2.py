from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcover.mat2 import MAX_NUMBER_LENGTH, RatMat2, parse_mat2, parse_rational

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
matrices = st.builds(RatMat2, rationals, rationals, rationals, rationals)


def test_parse_roundtrip():
    m = parse_mat2("1/3, 0; -2, 5")
    assert m == RatMat2.of(Fraction(1, 3), 0, -2, 5)
    with pytest.raises(ValueError):
        parse_mat2("1,2,3;4")
    with pytest.raises(ValueError):
        parse_mat2("1,2")


def test_parse_rational_grammar():
    for text, want in [("3", 3), (" -1/3 ", Fraction(-1, 3)), ("0.25", Fraction(1, 4)),
                       ("+.5", Fraction(1, 2)), ("2.", 2), ("-0", 0)]:
        assert parse_rational(text) == want
    for text in ["1e5", "1E5", "1.5e-3", "1_000", "inf", "nan", "", "-", "1/2/3",
                 "1/-3", "0x10", "\u0661", "1 2", "1" * (MAX_NUMBER_LENGTH + 1)]:
        with pytest.raises(ValueError):
            parse_rational(text)
    assert parse_rational("9" * MAX_NUMBER_LENGTH) == 10**MAX_NUMBER_LENGTH - 1
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@given(matrices)
def test_inverse(m):
    if m.det() == 0:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        assert m @ m.inverse() == RatMat2.identity()


@given(matrices, matrices)
def test_det_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()
