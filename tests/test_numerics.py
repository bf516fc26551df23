from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blossom_subdiv.numerics import (
    as_rational,
    binomial,
    format_rational,
    multinomial,
    parse_rational,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


class TestBinomial:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(5, 2, 10), (7, 0, 1), (3, 5, 0), (0, 0, 1), (4, -1, 0), (6, 6, 1)],
    )
    def test_values(self, n, k, expected):
        assert binomial(n, k) == expected

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_identity(self):
        for n in range(1, 65):
            for k in range(1, n):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestMultinomial:
    @pytest.mark.parametrize(
        "total,i,j,expected", [(5, 2, 1, 30), (4, 0, 0, 1), (3, 1, 2, 3), (0, 0, 0, 1)]
    )
    def test_values(self, total, i, j, expected):
        assert multinomial(total, i, j) == expected

    def test_overfull_split_rejected(self):
        with pytest.raises(ValueError):
            multinomial(3, 2, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            multinomial(3, -1, 1)
        with pytest.raises(ValueError):
            multinomial(-1, 0, 0)

    def test_binomial_factorization(self):
        # total!/(i! j! (total-i-j)!) == C(total, i) * C(total - i, j)
        for total in range(21):
            for i in range(total + 1):
                for j in range(total - i + 1):
                    assert multinomial(total, i, j) == binomial(total, i) * binomial(
                        total - i, j
                    )


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", Fraction(3, 4)),
            ("-3/4", Fraction(-3, 4)),
            ("+7", Fraction(7)),
            ("0", Fraction(0)),
            ("2/4", Fraction(1, 2)),
            (" 5/10 ", Fraction(1, 2)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["1/0", "0.5", "1e3", "1/-2", "", "a/b", "1//2", "--1"]
        + ["\u0661/\u0662", "1/\u0662", "\uff11"],  # non-ASCII digits
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    def test_canonical_form(self):
        assert format_rational(parse_rational("2/4")) == "1/2"
        assert format_rational(parse_rational("-4/8")) == "-1/2"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(6, 3)) == "2"

    def test_as_rational_refuses_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)
        assert as_rational(3) == Fraction(3)
        assert as_rational("3/9") == Fraction(1, 3)


class TestRationalArithmetic:
    """The scalar type is stdlib Fraction; these pin the conventions the
    formulas rely on rather than re-testing the stdlib."""

    def test_exact_sum(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_zero_exponent(self):
        assert Fraction(2, 3) ** 0 == Fraction(1)

    def test_zero_to_the_zero(self):
        # Needed so a**(i-k) terms degenerate correctly when a == 0, i == k.
        assert Fraction(0) ** 0 == Fraction(1)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    def test_canonical_after_operations(self):
        r = Fraction(2, 4) + Fraction(1, 4)
        assert r.numerator == 3 and r.denominator == 4
        r = Fraction(1, 3) * Fraction(3, 7)
        assert r.numerator == 1 and r.denominator == 7
        assert (-Fraction(1, -2)).denominator > 0

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
