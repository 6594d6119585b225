from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap import as_fraction, format_2dec, round_half_up


class TestAsFraction:
    def test_float_goes_through_decimal_repr(self):
        assert as_fraction(0.35) == Fraction(7, 20)
        assert as_fraction(0.9) == Fraction(9, 10)

    def test_string(self):
        assert as_fraction("0.55") == Fraction(11, 20)
        assert as_fraction("8/5") == Fraction(8, 5)

    def test_passthrough(self):
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert as_fraction(7) == Fraction(7)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_fraction(object())

    @pytest.mark.parametrize("text", ["zz", "0.5x", "1/0"])
    def test_bad_strings_raise_value_error(self, text):
        with pytest.raises(ValueError):
            as_fraction(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1e1000000",
            "1e-1000000",
            "1E+1001",
            "0.5e-1_001",
            "1e-0001001",
            pytest.param("1e" + "9" * 5000, id="5000-digit-exponent"),
        ],
    )
    def test_huge_exponent_rejected(self, text):
        with pytest.raises(ValueError, match="exponent too large"):
            as_fraction(text)

    def test_exponent_at_limit_accepted(self):
        assert as_fraction("1e3") == 1000
        assert as_fraction("1e-1000") == Fraction(1, 10**1000)
        assert as_fraction("2E+0_1000") == 2 * 10**1000


class TestRoundHalfUp:
    def test_tie_goes_up(self):
        assert round_half_up(Fraction(1, 200)) == Fraction(1, 100)  # 0.005
        assert round_half_up(Fraction("2.675")) == Fraction("2.68")

    def test_negative_tie_goes_away_from_zero(self):
        assert round_half_up(Fraction(-1, 200)) == Fraction(-1, 100)

    def test_plain_cases(self):
        assert round_half_up(Fraction(1595, 113)) == Fraction("14.12")
        assert round_half_up(3) == 3

    def test_digits_parameter(self):
        assert round_half_up(Fraction("0.15"), digits=1) == Fraction("0.2")
        assert round_half_up(Fraction("0.44"), digits=0) == 0


class TestFormat2Dec:
    def test_pads_to_two_decimals(self):
        assert format_2dec(0) == "0.00"
        assert format_2dec(16) == "16.00"
        assert format_2dec(Fraction(100, 15)) == "6.67"

    def test_half_up_not_bankers(self):
        assert format_2dec(Fraction("2.675")) == "2.68"
        assert format_2dec(Fraction("2.665")) == "2.67"

    def test_negative_values(self):
        assert format_2dec(Fraction("-1.005")) == "-1.01"
        assert format_2dec(Fraction("-0.004")) == "0.00"  # rounds to exact zero

    def test_small_magnitudes_keep_leading_zero(self):
        assert format_2dec(Fraction(1, 250)) == "0.00"
        assert format_2dec(Fraction(1, 100)) == "0.01"


def reference_format_2dec(value) -> str:
    """The Fraction formula format_2dec replaced: round_half_up, then print."""
    n = int(round_half_up(value, 2) * 100)
    sign = "-" if n < 0 else ""
    return f"{sign}{abs(n) // 100}.{abs(n) % 100:02d}"


_TIES = st.builds(
    lambda k, sign: sign * Fraction(2 * k + 1, 200), st.integers(0, 10**6), st.sampled_from((1, -1))
)  # (k + 1/2) / 100 of either sign


@settings(max_examples=500, deadline=None, database=None)
@given(st.integers(-(10**30), 10**30) | st.fractions() | _TIES)
def test_format_2dec_matches_round_half_up(value):
    assert format_2dec(value) == reference_format_2dec(value)
