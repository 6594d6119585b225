"""Outward-rounded bounds: every helper's result holds the exact value."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap.bounds import Bounds, Undecided, largest, nonnegative_sum, pair_quotient, pair_sum
from dcknap.rounding import format_2dec

FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


def exact(x) -> Fraction:
    return Fraction(float(x))


def pair_of(lo, hi):
    """The (lo, -hi) pair `bounds` holds for lo <= x <= hi."""
    return np.array([lo, -np.asarray(hi)])


@st.composite
def enclosures(draw):
    """(Bounds, an exact value inside it)."""
    lo, hi = sorted((draw(FLOATS), draw(FLOATS)))
    t = draw(st.fractions(0, 1))
    return Bounds(lo, hi), exact(lo) + t * (exact(hi) - exact(lo))


class TestArrays:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**62), st.integers(1, 2**31)), min_size=1, max_size=60))
    def test_nonnegative_sum_holds_the_sum_of_ratios(self, terms):
        num, den = (np.array(column, np.int64) for column in zip(*terms))
        lo, neg_hi = nonnegative_sum(np.sum(num / den), len(terms))
        total = sum(Fraction(n, d) for n, d in terms)
        assert exact(lo) <= total <= -exact(neg_hi)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=40))
    def test_pair_sum_holds_the_sum_of_every_value_between(self, ends):
        lo, hi = np.array([sorted(e) for e in ends]).T
        low, neg_high = pair_sum(pair_of(lo, hi)[:, :, None], axis=1)[:, 0]
        assert exact(low) <= sum(map(exact, lo)) and sum(map(exact, hi)) <= -exact(neg_high)

    @settings(max_examples=300, deadline=None)
    @given(FLOATS, FLOATS, st.floats(1e-300, 1e6), st.floats(1e-300, 1e6))
    def test_pair_quotient_holds_every_quotient(self, n1, n2, d1, d2):
        (n_lo, n_hi), (d_lo, d_hi) = sorted((n1, n2)), sorted((d1, d2))
        low, neg_high = pair_quotient(pair_of(n_lo, n_hi), np.float64(d_lo), np.float64(d_hi))
        corners = [exact(n) / exact(d) for n in (n_lo, n_hi) for d in (d_lo, d_hi)]
        assert exact(low) <= min(corners) and max(corners) <= -exact(neg_high)


class TestBounds:
    @settings(max_examples=300, deadline=None)
    @given(enclosures(), enclosures(), st.integers(-5, 5))
    def test_arithmetic_holds_the_exact_results(self, a, b, k):
        (A, x), (B, y) = a, b
        results = (
            (A + B, x + y), (A - B, x - y), (abs(A), abs(x)), (k * A, k * x), (sum([A, B]), x + y),
            (largest([A, B]), max(x, y)),
        )
        for bound, value in results:
            assert exact(bound.lo) <= value <= exact(bound.hi)

    @settings(max_examples=300, deadline=None)
    @given(enclosures(), enclosures())
    def test_comparisons_answer_for_every_value_or_raise(self, a, b):
        (A, x), (B, y) = a, b
        for compare, answer in ((lambda: A < B, x < y), (lambda: A > B, x > y)):
            try:
                assert compare() == answer
            except Undecided:
                assert A.lo <= B.hi and B.lo <= A.hi  # they overlap

    def test_different_counts_are_undecided(self):
        with pytest.raises(Undecided):
            Bounds(1.0, 2.0, 3) < Bounds(5.0, 6.0, 4)

    def test_format_renders_the_mean_when_both_ends_agree(self):
        assert format_2dec(Bounds(1, 1, 8)) == "0.13"  # 1/8 exactly, half up
        assert format_2dec(Bounds(-1, -1, 8)) == "-0.13"
        assert format_2dec(Bounds(-0.004, 0.004)) == "0.00"
        assert format_2dec(Bounds(0.1151, 0.1249, 1)) == "0.12"
        with pytest.raises(Undecided):
            format_2dec(Bounds(0.12499, 0.12501))

    @settings(max_examples=300, deadline=None)
    @given(enclosures(), st.integers(1, 50))
    def test_format_is_that_of_every_value_between(self, a, count):
        (A, x) = a
        A = Bounds(A.lo, A.hi, count)
        try:
            text = format_2dec(A)
        except Undecided:
            return
        assert text == format_2dec(x / count) == format_2dec(exact(A.lo) / count)
