from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcknap import (
    InfeasibleError,
    InvalidParameterError,
    ProblemInstance,
    proctors_from_rate,
)
from dcknap.model import require_instances, weight_ranks


class TestProctorsFromRate:
    def test_sample_batch_column(self):
        caps = [113, 54, 95, 89, 85, 87, 76, 105]
        assert proctors_from_rate(caps, 54) == (3, 1, 2, 2, 2, 2, 2, 2)

    def test_two_rooms(self):
        assert proctors_from_rate([100, 40], 25) == (4, 2)

    def test_exact_division(self):
        assert proctors_from_rate([10], 10) == (1,)

    def test_exact_past_int64(self):
        assert proctors_from_rate([10**32, 2**64 - 1], 54) == (-(-10**32 // 54), -(-(2**64 - 1) // 54))

    def test_rate_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            proctors_from_rate([10], 0)

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(3)
        caps = [int(c) for c in rng.integers(1, 200, size=30)]
        previous = proctors_from_rate(caps, 1)
        for rate in range(2, 80):
            current = proctors_from_rate(caps, rate)
            assert all(c <= p for c, p in zip(current, previous))
            previous = current

    def test_outputs_positive(self):
        assert all(p >= 1 for p in proctors_from_rate([1, 2, 3], 1000))


def fraction_ranks(caps, proctors):
    """Dense rank of each ratio capacity / proctors, 0 for the largest, by Fraction."""
    weights = [Fraction(c, p) for c, p in zip(caps, proctors)]
    rank = {w: r for r, w in enumerate(sorted(set(weights), reverse=True))}
    return [rank[w] for w in weights]


@st.composite
def rank_rooms(draw):
    """(capacities, proctors): rated rooms, multiples of a few ratios such as
    54/1 and 108/2, or up to 3 rooms near 2^29 whose ratios lie within 2^-52."""
    style = draw(st.sampled_from(("rate", "tied", "near")))
    if style == "rate":
        caps = draw(st.lists(st.integers(1, 200), min_size=1, max_size=60))
        return caps, proctors_from_rate(caps, draw(st.sampled_from((1, 2, 54)) | st.integers(1, 120)))
    if style == "tied":
        base = st.sampled_from(((54, 1), (1, 1), (2, 3), (113, 3))) | st.tuples(st.integers(1, 12), st.integers(1, 4))
        ratios = draw(st.lists(base, min_size=1, max_size=4))
        picks = draw(st.lists(st.tuples(st.sampled_from(ratios), st.integers(1, 9)), min_size=1, max_size=40))
        return [k * c for (c, _), k in picks], [k * p for (_, p), k in picks]
    # A hard case: (p + d) / p and (p' + d) / p' differ by only about
    # d (p' - p) / 2^58.  Below 1 (d < 0) the smaller capacity has the
    # smaller ratio.
    proctors = draw(st.lists(st.integers(2**29 - 21, 2**29), min_size=1, max_size=3))
    return [p + draw(st.integers(-3, 3)) for p in proctors], proctors


class TestWeightRanks:
    @settings(max_examples=300, deadline=None, database=None)
    @given(rank_rooms())
    def test_matches_fraction_ranks(self, rooms):
        caps, proctors = rooms
        assert ProblemInstance(caps, proctors, 0).weight_ranks.tolist() == fraction_ranks(caps, proctors)

    def test_two_rooms(self):
        # 100/4 = 25 ranks above 40/2 = 20.
        assert ProblemInstance((100, 40), (4, 2), 40).weight_ranks.tolist() == [0, 1]

    def test_equal_rooms(self):
        assert ProblemInstance((10, 10), (1, 1), 5).weight_ranks.tolist() == [0, 0]

    def test_common_divisor_rate_gives_equal_weights(self):
        rate = 12
        caps = tuple(rate * k for k in (1, 3, 5, 7))
        inst = ProblemInstance(caps, proctors_from_rate(caps, rate), 50)
        assert inst.weight_ranks.tolist() == [0, 0, 0, 0]

    def test_exact_where_float_division_ties(self):
        caps, proctors = (10**9 + 1, 10**9 + 2), (10**9, 10**9 + 1)
        assert caps[0] / proctors[0] == caps[1] / proctors[1]
        assert ProblemInstance(caps, proctors, 0).weight_ranks.tolist() == [0, 1]

    # Ratios of values near 2^31, where keys (c << 62) // p of distinct ratios
    # come closest: the example's three adjacent ratios have keys 1 apart.  A
    # ProblemInstance refuses such totals, so the arrays are ranked directly.
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(2**31 - 64, 2**31 - 1), st.integers(2**31 - 64, 2**31 - 1)),
                    min_size=1, max_size=20))
    @example([(2**31 - 1, 2**31 - 2), (2**31 - 2, 2**31 - 3), (2**31 - 3, 2**31 - 4)])
    def test_exact_where_the_key_is_tight(self, rooms):
        caps, proctors = zip(*rooms)
        assert weight_ranks(caps, proctors).tolist() == fraction_ranks(caps, proctors)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(rank_rooms(), min_size=1, max_size=5))
    def test_a_block_ranks_each_row_like_its_own_rank(self, blocks):
        n = min(len(caps) for caps, _ in blocks)
        caps = np.array([caps[:n] for caps, _ in blocks])
        proctors = np.array([proctors[:n] for _, proctors in blocks])
        ranks = weight_ranks(caps, proctors)
        assert ranks.shape == caps.shape
        for row, c, p in zip(ranks, caps.tolist(), proctors.tolist()):
            # Renumbered densely, a row's block ranks are its own ranks.
            assert np.unique(row, return_inverse=True)[1].tolist() == fraction_ranks(c, p)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            ProblemInstance((1, 2), (1,), 0)

    def test_zero_capacity(self):
        with pytest.raises(InvalidParameterError):
            ProblemInstance((0, 2), (1, 1), 0)

    def test_zero_proctors(self):
        with pytest.raises(InvalidParameterError):
            ProblemInstance((1, 2), (1, 0), 0)

    def test_negative_demand(self):
        with pytest.raises(InvalidParameterError):
            ProblemInstance((1, 2), (1, 1), -1)

    def test_no_rooms(self):
        with pytest.raises(InvalidParameterError):
            ProblemInstance((), (), 0)

    def test_total_capacity_cap(self):
        with pytest.raises(InvalidParameterError):
            ProblemInstance((2**31, 5), (1, 1), 0)

    # Past int64, and a total whose int64 sum would wrap to -2^62.
    @pytest.mark.parametrize("caps", [(10**40,), (2**62,) * 3], ids=["past_int64", "wrapping_sum"])
    def test_huge_capacities_are_refused_by_their_total(self, caps):
        with pytest.raises(InvalidParameterError, match="total capacity exceeds"):
            ProblemInstance(caps, (1,) * len(caps), 1)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_a_block_raises_like_its_first_failing_instance(self, data):
        n, rows = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        values = st.integers(-1, 3) | st.integers(1, 2**33)
        caps = data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=rows, max_size=rows))
        proctors = data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=rows, max_size=rows))
        demands = [data.draw(st.integers(-1, max(sum(c), 0) + 1)) for c in caps]
        expected = None
        for c, p, d in zip(caps, proctors, demands):
            try:
                ProblemInstance(c, p, d).require_feasible()
            except (InvalidParameterError, InfeasibleError) as exc:
                expected = (type(exc), str(exc))
                break
        try:
            require_instances(np.array(caps), np.array(proctors), np.array(demands))
            raised = None
        except (InvalidParameterError, InfeasibleError) as exc:
            raised = (type(exc), str(exc))
        assert raised == expected

    def test_a_block_raises_infeasible_for_its_first_infeasible_row(self):
        caps, proctors = np.array([[5, 6], [5, 6]]), np.ones((2, 2), np.int64)
        with pytest.raises(InfeasibleError) as raised:
            require_instances(caps, proctors, np.array([11, 12]))
        with pytest.raises(InfeasibleError) as expected:
            ProblemInstance((5, 6), (1, 1), 12).require_feasible()
        assert str(raised.value) == str(expected.value)

    def test_feasibility_predicate(self):
        assert ProblemInstance((5, 6), (1, 1), 11).is_feasible()
        assert not ProblemInstance((5, 6), (1, 1), 12).is_feasible()
