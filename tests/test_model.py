import numpy as np
import pytest

from dcknap import (
    InvalidParameterError,
    ProblemInstance,
    proctors_from_rate,
)


class TestProctorsFromRate:
    def test_sample_batch_column(self):
        caps = [113, 54, 95, 89, 85, 87, 76, 105]
        assert proctors_from_rate(caps, 54) == (3, 1, 2, 2, 2, 2, 2, 2)

    def test_two_rooms(self):
        assert proctors_from_rate([100, 40], 25) == (4, 2)

    def test_exact_division(self):
        assert proctors_from_rate([10], 10) == (1,)

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


class TestWeightRanks:
    def test_two_rooms(self):
        # 100/4 = 25 ranks above 40/2 = 20.
        assert ProblemInstance((100, 40), (4, 2), 40).weight_ranks == (0, 1)

    def test_equal_rooms(self):
        assert ProblemInstance((10, 10), (1, 1), 5).weight_ranks == (0, 0)

    def test_common_divisor_rate_gives_equal_weights(self):
        rate = 12
        caps = tuple(rate * k for k in (1, 3, 5, 7))
        inst = ProblemInstance(caps, proctors_from_rate(caps, rate), 50)
        assert inst.weight_ranks == (0, 0, 0, 0)

    def test_exact_where_float_division_ties(self):
        caps, proctors = (10**9 + 1, 10**9 + 2), (10**9, 10**9 + 1)
        assert caps[0] / proctors[0] == caps[1] / proctors[1]
        assert ProblemInstance(caps, proctors, 0).weight_ranks == (0, 1)


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

    def test_feasibility_predicate(self):
        assert ProblemInstance((5, 6), (1, 1), 11).is_feasible()
        assert not ProblemInstance((5, 6), (1, 1), 12).is_feasible()
