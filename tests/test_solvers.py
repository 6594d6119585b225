from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap import (
    InfeasibleError,
    InvalidParameterError,
    ProblemInstance,
    SizeLimitError,
    SortCriterion,
    dp_solve,
    greedy_solve,
    lp_relax_solve,
    proctors_from_rate,
    solve_triple,
)
import dcknap.solvers
from conftest import RATIOS, brute_force_solve, random_instance

MICRO = ProblemInstance((100, 40), (4, 2), 40)


def reference_greedy(instance):
    """Greedy cover computed from scratch: rooms by descending capacity per
    proctor, ties by position, taken until the demand is covered; returned
    as (ascending positions, cost)."""
    caps, prices = instance.capacities, instance.proctors
    order = sorted(range(len(caps)), key=lambda i: (-Fraction(caps[i], prices[i]), i))
    rooms = []
    covered = 0
    for i in order:
        if covered >= instance.demand:
            break
        rooms.append(i)
        covered += caps[i]
    return tuple(sorted(rooms)), sum(prices[i] for i in rooms)


def greedy_reference_cases():
    """Random instances, plus tied specific weights and both demand extremes."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        yield random_instance(rng)
    for _ in range(100):
        inst = random_instance(rng, with_rate=False)
        # Rooms with equal capacity/proctor ratios tie on specific weight.
        caps = tuple(3 * p for p in inst.proctors)
        yield ProblemInstance(caps, inst.proctors, sum(caps) // 2)
        yield ProblemInstance(inst.capacities, inst.proctors, 0)
        yield ProblemInstance(inst.capacities, inst.proctors, inst.total_capacity)


class TestGreedy:
    def test_micro_example(self):
        rooms, value = greedy_solve(MICRO)
        assert rooms == (0,)
        assert value == 4

    def test_realization_one_takes_every_room(self, r1_instance):
        rooms, value = greedy_solve(r1_instance)
        assert value == 16
        assert rooms == tuple(range(8))

    def test_zero_demand(self):
        rooms, value = greedy_solve(ProblemInstance((5, 7), (1, 2), 0))
        assert value == 0
        assert rooms == ()

    def test_infeasible_carries_deficit(self):
        with pytest.raises(InfeasibleError) as exc:
            greedy_solve(ProblemInstance((5, 7), (1, 2), 20))
        assert exc.value.deficit == 8


class TestDP:
    def test_infeasible_carries_deficit(self):
        with pytest.raises(InfeasibleError) as exc:
            dp_solve(ProblemInstance((10, 10), (1, 1), 25))
        assert exc.value.deficit == 5

    def test_micro_example(self):
        rooms, value = dp_solve(MICRO)
        assert value == 2
        assert rooms == (1,)

    def test_four_room_example(self):
        inst = ProblemInstance((100, 50, 100, 50), (2, 1, 2, 1), 150)
        _, value = dp_solve(inst)
        assert value == 3

    def test_realization_one(self, r1_instance):
        _, value = dp_solve(r1_instance)
        assert value == 15

    def test_selection_attains_value_and_covers(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            inst = random_instance(rng)
            rooms, value = dp_solve(inst)
            assert rooms == tuple(sorted(set(rooms)))
            assert sum(inst.proctors[i] for i in rooms) == value
            assert sum(inst.capacities[i] for i in rooms) >= inst.demand

    def test_full_occupancy_takes_everything(self):
        inst = ProblemInstance((5, 7, 9), (1, 1, 1), 21)
        rooms, value = dp_solve(inst)
        assert rooms == (0, 1, 2)
        assert value == 3

    def test_proctor_sums_past_int32_rejected(self):
        # These proctors would overflow the int32 DP table (2**31 instead of 2**30).
        with pytest.raises(InvalidParameterError):
            ProblemInstance((1, 1, 1), (2**30,) * 3, 1)

    def test_proctor_sum_at_int32_max(self):
        inst = ProblemInstance((1, 1, 1), (2**30 - 1, 2**30 - 1, 1), 1)
        assert inst.total_proctors == 2**31 - 1
        assert dp_solve(inst) == brute_force_solve(inst)
        assert dp_solve(inst)[1] == 1

    def test_oversized_table_rejected_before_allocation(self, monkeypatch):
        # Cost axis up to UB = GAS (no repair is cheaper), 1e9 + 1 columns;
        # budget axis 2e9: either table is far past the cell limit.
        inst = ProblemInstance((10**9, 10**9), (10**9, 10**9), 1)

        def no_allocation(*args, **kwargs):
            raise AssertionError("np.zeros called")

        monkeypatch.setattr(dcknap.solvers.np, "zeros", no_allocation)
        with pytest.raises(SizeLimitError, match="3 rows x"):
            dp_solve(inst)


@st.composite
def tied_instances(draw):
    """(instance, side): rooms of a few shared ratios, demand placed so that
    dp_solve indexes by cost ("cost"), by budget ("budget"), or either ("any")."""
    rooms = draw(
        st.lists(
            st.tuples(st.sampled_from(RATIOS), st.integers(1, 3)),
            min_size=1,
            max_size=14,
        )
    )
    caps = tuple(a * m for (a, _), m in rooms)
    prices = tuple(b * m for (_, b), m in rooms)
    total_cap, total_p = sum(caps), sum(prices)
    side = draw(st.sampled_from(("cost", "budget", "any")))
    if side == "cost":
        # budget >= total proctors >= GAS
        demand = draw(st.integers(0, total_cap - total_p))
    elif side == "budget":
        # budget < cheapest room <= optimum <= GAS
        demand = draw(st.integers(max(1, total_cap - min(prices) + 1), total_cap))
    else:
        demand = draw(st.integers(0, total_cap))
    return ProblemInstance(caps, prices, demand), side


class TestDPProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(tied_instances())
    def test_matches_brute_force(self, case):
        inst, side = case
        expected = brute_force_solve(inst)
        _, gas = greedy_solve(inst)
        budget = inst.total_capacity - inst.demand
        if inst.demand > 0 and side != "any":
            assert (gas <= budget) == (side == "cost")
        assert dp_solve(inst) == expected

    @settings(max_examples=200, deadline=None, database=None)
    @given(tied_instances())
    def test_triple_sandwich(self, case):
        inst, _ = case
        triple = solve_triple(inst)
        assert triple.lrs <= triple.dps <= triple.gas
        assert triple.dps == brute_force_solve(inst)[1]
        # GAS depends on how rooms of equal specific weight are ordered.
        assert triple.lrs == lp_relax_solve(inst).value
        assert triple.gas == greedy_solve(inst)[1]


class TestLPRelaxation:
    def test_micro_example(self):
        relax = lp_relax_solve(MICRO)
        assert relax.value == Fraction(8, 5)
        assert relax.fractional_index == 0
        assert relax.support == (0,)

    def test_realization_one(self, r1_instance):
        relax = lp_relax_solve(r1_instance)
        assert relax.value == 13 + Fraction(126, 113)
        assert relax.fractional_index == 0  # largest room fills the residual

    def test_exact_fill_has_no_fractional_room(self):
        relax = lp_relax_solve(ProblemInstance((10, 10), (1, 1), 10))
        assert relax.value == 1
        assert relax.fractional_index is None

    def test_at_most_one_fractional_room(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            relax = lp_relax_solve(random_instance(rng))
            assert relax.fractional_index is None or isinstance(
                relax.fractional_index, int
            )
            if relax.fractional_index is not None:
                assert relax.fractional_index == relax.support[-1]


class TestAssociatedIntegerSolution:
    """The greedy cover is the LP support rounded up."""

    def test_matches_greedy_selection(self):
        for inst in greedy_reference_cases():
            expected = reference_greedy(inst)
            assert greedy_solve(inst) == expected
            assert tuple(sorted(lp_relax_solve(inst).support)) == expected[0]
            assert solve_triple(inst).gas == expected[1]


class TestBruteForce:
    def test_micro_example(self):
        rooms, value = brute_force_solve(MICRO)
        assert value == 2
        assert rooms == (1,)

    def test_capacity_objective_low_demand(self):
        caps = (10, 9, 8, 7, 6)
        inst = ProblemInstance(caps, caps, 11)  # rate 1: cost equals capacity
        rooms, value = brute_force_solve(inst)
        assert value == 13
        assert rooms == (3, 4)

    def test_capacity_objective_higher_demand(self):
        caps = (10, 9, 8, 7, 6)
        inst = ProblemInstance(caps, caps, 15)
        rooms, value = brute_force_solve(inst)
        assert value == 15
        assert rooms == (2, 3)

    def test_zero_demand(self):
        _, value = brute_force_solve(ProblemInstance((4, 5), (1, 1), 0))
        assert value == 0

    def test_size_limit(self):
        caps = (2,) * 25
        with pytest.raises(SizeLimitError):
            brute_force_solve(ProblemInstance(caps, (1,) * 25, 3))

    def test_agrees_with_dp(self):
        rng = np.random.default_rng(31)
        for _ in range(250):
            inst = random_instance(rng)
            dp_rooms, dp_value = dp_solve(inst)
            bf_rooms, bf_value = brute_force_solve(inst)
            assert dp_value == bf_value
            assert dp_rooms == bf_rooms  # both pick the lex-smallest


class TestSolveTriple:
    def test_realization_one_root(self, r1_instance):
        triple = solve_triple(r1_instance)
        assert triple.lrs == 13 + Fraction(126, 113)
        assert (triple.dps, triple.gas) == (15, 16)

    def test_head_left_child_of_realization_one(self):
        caps = (54, 105, 95, 89)  # rooms 1, 7, 2, 3 in sorted order
        inst = ProblemInstance(caps, proctors_from_rate(caps, 54), 309)
        triple = solve_triple(inst)
        assert triple.dps == 7
        assert triple.gas == 7

    def test_zero_demand(self):
        triple = solve_triple(ProblemInstance((5, 6), (1, 1), 0))
        assert (triple.lrs, triple.dps, triple.gas) == (0, 0, 0)

    def test_sandwich_randomized(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            inst = random_instance(rng)
            triple = solve_triple(inst)
            assert triple.lrs <= triple.dps <= triple.gas
            assert dp_solve(inst)[1] == triple.dps
            assert greedy_solve(inst)[1] == triple.gas

    def test_exactness_regime(self):
        # one proctor per room: the greedy cover is already optimal
        rng = np.random.default_rng(41)
        for _ in range(200):
            inst = random_instance(rng)
            rate = max(inst.capacities)
            relaxed = ProblemInstance(
                inst.capacities,
                proctors_from_rate(inst.capacities, rate),
                inst.demand,
            )
            _, greedy_value = greedy_solve(relaxed)
            _, exact_value = dp_solve(relaxed)
            assert greedy_value == exact_value

    def test_common_divisor_regime(self):
        # rate dividing every capacity pins the relaxation at demand / rate
        rng = np.random.default_rng(43)
        for _ in range(100):
            rate = int(rng.integers(2, 30))
            n = int(rng.integers(2, 10))
            caps = tuple(rate * int(k) for k in rng.integers(1, 12, size=n))
            demand = int(rng.integers(0, sum(caps) + 1))
            inst = ProblemInstance(caps, proctors_from_rate(caps, rate), demand)
            assert lp_relax_solve(inst).value == Fraction(demand, rate)


class TestSortCriterion:
    def test_specific_weight_order_realization_one(self, r1_instance):
        order = SortCriterion("specific_weight").order(r1_instance)
        assert order == [1, 7, 2, 3, 5, 4, 6, 0]

    def test_ties_break_by_position(self):
        inst = ProblemInstance((10, 10, 10), (1, 1, 1), 5)
        assert SortCriterion("capacity").order(inst) == [0, 1, 2]

    def test_random_is_deterministic_given_seed(self):
        inst = ProblemInstance((3, 1, 2, 9), (1, 1, 1, 2), 2)
        a = SortCriterion("random", seed=99).order(inst)
        b = SortCriterion("random", seed=99).order(inst)
        assert a == b
        assert sorted(a) == [0, 1, 2, 3]

    def test_random_ordering_requires_seed(self):
        inst = ProblemInstance((3, 1), (1, 1), 2)
        with pytest.raises(InvalidParameterError):
            SortCriterion("random").order(inst)

    def test_unknown_key(self):
        with pytest.raises(InvalidParameterError):
            SortCriterion("alphabetical")

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError, match="sort seed must be >= 0"):
            SortCriterion("random", seed=-1)


def test_determinism_end_to_end(r1_instance):
    first = solve_triple(r1_instance)
    second = solve_triple(r1_instance)
    assert first == second
