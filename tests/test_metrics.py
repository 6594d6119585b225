from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap import (
    EfficiencySeries,
    InvalidParameterError,
    SortCriterion,
    average_series,
    build_tree,
    critical_height,
    critical_height_mode,
    efficiency_array,
    format_2dec,
    l1_compare,
    solve_tree,
    solve_triple,
)
from dcknap.metrics import AGGREGATIONS, ALL_METRICS
from conftest import random_instance

GAMMA = SortCriterion("specific_weight")

# Averaged 50-realization table for the exact-solution global efficiency,
# rates 34..74, heights 0..7, values as printed.
RATE_TABLE = {
    34: ("0.00", "1.26", "2.11", "2.66", "3.15", "3.93", "7.72", "14.11"),
    44: ("0.00", "1.93", "3.19", "3.91", "4.52", "5.68", "9.56", "15.50"),
    54: ("0.00", "1.95", "3.40", "4.27", "4.85", "6.63", "10.11", "15.70"),
    64: ("0.00", "2.29", "3.45", "4.34", "4.92", "7.08", "9.99", "15.66"),
    74: ("0.00", "1.82", "2.74", "3.53", "4.17", "6.24", "8.74", "14.83"),
}


def rate_columns():
    return {r: [Fraction(v) for v in col] for r, col in RATE_TABLE.items()}


class TestRealizationOneSeries:
    @pytest.fixture
    def series(self, r1_instance) -> EfficiencySeries:
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")
        return solve_tree(tree)

    def test_solution_rows(self, series):
        assert [format_2dec(v) for v in series.lrs] == ["14.12", "14.25", "14.36"]
        assert series.dps == (15, 16, 16)
        assert series.gas == (16, 16, 16)

    def test_global_efficiency_rows(self, series):
        assert [format_2dec(v) for v in series.gbe_lrs] == ["0.00", "0.98", "1.71"]
        assert [format_2dec(v) for v in series.gbe_dps] == ["0.00", "6.67", "6.67"]
        assert [format_2dec(v) for v in series.gbe_gas] == ["0.00", "0.00", "0.00"]

    def test_stepwise_efficiency_rows(self, series):
        assert [format_2dec(v) for v in series.swe_lrs] == ["0.98", "0.72"]
        assert [format_2dec(v) for v in series.swe_dps] == ["6.67", "0.00"]
        assert [format_2dec(v) for v in series.swe_gas] == ["0.00", "0.00"]

    def test_bound_gap_rows(self, series):
        assert [format_2dec(v) for v in series.gae] == ["6.67", "0.00", "0.00"]
        assert [format_2dec(v) for v in series.lre] == ["5.90", "10.91", "10.27"]

    def test_exact_rationals_behind_the_rendering(self, series):
        assert series.lrs[0] == Fraction(1595, 113)
        assert series.gbe_dps[1] == Fraction(100, 15)

    def test_unknown_metric_name_is_refused(self, series):
        assert series.metric("GbE_DPS") == series.gbe_dps
        with pytest.raises(InvalidParameterError, match="unknown metric 'XYZ'"):
            series.metric("XYZ")


class TestSingleNodeTree:
    def test_series_collapses_to_the_root_triple(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 8, "ceil")
        series = solve_tree(tree)
        triple = solve_triple(r1_instance)
        assert series.height == 0
        assert series.lrs == (triple.lrs,)
        assert series.dps == (triple.dps,)
        assert series.gbe_dps == (0,)
        assert series.swe_dps == ()
        assert series.gae[0] == Fraction(100 * (triple.gas - triple.dps), triple.dps)


def _random_series(rng, n=None):
    inst = random_instance(rng, n=n or int(rng.integers(6, 25)))
    algorithm = rng.choice(["hlT", "blT"])
    fraction = Fraction(int(rng.integers(35, 66)), 100) if algorithm == "hlT" else None
    tree = build_tree(inst, algorithm, GAMMA, fraction=fraction, min_size=2)
    return inst, solve_tree(tree)


class TestSeriesInvariants:
    def test_telescoping_identity_exact(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            _, series = _random_series(rng)
            for name in ("lrs", "dps", "gas"):
                gbe = series.metric(f"gbe_{name}")
                swe = series.metric(f"swe_{name}")
                product = Fraction(1)
                for h in range(1, series.height + 1):
                    product *= 1 + Fraction(swe[h - 1]) / 100
                    assert 1 + Fraction(gbe[h]) / 100 == product

    def test_exact_solution_not_hurt_by_smaller_cuts(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            _, series = _random_series(rng)
            assert all(a <= b for a, b in zip(series.dps, series.dps[1:]))

    def test_bound_gaps_nonnegative(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            _, series = _random_series(rng)
            assert all(v >= 0 for v in series.gae)
            assert all(v >= 0 for v in series.lre)
            assert all(v >= 0 for v in series.gbe_dps)
            assert series.gbe_lrs[0] == series.gbe_dps[0] == series.gbe_gas[0] == 0


def mean_rule(columns, aggregation):
    """Reference critical height that takes true means: for "mean", each
    position's step sum is divided by the number of strategy values."""
    series = [[Fraction(v) for v in column] for column in columns.values()]
    slopes = []
    for h in range(1, len(series[0])):
        steps = [s[h] - s[h - 1] for s in series]
        slopes.append(sum(steps, Fraction(0)) / len(steps) if aggregation == "mean" else max(steps))
    for h in range(2, len(series[0])):
        if slopes[h - 1] > 2 * slopes[h - 2]:
            return h
    return len(series[0]) - 1


@st.composite
def strategy_columns(draw):
    """1-6 strategy values of 3-12 positions each, ints and Fractions in
    [-50, 50], so steps can be negative, zero or equal."""
    length = draw(st.integers(3, 12))
    values = st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=6))
    return {k: draw(st.lists(values, min_size=length, max_size=length)) for k in range(draw(st.integers(1, 6)))}


class TestCriticalHeight:
    @settings(max_examples=300, deadline=None, database=None)
    @given(strategy_columns(), st.sampled_from(AGGREGATIONS))
    def test_sums_pick_the_height_means_pick(self, columns, aggregation):
        assert critical_height(columns, aggregation) == mean_rule(columns, aggregation)

    def test_printed_rate_table_mean(self):
        assert critical_height(rate_columns(), "mean") == 5

    def test_printed_rate_table_max(self):
        assert critical_height(rate_columns(), "max") == 5

    def test_constant_slope_never_degrades(self):
        columns = {"a": list(range(9)), "b": [2 * v for v in range(9)]}
        assert critical_height(columns, "mean") == 8

    def test_first_doubling_step_is_reported(self):
        assert critical_height({"a": [0, 1, Fraction(7, 2), 4]}, "mean") == 2
        assert critical_height({"a": [0, 1, 2, 3, 9, 10]}, "mean") == 4

    def test_shift_invariance(self):
        columns = rate_columns()
        shifted = {k: [v + 17 for v in col] for k, col in columns.items()}
        assert critical_height(shifted, "mean") == critical_height(columns, "mean")

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            critical_height({}, "mean")

    def test_short_series_rejected(self):
        with pytest.raises(InvalidParameterError):
            critical_height({"a": [0, 1]}, "mean")

    def test_unknown_aggregation(self):
        with pytest.raises(InvalidParameterError):
            critical_height(rate_columns(), "median")

    def test_ragged_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            critical_height({"a": [0, 1, 2], "b": [0, 1]}, "mean")


class TestCriticalHeightMode:
    def test_clear_mode(self):
        assert critical_height_mode([5, 5, 4, 5, 3]) == 5

    def test_tie_picks_the_smaller(self):
        assert critical_height_mode([3, 4]) == 3

    def test_singleton(self):
        assert critical_height_mode([4]) == 4

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            critical_height_mode([])


class TestL1Compare:
    def test_occupancy_row_fixture(self):
        result = l1_compare(
            [Fraction("26.45")], [Fraction("3.81")], labels=("hlT", "blT")
        )
        assert (format_2dec(result.norm_a), format_2dec(result.norm_b)) == (
            "26.45",
            "3.81",
        )
        assert result.winner == "blT"

    def test_identical_arrays_tie(self):
        result = l1_compare([[1, 2], [3]], [[1, 2], [3]])
        assert result.norm_a == result.norm_b == 6
        assert result.winner == "tie"

    def test_all_zero_arrays(self):
        result = l1_compare([0, 0], [0, 0])
        assert (result.norm_a, result.norm_b, result.winner) == (0, 0, "tie")

    def test_absolute_values_summed(self):
        result = l1_compare([-2, 3], [1, 1])
        assert result.norm_a == 5
        assert result.winner == "b"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            l1_compare([[1, 2]], [[1, 2], [3]])


class TestAverageSeries:
    @staticmethod
    def _series(gbe_dps_h1):
        z = Fraction(0)
        v = Fraction(gbe_dps_h1)
        return EfficiencySeries(
            lrs=(z, z), dps=(1, 1), gas=(1, 1),
            gbe_lrs=(z, z), gbe_dps=(z, v), gbe_gas=(z, z),
            swe_lrs=(z,), swe_dps=(v,), swe_gas=(z,),
            gae=(z, z), lre=(z, z),
        )

    def test_mean_of_printed_five_realizations(self):
        printed = ("6.67", "14.29", "14.29", "7.14", "13.33")
        avg = average_series([self._series(p) for p in printed])
        assert avg.gbe_dps[1] == Fraction("11.144")

    def test_single_series_is_identity(self):
        series = self._series("3.25")
        avg = average_series([series])
        assert avg.gbe_dps == series.gbe_dps

    def test_constant_series(self):
        avg = average_series([self._series("2.5")] * 4)
        assert avg.gbe_dps[1] == Fraction(5, 2)

    def test_height_mismatch_rejected(self):
        rng = np.random.default_rng(83)
        short = self._series("1")
        _, long_series = _random_series(rng, n=16)
        if long_series.height != short.height:
            with pytest.raises(InvalidParameterError):
                average_series([short, long_series])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            average_series([])

    def test_averaging_commutes_with_indexing(self):
        rng = np.random.default_rng(89)
        batch = []
        while len(batch) < 4:
            _, series = _random_series(rng, n=8)
            if series.height == 2:
                batch.append(series)
        avg = average_series(batch)
        for h in range(3):
            direct = sum(s.gbe_dps[h] for s in batch) / len(batch)
            assert avg.gbe_dps[h] == direct


# Cells as series hold them: ints (DPS, GAS), Fractions of any sign (a SwE
# falls where a sum shrinks) and the zero of a `_pct` over a zero base.
CELLS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
    st.just(Fraction(0)),
    st.just(0),
)


@st.composite
def series_batches(draw):
    height = draw(st.integers(0, 4))

    def column(name):
        length = height if name.startswith("SwE") else height + 1
        return tuple(draw(st.lists(CELLS, min_size=length, max_size=length)))

    return [
        EfficiencySeries(**{name.lower(): column(name) for name in ALL_METRICS})
        for _ in range(draw(st.integers(1, 8)))
    ]


@settings(max_examples=200, deadline=None, database=None)
@given(series_batches())
def test_average_is_the_plain_fraction_mean(batch):
    average = average_series(batch)
    for name in ALL_METRICS:
        expected = [
            sum((Fraction(cell) for cell in cells), Fraction(0)) / len(batch)
            for cells in zip(*(s.metric(name) for s in batch))
        ]
        cells = average.metric(name)
        assert list(cells) == expected
        assert all(type(cell) is Fraction for cell in cells)
        assert [format_2dec(cell) for cell in cells] == [format_2dec(cell) for cell in expected]


class TestEfficiencyArray:
    def test_stepwise_metrics_align_on_heights(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")
        series = solve_tree(tree)
        block = efficiency_array(series, ["GbE_DPS", "SwE_DPS"], 2)
        assert block[0] == [series.gbe_dps[1], series.gbe_dps[2]]
        assert block[1] == [series.swe_dps[0], series.swe_dps[1]]

    def test_one_height(self, r1_instance):
        # At h_tilde = 1 each row is one cell: height 1, which a stepwise
        # metric keeps at index 0 and every other metric at index 1.
        series = solve_tree(build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "ceil"))
        block = efficiency_array(series, ALL_METRICS, 1)
        assert block == [
            [series.metric(name)[0 if name.startswith("SwE") else 1]] for name in ALL_METRICS
        ]

    def test_h_range_validated(self, r1_instance):
        tree = build_tree(r1_instance, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")
        series = solve_tree(tree)
        with pytest.raises(InvalidParameterError):
            efficiency_array(series, ["GAE"], 3)
