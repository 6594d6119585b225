import io
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap import (
    ExperimentParams,
    InvalidParameterError,
    Realization,
    SortCriterion,
    build_instance,
    derive_seed,
    dp_solve,
    make_realization,
    occupancy_demand,
    read_rooms_csv,
    run_experiment,
    sample_capacities,
    sweep,
    write_rooms_csv,
)


class TestSampling:
    def test_uniform_support_is_inclusive(self):
        caps = sample_capacities("uniform", 100_000, seed=1)
        assert min(caps) >= 40 and max(caps) <= 120
        assert 40 in caps and 120 in caps

    def test_poisson_mean(self):
        caps = sample_capacities("poisson", 100_000, seed=2)
        assert all(c >= 1 for c in caps)
        assert abs(np.mean(caps) - 65) < 1.0

    def test_binomial_mean(self):
        caps = sample_capacities("binomial", 100_000, seed=3)
        assert all(c >= 1 for c in caps)
        assert abs(np.mean(caps) - 480 * 0.2) < 1.5

    def test_unknown_distribution(self):
        with pytest.raises(InvalidParameterError):
            sample_capacities("geometric", 10, seed=0)

    def test_deterministic_given_seed(self):
        assert sample_capacities("uniform", 32, seed=9) == sample_capacities(
            "uniform", 32, seed=9
        )

    def test_needs_at_least_one_room(self):
        with pytest.raises(InvalidParameterError):
            sample_capacities("uniform", 0, seed=0)

    def test_room_count_past_capacity_limit_refused_before_sampling(self, monkeypatch):
        # 60e6 uniform rooms hold at least 2.4e9 > 2^31 - 1 students.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(np.random, "default_rng", no_sampling)
        with pytest.raises(InvalidParameterError, match="2147483647"):
            sample_capacities("uniform", 60_000_000, seed=0)
        with pytest.raises(InvalidParameterError, match="2147483647"):
            ExperimentParams(n_rooms=60_000_000)

    def test_room_count_limit_is_the_smallest_total(self):
        limit = 2**31 - 1
        ExperimentParams(n_rooms=limit // 40)
        with pytest.raises(InvalidParameterError):
            ExperimentParams(n_rooms=limit // 40 + 1)
        for dist in ("poisson", "binomial"):
            ExperimentParams(dist=dist, n_rooms=limit)
            with pytest.raises(InvalidParameterError):
                ExperimentParams(dist=dist, n_rooms=limit + 1)


class TestDemand:
    @pytest.mark.parametrize(
        "total,expected",
        [(704, 633), (624, 561), (636, 572), (558, 502), (677, 609)],
    )
    def test_sample_batch_pairs(self, total, expected):
        assert occupancy_demand("0.9", total) == expected

    def test_full_occupancy(self):
        assert occupancy_demand(1, 704) == 704

    def test_make_realization_floors_the_product(self):
        r = make_realization("uniform", 8, "0.9", seed=5)
        assert r.demand == (9 * sum(r.capacities)) // 10
        assert r.demand <= sum(r.capacities)

    def test_invalid_occupancy(self):
        with pytest.raises(InvalidParameterError):
            make_realization("uniform", 8, 0, seed=5)
        with pytest.raises(InvalidParameterError):
            make_realization("uniform", 8, "1.1", seed=5)


class TestSeedDerivation:
    def test_frozen_values(self):
        # pinned so reruns across releases keep old experiments reproducible
        assert derive_seed(0, 0, 0, "capacities") == 5255087471603109686
        assert derive_seed(123, 7, 0, "sort") == 2345644539446124286

    def test_parts_matter(self):
        assert derive_seed(0, 1) != derive_seed(0, 2)
        assert derive_seed(0, 1, "capacities") != derive_seed(0, 1, "sort")


class TestExperimentParams:
    def test_standard_setting_defaults(self):
        p = ExperimentParams()
        assert (p.n_rooms, p.rate, p.min_size, p.realizations) == (512, 54, 4, 50)
        assert p.occupancy == Fraction(9, 10)
        assert p.head_fraction == Fraction(1, 2)
        assert p.sort.key == "specific_weight"
        assert p.tree_alg == "hlT"

    def test_balanced_rejects_head_fraction(self):
        with pytest.raises(InvalidParameterError, match="takes no head fraction"):
            ExperimentParams(tree_alg="blT", head_fraction=Fraction(1, 2))
        assert ExperimentParams(tree_alg="blT").head_fraction is None

    def test_head_left_fraction_defaults_to_half(self):
        assert ExperimentParams(tree_alg="hlT", head_fraction=None).head_fraction == Fraction(1, 2)

    def test_occupancy_domain(self):
        with pytest.raises(InvalidParameterError):
            ExperimentParams(occupancy=0)

    def test_unknown_distribution(self):
        with pytest.raises(InvalidParameterError):
            ExperimentParams(dist="zipf")


SMALL = ExperimentParams(
    n_rooms=16, realizations=4, min_size=4, master_seed=11, occupancy="0.8"
)


class TestRunExperiment:
    def test_single_realization_average_is_identity(self):
        result = run_experiment(replace(SMALL, realizations=1))
        assert result.average.gbe_dps == result.series[0].gbe_dps
        assert result.average.dps == tuple(
            Fraction(v) for v in result.series[0].dps
        )

    def test_repeated_runs_identical(self):
        assert run_experiment(SMALL) == run_experiment(SMALL)

    def test_realizations_use_derived_seeds(self):
        result = run_experiment(SMALL)
        rebuilt = make_realization(
            "uniform", 16, "0.8", derive_seed(11, 2, 0, "capacities")
        )
        _, root_value = dp_solve(build_instance(rebuilt, SMALL.rate))
        # realization 2's root solution matches an instance rebuilt from its seed
        assert result.series[2].dps[0] == root_value

    def test_random_sort_is_reproducible(self):
        params = replace(SMALL, sort=SortCriterion("random", seed=None))
        assert run_experiment(params) == run_experiment(params)


class TestSweep:
    def test_rate_domain_default(self):
        results = sweep(replace(SMALL, realizations=2), "r")
        assert list(results) == [34, 44, 54, 64, 74]

    def test_singleton_domain(self):
        results = sweep(replace(SMALL, realizations=2), "r", domain=(54,))
        assert list(results) == [54]

    def test_paired_realizations_across_sorts(self):
        results = sweep(replace(SMALL, realizations=3), "s")
        root_dps = {
            key: tuple(series.dps[0] for series in result.series)
            for key, result in results.items()
        }
        reference = next(iter(root_dps.values()))
        assert all(v == reference for v in root_dps.values())

    def test_fraction_sweep_rejected_for_balanced(self):
        params = ExperimentParams(
            n_rooms=16, realizations=2, tree_alg="blT", head_fraction=None
        )
        with pytest.raises(InvalidParameterError, match="takes no head fraction"):
            sweep(params, "f")

    def test_unknown_variable(self):
        with pytest.raises(InvalidParameterError):
            sweep(SMALL, "m")

    def test_empty_domain(self):
        with pytest.raises(InvalidParameterError):
            sweep(SMALL, "r", domain=())

    def test_occupancy_sweep_changes_demand_only(self):
        results = sweep(replace(SMALL, realizations=2), "o", domain=("0.5", "0.9"))
        assert len(results) == 2

    def test_capacities_depend_only_on_the_seed(self):
        low = make_realization("uniform", 16, "0.5", seed=42)
        high = make_realization("uniform", 16, "0.9", seed=42)
        assert low.capacities == high.capacities
        assert low.demand < high.demand


class TestRoomsCsv:
    def test_round_trip(self):
        batch = [
            make_realization("uniform", 8, "0.9", derive_seed(0, k, 0, "capacities"))
            for k in range(3)
        ]
        buffer = io.StringIO()
        write_rooms_csv(buffer, batch)
        buffer.seek(0)
        columns = read_rooms_csv(buffer)
        assert [label for label, _, _ in columns] == [
            "realization_1",
            "realization_2",
            "realization_3",
        ]
        for (_, caps, demand), r in zip(columns, batch):
            assert caps == r.capacities
            assert demand == r.demand

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(1, 20))
        batch = []
        for _ in range(data.draw(st.integers(1, 5))):
            caps = data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
            batch.append(Realization(tuple(caps), data.draw(st.integers(0, sum(caps)))))
        # printable labels, commas and quotes included
        labels = data.draw(
            st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126)),
                     min_size=len(batch), max_size=len(batch))
        )
        buffer = io.StringIO()
        write_rooms_csv(buffer, batch, labels)
        buffer.seek(0)
        assert read_rooms_csv(buffer) == [
            (label, r.capacities, r.demand) for label, r in zip(labels, batch)
        ]

    def test_sample_fixture_parses(self, rooms_csv):
        with open(rooms_csv, newline="") as stream:
            columns = read_rooms_csv(stream)
        assert len(columns) == 5
        label, caps, demand = columns[0]
        assert label == "realization_1"
        assert sum(caps) == 704
        assert demand == 633

    def test_sum_row_validated(self):
        text = "room,a\n0,10\n1,20\nSUM,31\nDEMAND,5\n"
        with pytest.raises(InvalidParameterError):
            read_rooms_csv(io.StringIO(text))

    def test_header_validated(self):
        with pytest.raises(InvalidParameterError):
            read_rooms_csv(io.StringIO("rooms,a\n0,1\n"))
