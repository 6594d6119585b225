import hashlib
import io
import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcknap import (
    DCNode,
    DCTree,
    ExperimentParams,
    InvalidParameterError,
    ProblemInstance,
    Realization,
    SortCriterion,
    average_series,
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
from dcknap import dctree, metrics, montecarlo, solvers
from dcknap.cli import _params_for, main
from dcknap.dctree import ROUNDING_MODES, TREE_ALGORITHMS, TreeParams, build_tree
from dcknap.montecarlo import DISTRIBUTIONS
from dcknap.solvers import SORT_KEYS
from conftest import PERFBENCH, fraction_series, reference_realization_series


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

    @pytest.mark.parametrize(
        "dist, args",
        [("poisson", (montecarlo.POISSON_MEAN,)), ("binomial", (montecarlo.BINOMIAL_TRIALS, montecarlo.BINOMIAL_P))],
    )
    def test_zero_draws_are_redrawn_from_the_same_distribution(self, monkeypatch, dist, args):
        # No real draw holds a zero (P is about e^-65 for Poisson, 0.8^480 for
        # binomial), so a stub generator hands out zeros: three, then one.
        draws = iter([np.array([0, 3, 0, 5, 0]), np.array([0, 7, 8]), np.array([9])])
        calls = []

        class Generator:
            def __getattr__(self, name):
                def draw(*params, size):
                    calls.append((name, params, size))
                    return next(draws)

                return draw

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Generator())
        assert sample_capacities(dist, 5, seed=0) == (9, 3, 7, 5, 8)
        assert calls == [(dist, args, 5), (dist, args, 3), (dist, args, 1)]

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

    def test_resolved_tree_params_are_never_stale(self, tmp_path, capsys):
        # Every construction, `replace` included, builds `tree` from the
        # params' own tree fields: every sweep point and the blT twin.
        hlt = ExperimentParams(n_rooms=16, sort=SortCriterion("random", 3), min_size=2, rounding="floor")
        blt = replace(hlt, tree_alg="blT", head_fraction=None)
        points = [hlt, blt, _params_for(hlt, "blT")]
        for variable, domain in montecarlo.SWEEP_DOMAINS.items():
            for params in (hlt,) if variable == "f" else (hlt, blt):
                points += [montecarlo._with_value(params, variable, value) for value in domain]
        for p in points:
            assert p.tree == TreeParams(p.tree_alg, p.sort, p.head_fraction, p.min_size, p.rounding)
        assert "tree=" not in repr(hlt) and "TreeParams" not in repr(hlt)
        config = tmp_path / "config.txt"
        config.write_text("tree=hlT\n")
        assert main(["experiment", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: tree\n"


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


    @pytest.mark.parametrize("tree_alg", TREE_ALGORITHMS)
    def test_builds_no_per_vertex_objects(self, tree_alg, monkeypatch):
        # Trees stay arrays from the rank to the per-height sums, a block of
        # trees at a time: one DCTree per block, and no ProblemInstance,
        # DCNode or prune and no per-tree build or solve, at any binding a
        # caller could look up.
        calls = []

        def spy(owner, name, label):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(label) or original(*a, **k))

        spy(DCNode, "__init__", "DCNode")
        spy(DCTree, "__init__", "DCTree")
        spy(ProblemInstance, "__post_init__", "ProblemInstance")
        for module in (dctree, metrics):
            spy(module, "prune", "prune")
        for name in ("build_tree", "solve_tree", "build_block", "solve_trees"):
            spy(montecarlo, name, name)
        params = ExperimentParams(n_rooms=64, tree_alg=tree_alg, realizations=3, master_seed=5)
        assert run_experiment(params).bounds.height >= 3
        assert calls == ["build_block", "DCTree"]  # one block of 3 trees
        # The spy counts: the DCNode view of a tree is built on first use.
        calls.clear()
        tree = build_tree(build_instance(make_realization("uniform", 64, 1, 5), 54), tree_alg, params.sort)
        assert len(tree.nodes) == calls.count("DCNode") > 1


def _flat_rooms(params):
    """The vertex sizes of one tree of `params`, summed."""
    (places, *_), _ = dctree._shape(params.tree_alg, params.n_rooms, params.head_fraction, params.min_size)
    return len(places)


@st.composite
def experiments(draw):
    """Small experiments with every tree and sort parameter drawn, rate 1 and
    a rate past every total included, over 1 to 9 realizations."""
    tree_alg = draw(st.sampled_from(TREE_ALGORITHMS))
    fraction = None
    if tree_alg == "hlT":
        fraction = draw(st.sampled_from((None, Fraction(7, 20), Fraction(2, 3), Fraction(1, 10))))
    key = draw(st.sampled_from(SORT_KEYS))
    seed = draw(st.none() | st.integers(0, 2**32)) if key == "random" else None
    return ExperimentParams(
        n_rooms=draw(st.integers(1, 40)),
        dist=draw(st.sampled_from(DISTRIBUTIONS)),
        occupancy=draw(st.sampled_from((Fraction(9, 10), Fraction(1))) | st.integers(1, 99).map(lambda k: Fraction(k, 100))),
        rate=draw(st.sampled_from((1, 54, 2**70)) | st.integers(1, 150)),
        tree_alg=tree_alg,
        sort=SortCriterion(key, seed),
        head_fraction=fraction,
        min_size=draw(st.sampled_from((1, 2, 4))),
        rounding=draw(st.sampled_from(ROUNDING_MODES)),
        realizations=draw(st.integers(1, 9)),
        master_seed=draw(st.integers(0, 2**32)),
    )


def _with_demand(params, zero_demand):
    """Demand 0 makes every sum of a tree 0, DPS(0) included, so its growth
    and gap cells fall to the zero rule; one room at occupancy 1/100 gives
    demand 0 to some trees of a block and 1 to the others."""
    if zero_demand == "every":
        return replace(params, occupancy=Fraction(1, 10**6))
    if zero_demand == "some":
        return replace(params, n_rooms=1, occupancy=Fraction(1, 100))
    return params


class TestBlocks:
    """run_experiment solves its realizations in blocks of same-shape trees;
    the results must be those of one tree at a time."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(experiments(), st.sampled_from((1, 2, 3)))
    @example(replace(SMALL, realizations=5, sort=SortCriterion("random")), 3)  # a seed per row
    def test_blocks_match_one_tree_at_a_time(self, params, rows):
        blocks, replayed = [], []
        solve, replay = montecarlo._realization_series, montecarlo._exact_sums
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "BLOCK_ROOMS", rows * _flat_rooms(params))
            mp.setattr(montecarlo, "_realization_series", lambda p, i: blocks.append(len(i)) or solve(p, i))
            mp.setattr(montecarlo, "_exact_sums", lambda p, i: replayed.append(len(i)) or replay(p, i))
            result = run_experiment(params)
            result_average, result_series = result.average, result.series  # replayed in the same blocks
        count = params.realizations
        assert blocks == replayed == [rows] * (count // rows) + [count % rows] * (count % rows > 0)
        series = tuple(reference_realization_series(params, i) for i in range(count))
        average = average_series(series)
        assert result_average == average and repr(result_average) == repr(average)
        assert result_series == series and repr(result_series) == repr(series)  # ints stay ints

    @settings(max_examples=150, deadline=None, database=None)
    @given(experiments(), st.sampled_from((1, 2, 3)), st.sampled_from((None, "every", "some")))
    @example(replace(SMALL, n_rooms=1, realizations=9), 2, "some")
    def test_integer_means_equal_the_fraction_means(self, params, rows, zero_demand):
        params = _with_demand(params, zero_demand)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "BLOCK_ROOMS", rows * _flat_rooms(params))
            result = run_experiment(params)
            result_average, result_series = result.average, result.series  # replayed in the same blocks
        series = tuple(reference_realization_series(params, i) for i in range(params.realizations))
        assert result_series == series and repr(result_series) == repr(series)
        for tree in result_series:
            expected = fraction_series(tree.lrs, tree.dps, tree.gas)
            assert tree == expected and repr(tree) == repr(expected)
        average = average_series(result_series)
        assert result_average == average and repr(result_average) == repr(average)

    def test_builds_no_fraction_per_tree(self, monkeypatch):
        # The bounds are floats and ints: no Fraction at any count, until
        # the exact average is read.
        params = ExperimentParams(n_rooms=64, master_seed=5)
        runs = [replace(params, realizations=count) for count in (3, 30)]
        counts = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            counts[-1] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        for run in runs:
            counts.append(0)
            run_experiment(run)
        monkeypatch.undo()
        assert counts == [0, 0]

    @settings(max_examples=150, deadline=None, database=None)
    @given(experiments(), st.sampled_from((1, 2, 3)), st.sampled_from((None, "every", "some")))
    @example(replace(SMALL, n_rooms=1, realizations=9), 2, "some")
    def test_bounds_hold_the_exact_means(self, params, rows, zero_demand):
        params = _with_demand(params, zero_demand)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "BLOCK_ROOMS", rows * _flat_rooms(params))
            result = run_experiment(params)
            average = result.average
        for name in metrics.ALL_METRICS:
            cells = zip(result.bounds.metric(name), average.metric(name), strict=True)
            for bound, mean in cells:
                assert bound.count == params.realizations
                assert Fraction(bound.lo) / bound.count <= mean <= Fraction(bound.hi) / bound.count
                if name in ("DPS", "GAS"):
                    assert Fraction(bound.lo, bound.count) == mean == Fraction(bound.hi, bound.count)

    def test_repr_needs_no_replay(self, monkeypatch):
        # The fields are the params and the bounds, floats and ints.  The
        # exact average of 200 realizations would not print: its ints pass
        # Python's 4,300-digit limit of int-to-str conversion.
        result = run_experiment(ExperimentParams(realizations=200, master_seed=2024))
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        text = repr(result)
        monkeypatch.undo()
        assert built == [] and "sums" not in vars(result)
        assert text.startswith("ExperimentResult(params=ExperimentParams(") and "Bounds(lo=" in text

    def test_memory_does_not_grow_with_realizations(self):
        # Each block is folded into a few sums per cell: the peak is one
        # block's arrays.  Keeping each tree's int sums (about 1.3 KiB
        # here) until an exact average adds about 80 KiB; one block of all
        # 64 trees would add about 17 MiB.
        params = ExperimentParams(n_rooms=512, master_seed=2024)
        run_experiment(replace(params, realizations=1))  # the shared tree shape
        peaks = {}
        for count in (4, 64):
            tracemalloc.start()
            try:
                run_experiment(replace(params, realizations=count))
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] < peaks[4] + (1 << 15)

    def test_outputs_do_not_depend_on_earlier_runs(self, tmp_path, capsys):
        # The benchmark's two configs and a blT occupancy grid, forward and
        # then backward in one interpreter: their trees fill blocks of 4 with
        # a short last one of 2, blocks of 2, and blocks of 4 and 3.  Each
        # out-dir is hashed as the benchmark's `digest_dir` hashes it, so the
        # two benchmark configs must give its reference digests.
        configs = [
            "n_rooms=512\noccupancy=0.9\nrate=54\ntree_alg=hlT\nmin_size=4\nrealizations=50\n",
            "n_rooms=1024\ndist=binomial\noccupancy=0.3\nmin_size=32\nrealizations=2\nsweep=s\n",
            "n_rooms=512\ntree_alg=blT\nmin_size=4\nrealizations=7\nsweep=o\n",
        ]
        digests = {}
        for run, k in enumerate([0, 1, 2, 2, 1, 0]):
            config = tmp_path / f"config{run}.txt"
            config.write_text(configs[k] + "master_seed=2024\n")
            out_dir = tmp_path / f"out{run}"
            assert main(["experiment", str(config), "--out-dir", str(out_dir)]) == 0
            digest = hashlib.sha256()
            for path in sorted(out_dir.iterdir()):
                data = path.read_bytes()
                digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
            digests.setdefault(k, set()).add(digest.hexdigest())
        capsys.readouterr()
        assert all(len(found) == 1 for found in digests.values())
        reference = json.loads((PERFBENCH / "reference.json").read_text())
        assert digests[0] == {reference["ref_hlT"]["digest"]}
        assert digests[1] == {reference["dp_heavy"]["digest"]}


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

    def test_unequal_room_counts_are_refused(self):
        batch = [Realization((1, 2), 1), Realization((1, 2, 3), 1)]
        with pytest.raises(InvalidParameterError, match="same room count"):
            write_rooms_csv(io.StringIO(), batch)

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
