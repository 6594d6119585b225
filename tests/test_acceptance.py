"""Acceptance gate: one test per criterion, each checked at its stated
tolerance and time budget.  Worked values are exact; the large Monte Carlo
reproduction is banded because it depends on the sampling seed."""

import time
from fractions import Fraction

import numpy as np

from dcknap import (
    ExperimentParams,
    ProblemInstance,
    SortCriterion,
    build_tree,
    critical_height,
    dp_solve,
    format_2dec,
    greedy_solve,
    l1_compare,
    lp_relax_solve,
    make_realization,
    proctors_from_rate,
    prune,
    run_experiment,
    solve_tree,
    solve_triple,
)
from dcknap.cli import main as cli_main
from conftest import R1_CAPACITIES, R1_DEMAND, brute_force_solve

GAMMA = SortCriterion("specific_weight")

OCCUPANCIES = ("0.5", "0.55", "0.6", "0.65", "0.7", "0.75", "0.8", "0.85", "0.9")


def r1_instance():
    return ProblemInstance(
        R1_CAPACITIES, proctors_from_rate(R1_CAPACITIES, 54), R1_DEMAND
    )


def timed(budget_seconds, fn, *args, **kwargs):
    """Call fn and check the CPU time of this thread against the budget.

    Thread CPU time leaves out the time the thread spends descheduled, so a
    busy machine cannot fail a check of the call's own cost.
    """
    start = time.thread_time()
    result = fn(*args, **kwargs)
    elapsed = time.thread_time() - start
    assert elapsed < budget_seconds, f"took {elapsed:.4f}s of CPU, budget {budget_seconds}s"
    return result


def report(criterion, text):
    print(f"criterion {criterion}: PASS - {text}")


def test_criterion_01_worked_micro_examples():
    inst = ProblemInstance((100, 40), (4, 2), 40)
    solve_triple(inst)  # warmup

    def check():
        greedy_rooms, greedy_value = greedy_solve(inst)
        assert greedy_value == 4
        assert greedy_rooms == (0,)
        _, exact_value = dp_solve(inst)
        assert exact_value == 2
        relax = lp_relax_solve(inst)
        assert relax.value == Fraction(8, 5)
        assert relax.fractional_index == 0
        assert tuple(sorted(relax.support)) == greedy_rooms

    timed(0.001, check)
    report(1, "two-room example: greedy 4 at (1,0), exact 2, relaxation 8/5")


def test_criterion_02_reference_tree_reproduction():
    inst = r1_instance()
    build_tree(inst, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")  # warmup

    def check():
        head = build_tree(inst, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")
        assert tuple(n.demand for n in head.nodes) == (633, 309, 144, 165, 324, 155, 169)
        assert tuple(n.rooms for n in head.nodes) == (
            (1, 7, 2, 3, 5, 4, 6, 0),
            (1, 7, 2, 3),
            (1, 7),
            (2, 3),
            (5, 4, 6, 0),
            (5, 4),
            (6, 0),
        )
        balanced = build_tree(inst, "blT", GAMMA, None, 2, "ceil")
        assert tuple(n.demand for n in balanced.nodes) == (633, 281, 127, 154, 352, 171, 181)
        assert tuple(n.rooms for n in balanced.nodes) == (
            (1, 7, 2, 3, 5, 4, 6, 0),
            (1, 2, 5, 6),
            (1, 5),
            (2, 6),
            (7, 3, 4, 0),
            (7, 4),
            (3, 0),
        )

    timed(0.010, check)
    report(2, "head-left and balanced trees match column for column")


def test_criterion_03_reference_efficiency_table():
    inst = r1_instance()
    solve_tree(build_tree(inst, "hlT", GAMMA, Fraction(1, 2), 2, "ceil"))  # warmup

    def check():
        tree = build_tree(inst, "hlT", GAMMA, Fraction(1, 2), 2, "ceil")
        series = solve_tree(tree)
        assert [format_2dec(v) for v in series.lrs] == ["14.12", "14.25", "14.36"]
        assert series.dps == (15, 16, 16)
        assert series.gas == (16, 16, 16)
        assert [format_2dec(v) for v in series.gbe_lrs] == ["0.00", "0.98", "1.71"]
        assert [format_2dec(v) for v in series.gbe_dps] == ["0.00", "6.67", "6.67"]
        assert [format_2dec(v) for v in series.swe_lrs] == ["0.98", "0.72"]
        assert [format_2dec(v) for v in series.gae] == ["6.67", "0.00", "0.00"]
        assert [format_2dec(v) for v in series.lre] == ["5.90", "10.91", "10.27"]

    timed(0.050, check)
    report(3, "per-height efficiency table reproduced after 2-decimal rendering")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    count = 0
    for k in range(216):
        dist = ("uniform", "poisson", "binomial")[k % 3]
        occupancy = OCCUPANCIES[k % len(OCCUPANCIES)]
        n = 2 + k % 13  # up to 14 rooms
        realization = make_realization(dist, n, occupancy, seed=1000 + k)
        rate = 34 + 10 * (k % 5)
        inst = ProblemInstance(
            realization.capacities,
            proctors_from_rate(realization.capacities, rate),
            realization.demand,
        )
        dp_rooms, dp_value = dp_solve(inst)
        bf_rooms, bf_value = brute_force_solve(inst)
        assert dp_value == bf_value
        assert dp_rooms == bf_rooms
        count += 1
    elapsed = time.perf_counter() - start
    assert count >= 200
    assert elapsed < 5
    report(4, f"dynamic programming matched enumeration on {count} instances")


def test_criterion_05_sandwich_and_gap_signs():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for k in range(1000):
        dist = ("uniform", "poisson", "binomial")[k % 3]
        n = int(rng.integers(2, 13))
        occupancy = OCCUPANCIES[k % len(OCCUPANCIES)]
        realization = make_realization(dist, n, occupancy, seed=5000 + k)
        inst = ProblemInstance(
            realization.capacities,
            proctors_from_rate(realization.capacities, 34 + 10 * (k % 5)),
            realization.demand,
        )
        triple = solve_triple(inst)
        assert triple.lrs <= triple.dps <= triple.gas
        if triple.dps > 0:
            assert Fraction(triple.gas - triple.dps, triple.dps) >= 0
            assert triple.dps - triple.lrs >= 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(5, "lrs <= dps <= gas and nonnegative gaps on 1000 subproblems")


def test_criterion_06_structural_invariants():
    start = time.perf_counter()
    sizes = [16] * 25 + [32] * 25 + [64] * 20 + [128] * 15 + [256] * 10 + [512] * 5
    sorts = ("specific_weight", "capacity", "proctors", "random")
    checked = 0
    for k, n in enumerate(sizes):
        dist = ("uniform", "poisson", "binomial")[k % 3]
        occupancy = OCCUPANCIES[k % len(OCCUPANCIES)]
        realization = make_realization(dist, n, occupancy, seed=6000 + k)
        inst = ProblemInstance(
            realization.capacities,
            proctors_from_rate(realization.capacities, 34 + 10 * (k % 5)),
            realization.demand,
        )
        key = sorts[k % 4]
        sort = SortCriterion(key, seed=k if key == "random" else None)
        rounding = ("ceil", "floor")[k % 2]
        if k % 2 == 0:
            fraction = Fraction(35 + 5 * (k % 7), 100)
            tree = build_tree(inst, "hlT", sort, fraction, 4, rounding)
        else:
            tree = build_tree(inst, "blT", sort, None, 4, rounding)

        for h in range(tree.height + 1):
            leaves = prune(tree, h)
            rooms = sorted(i for leaf in leaves for i in leaf.rooms)
            assert rooms == list(range(n))
            assert sum(leaf.demand for leaf in leaves) == inst.demand

        series = solve_tree(tree)
        assert all(a <= b for a, b in zip(series.dps, series.dps[1:]))
        for name in ("lrs", "dps", "gas"):
            gbe = series.metric(f"gbe_{name}")
            swe = series.metric(f"swe_{name}")
            product = Fraction(1)
            for h in range(1, series.height + 1):
                product *= 1 + Fraction(swe[h - 1]) / 100
                assert 1 + Fraction(gbe[h]) / 100 == product
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 30
    report(6, f"partition, demand, monotone and telescoping checks on {checked} trees")


def test_criterion_07_greedy_regimes():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    for k in range(200):
        n = int(rng.integers(2, 13))
        caps = tuple(int(c) for c in rng.integers(5, 121, size=n))
        demand = int(rng.integers(0, sum(caps) + 1))
        rate = max(caps) + int(rng.integers(0, 50))
        inst = ProblemInstance(caps, proctors_from_rate(caps, rate), demand)
        _, greedy_value = greedy_solve(inst)
        _, exact_value = dp_solve(inst)
        assert greedy_value == exact_value
    for k in range(100):
        rate = int(rng.integers(2, 40))
        n = int(rng.integers(2, 13))
        caps = tuple(rate * int(m) for m in rng.integers(1, 10, size=n))
        demand = int(rng.integers(0, sum(caps) + 1))
        inst = ProblemInstance(caps, proctors_from_rate(caps, rate), demand)
        assert lp_relax_solve(inst).value == Fraction(demand, rate)
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    report(7, "rate >= max capacity makes greedy exact; divisor rate pins the bound")


def test_criterion_08_critical_height_fixture():
    table = {
        34: ("0.00", "1.26", "2.11", "2.66", "3.15", "3.93", "7.72", "14.11"),
        44: ("0.00", "1.93", "3.19", "3.91", "4.52", "5.68", "9.56", "15.50"),
        54: ("0.00", "1.95", "3.40", "4.27", "4.85", "6.63", "10.11", "15.70"),
        64: ("0.00", "2.29", "3.45", "4.34", "4.92", "7.08", "9.99", "15.66"),
        74: ("0.00", "1.82", "2.74", "3.53", "4.17", "6.24", "8.74", "14.83"),
    }
    columns = {r: [Fraction(v) for v in col] for r, col in table.items()}
    critical_height(columns, "mean")  # warmup
    result = timed(0.001, critical_height, columns, "mean")
    assert result == 5
    report(8, "averaged rate table marks height 5 under mean aggregation")


def test_criterion_09_l1_fixture():
    a = [Fraction("26.45")]
    b = [Fraction("3.81")]
    l1_compare(a, b, labels=("hlT", "blT"))  # warmup
    result = timed(0.001, l1_compare, a, b, labels=("hlT", "blT"))
    assert format_2dec(result.norm_a) == "26.45"
    assert format_2dec(result.norm_b) == "3.81"
    assert result.winner == "blT"
    report(9, "occupancy 0.90 row: 26.45 vs 3.81, balanced tree wins")


def test_criterion_10_statistical_reproduction():
    params = ExperimentParams(
        n_rooms=512,
        dist="uniform",
        occupancy="0.9",
        rate=54,
        tree_alg="hlT",
        sort=GAMMA,
        head_fraction="0.5",
        min_size=4,
        realizations=50,
        master_seed=2024,
    )
    start = time.perf_counter()
    result = run_experiment(params)
    elapsed = time.perf_counter() - start
    column = result.average.gbe_dps
    value_h1 = float(column[1])
    assert 1.0 <= value_h1 <= 3.0, f"mean GbE_DPS(1) = {value_h1}"
    assert all(a <= b for a, b in zip(column, column[1:]))
    assert elapsed < 300
    report(
        10,
        f"50-realization standard setting: GbE_DPS(1) = {value_h1:.2f} in [1.0, 3.0], "
        "column non-decreasing",
    )


def test_criterion_11_experiment_determinism(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text(
        "n_rooms=16\nrealizations=3\nmin_size=4\nmaster_seed=5\n"
        "tree_alg=both\nsweep=r\n"
    )
    snapshots = []
    for run_id, workers in enumerate(("1", "1", "4")):
        out_dir = tmp_path / f"run{run_id}"
        code = cli_main(
            ["experiment", str(config), "--out-dir", str(out_dir), "--workers", workers]
        )
        assert code == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert snapshots[0] == snapshots[1] == snapshots[2]
    report(11, "experiment outputs byte-identical across runs and worker counts")
