from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dcknap import (
    ALL_METRICS,
    DCNode,
    EfficiencySeries,
    ProblemInstance,
    SizeLimitError,
    build_instance,
    build_tree,
    derive_seed,
    proctors_from_rate,
    solve_tree,
    split_demand,
)
from dcknap.dctree import HEAD_LEFT, TreeParams
from dcknap.metrics import SOLUTION_METRICS
from dcknap.montecarlo import seeded_realization

DATA_DIR = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Realization 1 of the committed sample batch: 8 uniform rooms, occupancy 0.9.
R1_CAPACITIES = (113, 54, 95, 89, 85, 87, 76, 105)
R1_DEMAND = 633

# Capacity/proctor ratios shared by many rooms, so optima and greedy order tie often.
RATIOS = ((1, 1), (2, 1), (3, 1), (3, 2), (4, 3), (6, 4))


def load_perfbench(name: str):
    """The benchmark's module perfbench/<name>.py, loaded by path so that
    the benchmark's directory needs no package or sys.path entry."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def rooms_csv() -> Path:
    return DATA_DIR / "rooms_sample.csv"


@pytest.fixture
def r1_instance() -> ProblemInstance:
    return ProblemInstance(
        capacities=R1_CAPACITIES,
        proctors=proctors_from_rate(R1_CAPACITIES, 54),
        demand=R1_DEMAND,
    )


def random_instance(rng: np.random.Generator, n=None, with_rate=True):
    """Small random covering instance for randomized suites."""
    if n is None:
        n = int(rng.integers(2, 13))
    caps = tuple(int(c) for c in rng.integers(5, 121, size=n))
    if with_rate:
        rate = int(rng.integers(10, 90))
        proctors = proctors_from_rate(caps, rate)
    else:
        proctors = tuple(int(p) for p in rng.integers(1, 9, size=n))
    occupancy = rng.choice([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    demand = int(occupancy * sum(caps))
    return ProblemInstance(caps, proctors, demand)


_BRUTE_FORCE_MAX_ROOMS = 24
_BRUTE_FORCE_CHUNK = 1 << 16


def brute_force_solve(instance: ProblemInstance) -> tuple[tuple[int, ...], int]:
    """Exhaustive oracle over all 2^n covers; same form and tie-break as dp_solve."""
    n = instance.n_rooms
    if n > _BRUTE_FORCE_MAX_ROOMS:
        raise SizeLimitError(
            f"brute force supports at most {_BRUTE_FORCE_MAX_ROOMS} rooms, got {n}"
        )
    caps = np.array(instance.capacities, dtype=np.int64)
    prices = np.array(instance.proctors, dtype=np.int64)
    bit_positions = np.arange(n)
    # Room 0 is the most significant digit of the lexicographic key.
    lex_weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)

    best = None  # (value, lex_key, ascending positions)
    total = 1 << n
    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        masks = np.arange(start, min(start + _BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        bits = (masks[:, None] >> bit_positions) & 1
        feasible = bits @ caps >= instance.demand
        if not feasible.any():
            continue
        bits = bits[feasible]
        values = bits @ prices
        vmin = values.min()
        candidates = bits[values == vmin]
        keys = candidates @ lex_weights
        k = int(keys.argmin())
        rooms = tuple(int(i) for i in np.flatnonzero(candidates[k]))
        entry = (int(vmin), int(keys[k]), rooms)
        if best is None or entry[:2] < best[:2]:
            best = entry
    return best[2], best[0]


def reference_nodes(instance, algorithm, sort, fraction=None, min_size=2, rounding="ceil"):
    """The vertices `build_tree` must give, as DCNodes in pre-order, grown by
    recursion over room lists: one DCNode and one split per vertex."""
    params = TreeParams(algorithm, sort, fraction, min_size, rounding)
    caps = instance.capacities
    nodes: list[DCNode] = []

    def grow(rooms, demand, height):
        node = DCNode(rooms=tuple(rooms), demand=demand, height=height, index=len(nodes))
        nodes.append(node)
        if len(rooms) <= params.min_size:
            return node
        if params.algorithm == HEAD_LEFT:
            f = params.fraction
            size = (f.numerator * len(rooms)) // f.denominator
            left_rooms, right_rooms = rooms[:size], rooms[size:]
        else:
            left_rooms, right_rooms = rooms[0::2], rooms[1::2]
        if not left_rooms or not right_rooms:
            return node
        left_caps = sum(caps[i] for i in left_rooms)
        right_caps = sum(caps[i] for i in right_rooms)
        d_left, d_right = split_demand(demand, left_caps, left_caps + right_caps, params.rounding)
        node.left = grow(left_rooms, d_left, height + 1)
        node.right = grow(right_rooms, d_right, height + 1)
        return node

    grow(sort.order(instance), instance.demand, 0)
    return nodes


def reference_realization_series(params, index):
    """Series of realization `index` of an experiment, one tree at a time:
    an instance, a tree and a solve per realization, as `run_experiment`
    must reproduce with its blocks."""
    realization = seeded_realization(
        params.dist, params.n_rooms, params.occupancy, params.master_seed, index
    )
    instance = build_instance(realization, params.rate)
    sort = params.sort
    if sort.key == "random" and sort.seed is None:
        sort = replace(sort, seed=derive_seed(params.master_seed, index, 0, "sort"))
    tree = build_tree(
        instance,
        params.tree_alg,
        sort,
        fraction=params.head_fraction,
        min_size=params.min_size,
        rounding=params.rounding,
    )
    return solve_tree(tree)


def fraction_series(lrs, dps, gas):
    """The efficiency series of per-height LRS, DPS and GAS sums, computed
    with Fractions from the definitions in `dcknap.metrics`."""

    def pct(numerator, denominator):
        return Fraction(0) if denominator == 0 else Fraction(100 * numerator, denominator)

    heights = range(len(dps))
    columns = {
        "LRS": tuple(lrs),
        "DPS": tuple(dps),
        "GAS": tuple(gas),
        "GAE": tuple(pct(gas[h] - dps[h], dps[h]) for h in heights),
        "LRE": tuple(pct(dps[h] - lrs[h], dps[h]) for h in heights),
    }
    for name in SOLUTION_METRICS:
        series = columns[name]
        columns[f"GbE_{name}"] = tuple(pct(series[h] - series[0], series[0]) for h in heights)
        columns[f"SwE_{name}"] = tuple(pct(series[h] - series[h - 1], series[h - 1]) for h in heights[1:])
    return EfficiencySeries(**{name.lower(): columns[name] for name in ALL_METRICS})


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(lines):
            terminalreporter.write_line(f"{name}: {outcome}")
