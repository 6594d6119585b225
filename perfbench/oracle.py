"""An independent reimplementation of ``plot_data.csv`` for the benchmark's configs.

`expected_plot_data(config_text)` rebuilds every series the ``experiment``
command writes to ``plot_data.csv`` without importing dcknap: it redraws the
seeded capacities, rebuilds each head-left tree (resampling on an infeasible
split), solves every vertex, reduces per height and averages exactly.  It
takes other routes than the package where it can: the exact optimum comes
from a dynamic program indexed by proctor cost (the package indexes by
spare capacity), the greedy order from one rank per tree, and the leaves
from the tree levels.  The text it returns must equal the program's file
byte for byte, which checks the outputs at any seed.

Supported config keys are those the benchmark's workloads use; anything else
raises ValueError so that a new workload cannot silently go unchecked.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

SUPPORTED_KEYS = {
    "n_rooms", "dist", "occupancy", "rate", "tree_alg", "sort",
    "min_size", "realizations", "master_seed", "sweep",
}
METRICS = (
    "LRS", "DPS", "GAS", "GbE_LRS", "GbE_DPS", "GbE_GAS",
    "SwE_LRS", "SwE_DPS", "SwE_GAS", "GAE", "LRE",
)
SORT_KEYS = ("proctors", "capacity", "specific_weight", "random")
MAX_ATTEMPTS = 21  # the first draw plus 20 resamples


def derive_seed(master: int, *parts) -> int:
    text = ":".join([str(master), *(str(p) for p in parts)])
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def capacities(dist: str, n: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        return [int(c) for c in rng.integers(40, 121, size=n)]
    if dist != "binomial":
        raise ValueError(f"unsupported distribution {dist!r}")
    caps = rng.binomial(480, 0.2, size=n)
    while (zero := caps == 0).any():
        caps[zero] = rng.binomial(480, 0.2, size=int(zero.sum()))
    return [int(c) for c in caps]


def format_2dec(x: Fraction) -> str:
    n = x * 100
    n = (n + Fraction(1, 2)).__floor__() if n >= 0 else -((-n + Fraction(1, 2)).__floor__())
    return f"{'-' if n < 0 else ''}{abs(n) // 100}.{abs(n) % 100:02d}"


def pct(num, den) -> Fraction:
    return Fraction(0) if den == 0 else 100 * Fraction(num) / Fraction(den)


def min_cost_cover(caps: list[int], costs: list[int], demand: int) -> int:
    """Cheapest subset covering `demand`, by a DP over total cost."""
    if demand == 0:
        return 0
    total = sum(costs)
    # Largest capacity at exactly this cost; unreachable costs stay far below 0.
    most = np.full(total + 1, -(1 << 40), dtype=np.int64)
    most[0] = 0
    for c, p in zip(caps, costs):
        np.maximum(most[p:], most[: total + 1 - p] + c, out=most[p:])
    return int(np.flatnonzero(most >= demand)[0])


def solve(rooms, caps, costs, rank, demand):
    """(LRS, DPS, GAS) of one vertex; greedy order is by the tree's rank."""
    gas, covered, fractional = 0, 0, Fraction(0)
    for i in sorted(rooms, key=rank.__getitem__):
        if covered >= demand:
            break
        gas += costs[i]
        if covered + caps[i] > demand:
            fractional = Fraction(costs[i] * (demand - covered), caps[i]) - costs[i]
        covered += caps[i]
    dps = min_cost_cover([caps[i] for i in rooms], [costs[i] for i in rooms], demand)
    return gas + fractional, dps, gas


def weights(caps, costs):
    """Integers ordered like the specific weights caps[i] / costs[i]."""
    scale = math.lcm(*set(costs))
    return [c * (scale // p) for c, p in zip(caps, costs)]


def tree_order(key, caps, costs, seed):
    n = len(caps)
    if key == "random":
        return [int(i) for i in np.random.default_rng(seed).permutation(n)]
    keys = {"proctors": costs, "capacity": caps, "specific_weight": weights(caps, costs)}[key]
    return sorted(range(n), key=lambda i: (-keys[i], i))


def build(order, caps, demand, min_size):
    """Head-left tree levels as lists of (rooms, demand, is_leaf); None if a split fails."""
    levels = []
    frontier = [(order, demand)]
    while frontier:
        level, below = [], []
        for rooms, d in frontier:
            left, right = rooms[: len(rooms) // 2], rooms[len(rooms) // 2 :]
            leaf = len(rooms) <= min_size or not left or not right
            level.append((rooms, d, leaf))
            if leaf:
                continue
            left_caps = sum(caps[i] for i in left)
            total = left_caps + sum(caps[i] for i in right)
            d_left = -(-d * left_caps // total)
            if d_left > left_caps or d - d_left > total - left_caps:
                return None
            below += [(left, d_left), (right, d - d_left)]
        levels.append(level)
        frontier = below
    return levels


def tree_series(p, index):
    """Per-height (LRS, DPS, GAS) sums of realization `index`, after resampling."""
    for attempt in range(MAX_ATTEMPTS):
        caps = capacities(p["dist"], p["n_rooms"], derive_seed(p["master_seed"], index, attempt, "capacities"))
        demand = p["occupancy"].numerator * sum(caps) // p["occupancy"].denominator
        costs = [-(-c // p["rate"]) for c in caps]
        seed = derive_seed(p["master_seed"], index, attempt, "sort")
        order = tree_order(p["sort"], caps, costs, seed)
        levels = build(order, caps, demand, p["min_size"])
        if levels is not None:
            break
    else:
        raise ValueError(f"realization {index}: every split attempt was infeasible")
    # Greedy ties break by position in the vertex's list, which is a
    # subsequence of the tree order.
    position = {room: k for k, room in enumerate(order)}
    weight = weights(caps, costs)
    by_weight = sorted(range(len(caps)), key=lambda i: (-weight[i], position[i]))
    rank = [0] * len(caps)
    for k, room in enumerate(by_weight):
        rank[room] = k
    # Pruned at height h, the leaves are the true leaves above h plus level h.
    sums, above = [], [Fraction(0), 0, 0]
    for level in levels:
        here, leaves = [Fraction(0), 0, 0], [Fraction(0), 0, 0]
        for rooms, d, leaf in level:
            triple = solve(rooms, caps, costs, rank, d)
            here = [a + t for a, t in zip(here, triple)]
            if leaf:
                leaves = [a + t for a, t in zip(leaves, triple)]
        sums.append([a + h for a, h in zip(above, here)])
        above = [a + t for a, t in zip(above, leaves)]
    return sums


def metric_series(heights):
    """All 11 metrics of one tree from its per-height (LRS, DPS, GAS) sums."""
    lrs, dps, gas = ([row[k] for row in heights] for k in range(3))
    hs = range(len(heights))
    series = {"LRS": lrs, "DPS": dps, "GAS": gas}
    for name, s in (("LRS", lrs), ("DPS", dps), ("GAS", gas)):
        series[f"GbE_{name}"] = [pct(s[h] - s[0], s[0]) for h in hs]
        series[f"SwE_{name}"] = [pct(s[h] - s[h - 1], s[h - 1]) for h in hs if h >= 1]
    series["GAE"] = [pct(gas[h] - dps[h], dps[h]) for h in hs]
    series["LRE"] = [pct(dps[h] - lrs[h], dps[h]) for h in hs]
    return series


def parse(config_text: str) -> dict:
    raw = dict(
        line.split("=", 1) for line in config_text.splitlines() if line.strip() and not line.startswith("#")
    )
    unknown = set(raw) - SUPPORTED_KEYS
    if unknown:
        raise ValueError(f"oracle does not support config keys {sorted(unknown)}")
    return {
        "n_rooms": int(raw.get("n_rooms", 512)),
        "dist": raw.get("dist", "uniform"),
        "occupancy": Fraction(raw.get("occupancy", "0.9")),
        "rate": int(raw.get("rate", 54)),
        "tree_alg": raw.get("tree_alg", "hlT"),
        "sort": raw.get("sort", "specific-weight").replace("-", "_"),
        "min_size": int(raw.get("min_size", 4)),
        "realizations": int(raw.get("realizations", 50)),
        "master_seed": int(raw.get("master_seed", 0)),
        "sweep": raw.get("sweep"),
    }


def sweep_points(p: dict) -> list[tuple[str, dict]]:
    """(strategy label, config change) of every series the experiment runs."""
    if p["tree_alg"] != "hlT" or p["sweep"] not in (None, "s"):
        raise ValueError("oracle supports tree_alg=hlT without a sweep or with sweep=s")
    return [(key, {"sort": key}) for key in SORT_KEYS] if p["sweep"] else [("-", {})]


def trees_per_experiment(config_text: str) -> int:
    p = parse(config_text)
    return p["realizations"] * len(sweep_points(p))


def expected_plot_data(config_text: str) -> str:
    p = parse(config_text)
    points = sweep_points(p)
    lines = ["tree_alg,strategy,metric,height,value"]
    for label, change in points:
        point = {**p, **change}
        trees = [metric_series(tree_series(point, i)) for i in range(p["realizations"])]
        for name in METRICS:
            start = 1 if name.startswith("SwE") else 0
            columns = [t[name] for t in trees]
            for k in range(len(columns[0])):
                mean = sum((Fraction(col[k]) for col in columns), Fraction(0)) / len(columns)
                lines.append(f"hlT,{label},{name},{k + start},{format_2dec(mean)}")
    return "\n".join(lines) + "\n"
