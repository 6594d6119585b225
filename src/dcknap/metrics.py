"""Per-height efficiency of a decomposition tree, and the statistics used to
compare generation strategies: critical heights, the mode rule, and l1-norm
scoreboards.

For a solved tree, soln_X(h) is the sum of solver value X over the leaves of
the tree pruned at height h.  Growth is reported in percent:

    GbE_X(h) = 100 * (soln_X(h) - soln_X(0)) / soln_X(0)
    SwE_X(h) = 100 * (soln_X(h) - soln_X(h-1)) / soln_X(h-1)   for h >= 1

and the bound gaps at each height are

    GAE(h) = 100 * (GAS(h) - DPS(h)) / DPS(h)
    LRE(h) = 100 * (DPS(h) - LRS(h)) / DPS(h)

Everything is exact rational arithmetic; rendering rounds half-up to two
decimals only at the edge.  `solve_trees` reduces a block of same-shape
trees (a `DCTree`), solved by the `solvers` kernel, to a few int sums per
tree and height over one LRS denominator per block, so every per-tree
cell is a ratio of ints: `average_sums` builds one Fraction per output cell.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .dctree import DCTree
from .dctree import prune  # noqa: F401  a binding perfbench/spans.py traces
from .errors import InvalidParameterError
from .rounding import as_fraction
from .solvers import solve_block
from .solvers import solve_triple  # noqa: F401  a binding perfbench/spans.py traces

#: Quality metrics aggregated when strategies are compared.
EFFICIENCY_METRICS = (
    "GAE",
    "LRE",
    "GbE_LRS",
    "GbE_DPS",
    "GbE_GAS",
    "SwE_LRS",
    "SwE_DPS",
    "SwE_GAS",
)

SOLUTION_METRICS = ("LRS", "DPS", "GAS")

ALL_METRICS = SOLUTION_METRICS + (
    "GbE_LRS",
    "GbE_DPS",
    "GbE_GAS",
    "SwE_LRS",
    "SwE_DPS",
    "SwE_GAS",
    "GAE",
    "LRE",
)

_METRIC_FIELDS = frozenset(name.lower() for name in ALL_METRICS)

#: How critical_height combines the per-step growth of the swept values.
AGGREGATIONS = ("mean", "max")


def metric_start_height(name: str) -> int:
    """First height a metric is defined at (stepwise metrics start at 1)."""
    return 1 if name.startswith("SwE") else 0


def _pct(numerator: int, denominator: int) -> tuple[int, int]:
    return (100 * numerator, denominator) if denominator else (0, 1)


@dataclass(frozen=True)
class EfficiencySeries:
    """Per-height solution sums and efficiencies of one solved tree, or their
    exact mean over several trees.

    The soln/GbE/GAE/LRE tuples are indexed by height 0..H; the SwE tuples
    cover heights 1..H (index h-1).  One tree's DPS and GAS sums are ints.
    """

    lrs: tuple[Fraction, ...]
    dps: tuple[int | Fraction, ...]
    gas: tuple[int | Fraction, ...]
    gbe_lrs: tuple[Fraction, ...]
    gbe_dps: tuple[Fraction, ...]
    gbe_gas: tuple[Fraction, ...]
    swe_lrs: tuple[Fraction, ...]
    swe_dps: tuple[Fraction, ...]
    swe_gas: tuple[Fraction, ...]
    gae: tuple[Fraction, ...]
    lre: tuple[Fraction, ...]

    @property
    def height(self) -> int:
        return len(self.dps) - 1

    def metric(self, name: str) -> tuple:
        field = name.lower()
        if field not in _METRIC_FIELDS:
            raise InvalidParameterError(f"unknown metric {name!r}")
        return getattr(self, field)


def _fraction_sum(terms, count: int) -> Fraction:
    """Exact sum of (numerator, denominator) int pairs, divided by `count`,
    as one Fraction over the lcm of the denominators of the nonzero terms."""
    terms = [(num, den) for num, den in terms if num]
    common = math.lcm(*(den for _, den in terms))
    return Fraction(sum(num * (common // den) for num, den in terms), common * count)


def solve_tree(tree: DCTree) -> EfficiencySeries:
    """The series of the first tree of a block; a `build_tree` block has one."""
    return tree_series(solve_trees(tree)[0])


def solve_trees(tree: DCTree) -> list[tuple]:
    """The per-height sums (a, b, dps, gas) of every tree of a block, in row
    order, as Python ints from one pass of the `solvers` kernel: LRS(h) is
    a[h] / b, DPS(h) dps[h] and GAS(h) gas[h].

    At height h a vertex counts when it sits at h or is a leaf above h.  LRS
    numerators are summed per (tree, height, distinct denominator) in int64:
    for one denominator d the numerators of any set of disjoint vertices
    total at most d * (total proctors) < 2^62.  b, the lcm of the block's
    distinct denominators, is shared by its trees and can pass 2^63.
    """
    num, den, dps, gas = solve_block(
        tree.capacities, tree.proctors, tree.ranks, tree.order, tree.places, tree.size, tree.demand
    )
    keys, den_at = np.unique(den, return_inverse=True)
    width = len(keys)
    # sums[tree, leaf, h, column]: LRS numerators per denominator, then DPS and GAS.
    sums = np.zeros((len(num), 2, tree.height + 1, width + 2), np.int64)
    at = (np.arange(len(num))[:, None], (tree.left < 0).astype(np.intp), tree.heights)
    np.add.at(sums, (*at, den_at.reshape(den.shape)), num)
    np.add.at(sums, (*at, width), dps)
    np.add.at(sums, (*at, width + 1), gas)
    sums = sums[:, 0] + np.cumsum(sums[:, 1], axis=1)

    b = math.lcm(*keys.tolist())
    a = sums[..., :width].astype(object).dot(np.array([b // d for d in keys.tolist()], object))
    dps, gas = sums[..., width].tolist(), sums[..., width + 1].tolist()
    return [(tuple(x), b, tuple(d), tuple(g)) for x, d, g in zip(a.tolist(), dps, gas)]


def _column(name: str, sums: tuple) -> list[tuple[int, int]]:
    """Metric `name` of one tree per height, as (numerator, denominator) int
    pairs, from its `solve_trees` sums (a, b, dps, gas)."""
    a, b, dps, gas = sums
    if name == "GAE":
        return [_pct(g - d, d) for d, g in zip(dps, gas)]
    if name == "LRE":
        return [_pct(d * b - x, d * b) for d, x in zip(dps, a)]
    values = {"LRS": a, "DPS": dps, "GAS": gas}[name[-3:]]  # b cancels from LRS growth
    if name.startswith("GbE"):
        return [_pct(v - values[0], values[0]) for v in values]
    if name.startswith("SwE"):
        return [_pct(v - u, u) for u, v in zip(values, values[1:])]
    return [(v, b if name == "LRS" else 1) for v in values]


def tree_series(sums: tuple) -> EfficiencySeries:
    """One tree's series from its `solve_trees` sums; DPS and GAS stay ints."""
    return EfficiencySeries(**{
        name.lower(): tuple(n if name in ("DPS", "GAS") else Fraction(n, d) for n, d in _column(name, sums))
        for name in ALL_METRICS
    })


def average_sums(trees: Sequence, column=_column) -> EfficiencySeries:
    """The exact mean per metric per height of `trees`, one `_fraction_sum`
    per cell: `column(name, tree)` gives a tree's metric per height as int
    pairs, by default from its `solve_trees` sums, so no Fraction per tree."""
    return EfficiencySeries(**{
        name.lower(): tuple(_fraction_sum(c, len(trees)) for c in zip(*(column(name, t) for t in trees)))
        for name in ALL_METRICS
    })


def average_series(series: Sequence[EfficiencySeries]) -> EfficiencySeries:
    """Arithmetic mean per metric per height, in input order, exactly."""
    if not series:
        raise InvalidParameterError("cannot average an empty list of series")
    height = series[0].height
    if any(s.height != height for s in series):
        raise InvalidParameterError("all series must share the same height")
    # An int cell is its own numerator over 1, so int cells sum as ints.
    return average_sums(series, lambda name, s: [(c.numerator, c.denominator) for c in s.metric(name)])


def critical_height(columns: Mapping[object, Sequence], aggregation: str = "mean") -> int:
    """Position at which the aggregated per-step growth first more than doubles.

    `columns` maps each strategy value to its per-height series (all the same
    length, positions 0..H).  The step at position h is the aggregate over
    strategy values of value(h) - value(h-1); the returned position is the
    first h >= 2 with step(h) > 2 * step(h-1), or H when growth never
    doubles.  Beyond that point the decomposition is considered degraded.
    "mean" compares sums, which order as the means do: all share one count.
    """
    if aggregation not in AGGREGATIONS:
        raise InvalidParameterError(f"aggregation must be one of {AGGREGATIONS}")
    series = [list(v) for v in columns.values()]
    if not series:
        raise InvalidParameterError("no series given")
    length = len(series[0])
    if any(len(s) != length for s in series):
        raise InvalidParameterError("all series must have the same length")
    if length < 3:
        raise InvalidParameterError("series must cover at least positions 0..2")

    aggregate = sum if aggregation == "mean" else max
    # slopes[k] is the step into position k+1
    slopes = [aggregate(as_fraction(s[h]) - as_fraction(s[h - 1]) for s in series) for h in range(1, length)]
    for h in range(2, length):
        if slopes[h - 1] > 2 * slopes[h - 2]:
            return h
    return length - 1


def critical_height_mode(heights: Sequence[int]) -> int:
    """Statistical mode of a list of critical heights; ties pick the smaller."""
    if not heights:
        raise InvalidParameterError("cannot take the mode of an empty list")
    counts = Counter(heights)
    best = max(counts.values())
    return min(h for h, c in counts.items() if c == best)


@dataclass(frozen=True)
class L1Comparison:
    norm_a: Fraction
    norm_b: Fraction
    winner: str  # label of the smaller norm, or "tie"


def _flatten(values):
    flat = []
    for entry in values:
        if isinstance(entry, (list, tuple)):
            flat.append([as_fraction(v) for v in entry])
        else:
            flat.append([as_fraction(entry)])
    return flat


def l1_norm(values) -> Fraction:
    """Sum of the absolute entries of a vector or a 2-D array, exactly."""
    return sum((abs(v) for row in _flatten(values) for v in row), Fraction(0))


def l1_compare(values_a, values_b, labels=("a", "b")) -> L1Comparison:
    """l1 norms of two same-shaped arrays; smaller norm wins."""
    flat_a = _flatten(values_a)
    flat_b = _flatten(values_b)
    if [len(row) for row in flat_a] != [len(row) for row in flat_b]:
        raise InvalidParameterError("the two arrays must have identical shape")
    norm_a, norm_b = l1_norm(flat_a), l1_norm(flat_b)
    if norm_a < norm_b:
        winner = labels[0]
    elif norm_b < norm_a:
        winner = labels[1]
    else:
        winner = "tie"
    return L1Comparison(norm_a, norm_b, winner)


def efficiency_array(
    series: EfficiencySeries,
    metric_names: Sequence[str],
    h_tilde: int,
) -> list[list[Fraction]]:
    """The (metric x height) block over heights 1..h_tilde, ready for l1_compare."""
    if h_tilde < 1 or h_tilde > series.height:
        raise InvalidParameterError(
            f"h_tilde {h_tilde} outside the series range [1, {series.height}]"
        )
    rows = []
    for name in metric_names:
        values = series.metric(name)
        start = metric_start_height(name)
        rows.append([as_fraction(values[h - start]) for h in range(1, h_tilde + 1)])
    return rows
