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

A block of same-shape trees (a `DCTree`), solved by the `solvers` kernel,
is reduced two ways.  `block_bounds` sums its trees' DPS and GAS exactly
and every other cell as float64 bounds (`bounds`), a few arrays per block;
`bounds_series` turns such sums into `Bounds` on the exact means, which
decide the printed digits and comparisons wherever they can.  The exact
path, `solve_trees`, keeps a few int sums per tree and height over one LRS
denominator per block, so every per-tree cell is a ratio of ints and
`average_sums` builds one Fraction per output cell; rendering rounds
half-up to two decimals only at the edge.  `critical_height` and the l1
helpers take exact values or `Bounds` alike.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .bounds import Bounds, down, largest, nonnegative_sum, pair_quotient, pair_sum
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
    exact mean over several trees, or `Bounds` on that mean.

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


def _solve(tree: DCTree):
    """One pass of the `solvers` kernel over a block: LRS numerators and
    denominators per (tree, vertex), the membership matrix [vertex, height]
    (a vertex counts at height h when it sits at h or is a leaf above h) and
    the exact int64 DPS and GAS sums per (tree, 2, height) it gives: each is
    at most the total proctors, < 2^31."""
    num, den, dps, gas = solve_block(
        tree.capacities, tree.proctors, tree.ranks, tree.order, tree.places, tree.size, tree.demand
    )
    at, heights = tree.heights[:, None], np.arange(tree.height + 1)
    member = (at == heights) | ((tree.left < 0)[:, None] & (at < heights))
    return num, den, member, np.stack((dps, gas), axis=1) @ member


def solve_trees(tree: DCTree) -> list[tuple]:
    """The per-height sums (a, b, dps, gas) of every tree of a block, in row
    order, as Python ints (`_solve`): LRS(h) is a[h] / b, DPS(h) dps[h] and
    GAS(h) gas[h].

    LRS numerators are summed per (tree, height, distinct denominator) in
    int64: for one denominator d the numerators of any set of disjoint
    vertices total at most d * (total proctors) < 2^62.  b, the lcm of the
    block's distinct denominators, is shared by its trees and can pass 2^63.
    """
    num, den, member, exact = _solve(tree)
    keys, den_at = np.unique(den, return_inverse=True)
    vertex, height = np.nonzero(member)
    sums = np.zeros((len(num), tree.height + 1, len(keys)), np.int64)
    den_at = den_at.reshape(den.shape)[:, vertex]
    np.add.at(sums, (np.arange(len(num))[:, None], height, den_at), num[:, vertex])
    b = math.lcm(*keys.tolist())
    a = sums.astype(object).dot(np.array([b // d for d in keys.tolist()], object))
    return [(tuple(x), b, tuple(d), tuple(g)) for x, (d, g) in zip(a.tolist(), exact.tolist())]


@lru_cache(maxsize=16)
def _ratio_terms(height: int) -> dict[str, tuple]:
    """The growth and gap metrics of a tree of height `height`, the metrics
    of ALL_METRICS after the solutions, each cell as 100 * (x[a] - x[b]) /
    x[q] over its row x = [LRS, DPS, GAS] x heights 0..height: by name, the
    positions (a, b, q) of its cells."""
    width = height + 1
    column = {name: range(k * width, (k + 1) * width) for k, name in enumerate(SOLUTION_METRICS)}
    terms = {}
    for name in ALL_METRICS[len(SOLUTION_METRICS):]:
        if name == "GAE":
            terms[name] = column["GAS"], column["DPS"], column["DPS"]
        elif name == "LRE":
            terms[name] = column["DPS"], column["LRS"], column["DPS"]
        elif name.startswith("GbE"):
            x = column[name[-3:]]
            terms[name] = x, [x[0]] * width, [x[0]] * width
        else:  # SwE
            x = column[name[-3:]]
            terms[name] = x[1:], x[:-1], x[:-1]
    return terms


def block_bounds(tree: DCTree) -> tuple[np.ndarray, np.ndarray]:
    """A block's per-height sums over its trees: DPS and GAS exactly, as
    `_solve` gives them, summed to int64 (2, heights), and every other cell
    of `_column` as bounds (2, cells) on the exact sum, as `bounds.pair_sum`
    holds them: LRS per height, then the metrics of `_ratio_terms`.  No
    Python object is built per tree or per cell.

    Per tree, LRS is a `bounds.nonnegative_sum` of num / den.  A sum is 0
    exactly where the tree's demand is 0: a vertex has LRS, DPS and GAS all
    0 at demand 0 and all positive otherwise, and the vertices counted at a
    height split the root's demand.  There `_pct`'s zero rule makes every
    ratio 0, and so does dividing the bounds on its numerator, which hold
    the exact 0, by 1 instead.
    """
    num, den, member, exact = _solve(tree)
    trees, width = len(num), tree.height + 1
    # einsum, not BLAS: its buffers would add to the peak RSS of every run.
    lrs = nonnegative_sum(np.einsum("tv,vh->th", num / den, member), len(member))
    base = np.empty((2, trees, 3, width))  # bounds on [LRS, DPS, GAS] x heights per tree
    base[:, :, 0] = lrs
    base[0, :, 1:] = exact
    base[1, :, 1:] = -exact
    base = base.reshape(2, trees, 3 * width)
    terms = zip(*_ratio_terms(tree.height).values())
    a, b, q = (np.array([i for cells in t for i in cells], np.intp) for t in terms)
    scaled = down(100 * base)
    growth = down(scaled[:, :, a] + scaled[::-1, :, b])  # 100 * (a - b)
    growth[:, :, a == b] = 0  # GbE at height 0
    den_lo, den_hi = base[0][:, q], -base[1][:, q]
    zero = exact[:, 0, 0] == 0
    den_lo[zero] = den_hi[zero] = 1
    cells = np.concatenate((lrs, pair_quotient(growth, den_lo, den_hi)), axis=2)
    return exact.sum(axis=0), pair_sum(cells, axis=1)


def bounds_series(exact, pairs: np.ndarray, count: int) -> EfficiencySeries:
    """`Bounds` on the exact means over `count` trees, from the sums of
    their `block_bounds`: DPS and GAS as ints (exact, lo = hi), the other
    cells as floats."""
    sums = dict(zip(("DPS", "GAS"), exact.tolist()))
    lo, hi = pairs[0].tolist(), (-pairs[1]).tolist()
    cells, first = {}, 0
    for name in ALL_METRICS:
        if name in sums:
            cells[name.lower()] = tuple(Bounds(s, s, count) for s in sums[name])
            continue
        end = first + len(sums["DPS"]) - metric_start_height(name)
        cells[name.lower()] = tuple(Bounds(*ends, count) for ends in zip(lo[first:end], hi[first:end]))
        first = end
    return EfficiencySeries(**cells)


def _column(name: str, sums: tuple) -> list[tuple[int, int]]:
    """Metric `name` of one tree per height, as (numerator, denominator) int
    pairs, from its `solve_trees` sums (a, b, dps, gas): a ratio of
    `_ratio_terms` over the row [a, dps, gas], with DPS and GAS scaled by b
    where it reads them beside LRS (b cancels from the rest)."""
    a, b, dps, gas = sums
    if name in SOLUTION_METRICS:
        return [(v, b if name == "LRS" else 1) for v in {"LRS": a, "DPS": dps, "GAS": gas}[name]]
    x, y, q = _ratio_terms(len(dps) - 1)[name]
    reads = {i // len(a) for i in (*x, *y, *q)}  # 0: LRS, 1: DPS, 2: GAS
    scale = b if 0 in reads and len(reads) > 1 else 1
    row = (*a, *(scale * v for v in dps), *(scale * v for v in gas))
    return [_pct(row[i] - row[j], row[k]) for i, j, k in zip(x, y, q)]


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
    With `Bounds` values, a comparison they cannot decide raises `Undecided`.
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

    aggregate = sum if aggregation == "mean" else largest
    # slopes[k] is the step into position k+1
    slopes = [aggregate(_value(s[h]) - _value(s[h - 1]) for s in series) for h in range(1, length)]
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


def _value(value):
    """A value as critical heights and l1 norms take it: `Bounds` as they
    are, any other number as an exact Fraction."""
    return value if isinstance(value, Bounds) else as_fraction(value)


@dataclass(frozen=True)
class L1Comparison:
    norm_a: Fraction | Bounds
    norm_b: Fraction | Bounds
    winner: str  # label of the smaller norm, or "tie"


def _flatten(values):
    flat = []
    for entry in values:
        if isinstance(entry, (list, tuple)):
            flat.append([_value(v) for v in entry])
        else:
            flat.append([_value(entry)])
    return flat


def l1_norm(values) -> Fraction:
    """Sum of the absolute entries of a vector or a 2-D array, exactly, or
    as `Bounds` on it."""
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
        rows.append([_value(values[h - start]) for h in range(1, h_tilde + 1)])
    return rows
