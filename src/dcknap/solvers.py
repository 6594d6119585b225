"""The three solution procedures for one covering-knapsack instance:

* greedy upper bound (GAS): take rooms by descending specific weight until
  the demand is covered, i.e. the LP support rounded up;
* exact optimum (DPS): dynamic programming indexed by proctor cost up to
  GAS or by the complement knapsack's budget, whichever axis is smaller;
  ties go to the lexicographically smallest cover;
* linear-relaxation lower bound (LRS): closed form, at most one fractional
  room, computed exactly as a Fraction.

Specific weights are compared by the instance's exact rank,
`ProblemInstance.weight_ranks`, computed once per instance and read by both
the `specific_weight` sort and `_greedy`, the one greedy order.  LRS and
GAS come from one cumulative-sum scan in that order, and GAS bounds the
cost axis of every DP.  `solve_vertices`, the tree kernel, lays a whole
tree's vertices end to end in one flat array, each in greedy order, and
returns every vertex's LRS (as an integer numerator and denominator), DPS
and GAS as int64 arrays: one `cumsum` and one `searchsorted` give every
bound, and a value-only DP (one rolling row, one max-plus step per distinct
room weight) runs only where ceil(LRS) < GAS.  `solve_triple`,
`lp_relax_solve` and `dp_solve` run the same scan on one vertex.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np

from .errors import InvalidParameterError, SizeLimitError
from .model import ProblemInstance

SORT_KEYS = ("proctors", "capacity", "specific_weight", "random")

#: Largest exact-DP table, in int32 cells (1 GiB).
DP_MAX_CELLS = 1 << 28

# Largest temporary of one grouped value-only DP step, in int32 cells (128 KiB).
_GROUP_CELLS = 1 << 15


@dataclass(frozen=True)
class SortCriterion:
    """How to order a room list before splitting or solving.

    Keys sort descending and ties break by ascending position, so orderings
    are reproducible.  The `random` key shuffles with the given seed, an
    int >= 0.
    """

    key: str = "specific_weight"
    seed: int | None = None  # required to order with key="random"

    def __post_init__(self):
        if self.key not in SORT_KEYS:
            raise InvalidParameterError(
                f"unknown sort key {self.key!r}; expected one of {SORT_KEYS}"
            )
        if self.seed is not None and self.seed < 0:
            raise InvalidParameterError(f"sort seed must be >= 0, got {self.seed}")

    def order(self, instance: ProblemInstance) -> list[int]:
        """Room positions of `instance` in sorted order."""
        n = instance.n_rooms
        if self.key == "random":
            if self.seed is None:
                raise InvalidParameterError("random sorting requires a seed")
            rng = np.random.default_rng(self.seed)
            return [int(i) for i in rng.permutation(n)]
        if self.key == "specific_weight":
            keys = instance.weight_ranks
        elif self.key == "proctors":
            keys = [-p for p in instance.proctors]
        else:
            keys = [-c for c in instance.capacities]
        return sorted(range(n), key=keys.__getitem__)  # stable: ties by position


@dataclass(frozen=True)
class LPRelaxation:
    """Closed-form optimum of the linear relaxation.

    `support` holds the positions with a positive share, in greedy order;
    `fractional_index` is the single partially used room, if any.
    """

    value: Fraction
    fractional_index: int | None
    support: tuple[int, ...]


@dataclass(frozen=True)
class SolutionTriple:
    """Lower bound, exact optimum and greedy value of one subproblem."""

    lrs: Fraction
    dps: int
    gas: int


def _greedy(instance: ProblemInstance, order) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Greedy order of the room positions in `order`: by descending specific
    weight, ties by place in `order`; as (positions, capacities, proctors),
    the last two int64 arrays."""
    positions = sorted(order, key=instance.weight_ranks.__getitem__)  # stable: ties by place
    return (
        positions,
        np.array(instance.capacities, dtype=np.int64)[positions],
        np.array(instance.proctors, dtype=np.int64)[positions],
    )


def _scan(caps: np.ndarray, prices: np.ndarray, starts, demands):
    """Greedy scan of consecutive vertices, as int64 arrays (end, num, den, GAS).

    Vertex v's rooms start at starts[v] in `caps` and `prices` and run to the
    next vertex, in greedy order; its demand, demands[v], is at most their
    capacity.  Rooms starts[v]..end[v]-1 are taken: all but the last, the
    break room b, are whole and cover less than the demand.  GAS is their
    cost and LRS = num / den replaces room b's cost by its used share, so
    den is b's capacity (1 when the demand is 0 and nothing is taken).  The
    cumsum of all capacities is strictly increasing (each is at least 1), so
    one searchsorted finds every break room.  Every product stays below
    2^62, because `ProblemInstance` caps both totals at 2^31 - 1.
    """
    covered = np.concatenate(([0], np.cumsum(caps)))
    cost = np.concatenate(([0], np.cumsum(prices)))
    base = covered[starts]
    target = base + demands
    end = np.searchsorted(covered, target)
    gas = cost[end] - cost[starts]
    den = np.where(target > base, caps[end - 1], 1)
    # Room b leaves covered[end] - target of its capacity unused.
    num = gas * den - prices[end - 1] * (covered[end] - target)
    return end, num, den, gas


def lp_relax_solve(instance: ProblemInstance) -> LPRelaxation:
    """Exact optimum of the relaxation with 0 <= x[i] <= 1.

    Rooms are filled in greedy order; at most the last touched room is
    fractional, contributing proctors * residual / capacity.
    """
    instance.require_feasible()
    order, caps, prices = _greedy(instance, range(instance.n_rooms))
    end, num, den, _ = _scan(caps, prices, [0], [instance.demand])
    end = int(end[0])
    partial = int(caps[:end].sum()) > instance.demand
    return LPRelaxation(
        Fraction(int(num[0]), int(den[0])), order[end - 1] if partial else None, tuple(order[:end])
    )


def greedy_solve(instance: ProblemInstance) -> tuple[tuple[int, ...], int]:
    """Feasible cover by descending specific weight, as (ascending room
    positions, proctor cost): the LP support, the fractional room included."""
    support = lp_relax_solve(instance).support
    return tuple(sorted(support)), sum(instance.proctors[i] for i in support)


def _dp_axis(n: int, total_capacity: int, demand: int, gas: int) -> tuple[bool, int]:
    """(indexed by cost, last column) of the exact DP's smaller axis: cost
    0..GAS or budget 0..total capacity - demand.

    Raises SizeLimitError when the n + 1 row table would exceed
    `DP_MAX_CELLS`, which bounds both the memory and the work.
    """
    budget = total_capacity - demand
    by_cost = gas <= budget
    width = gas if by_cost else budget
    if (n + 1) * (width + 1) > DP_MAX_CELLS:
        raise SizeLimitError(
            f"exact DP table of {n + 1} rows x {width + 1} columns exceeds "
            f"{DP_MAX_CELLS} cells (cost axis {gas + 1}, "
            f"budget axis {budget + 1} columns)"
        )
    return by_cost, width


def _fill_table(weights, values, width: int) -> np.ndarray:
    """table[i][x]: the largest sum of `values` over rooms i.. whose
    `weights` sum to at most x, for x = 0..width."""
    n = len(weights)
    table = np.zeros((n + 1, width + 1), dtype=np.int32)
    for i in range(n - 1, -1, -1):
        nxt = table[i + 1]
        row = table[i]
        np.copyto(row, nxt)
        w = weights[i]
        if w <= width:
            np.maximum(row[w:], nxt[: width - w + 1] + values[i], out=row[w:])
    return table


def dp_solve(instance: ProblemInstance) -> tuple[tuple[int, ...], int]:
    """Exact minimum-cost cover by dynamic programming on the smaller axis,
    as (ascending room positions, proctor cost); () when the demand is 0.

    The greedy cover's cost GAS bounds the optimum from above, and the
    table is indexed by whichever axis has fewer columns:

    * cost, 0..GAS: the largest capacity rooms i.. cover for at most c
      proctors; the optimum is the least c whose row-0 entry meets the demand;
    * budget, 0..total capacity - demand: the complement knapsack, the most
      proctors rooms i.. can leave out within the budget.

    Either way, among co-optimal covers the lexicographically smallest (in
    room order) is returned.  A table of more than `DP_MAX_CELLS` cells
    raises SizeLimitError before anything is allocated.
    """
    instance.require_feasible()
    n = instance.n_rooms
    caps = instance.capacities
    prices = instance.proctors
    demand = instance.demand
    if demand == 0:
        return (), 0
    _, greedy_caps, greedy_prices = _greedy(instance, range(n))
    gas = int(_scan(greedy_caps, greedy_prices, [0], [demand])[3][0])
    by_cost, width = _dp_axis(n, instance.total_capacity, demand, gas)

    # Walking forward and leaving a room out whenever that stays optimal
    # keeps the cover lexicographically smallest.
    rooms = []
    if by_cost:
        table = _fill_table(prices, caps, width)
        value = int(np.searchsorted(table[0], demand))
        left, c = demand, value
        for i in range(n):
            if table[i + 1, c] < left:
                rooms.append(i)
                left -= caps[i]
                c -= prices[i]
    else:
        table = _fill_table(caps, prices, width)
        value = instance.total_proctors - int(table[0, width])
        w = width
        for i in range(n):
            if caps[i] <= w and table[i + 1, w - caps[i]] + prices[i] == table[i, w]:
                w -= caps[i]
            else:
                rooms.append(i)
    return tuple(rooms), value


def _dp_value(caps: np.ndarray, prices: np.ndarray, demand: int, gas: int) -> int:
    """The optimum cost dp_solve finds, on the same axis, from one rolling
    row instead of a table (the cover is not recovered).

    Rooms of equal weight w differ only in value, so any j of them weigh
    j * w and the best j are the j most valuable: a group of them is one
    max-plus step, row'[x] = max_j row[x - j * w] + S(j), where S(j) sums
    the group's j largest values.  At most width // w rooms of weight w fit,
    and any split of a group into chunks is still exact, so each step's
    temporary stays within `_GROUP_CELLS` cells (or two rows, if longer).
    """
    by_cost, width = _dp_axis(len(caps), int(caps.sum()), demand, gas)
    weights, values = (prices, caps) if by_cost else (caps, prices)
    by_group = np.lexsort((-values, weights))  # by weight, then value descending
    weights, values = weights[by_group].tolist(), values[by_group].tolist()
    # row[x] = padded[width + x]; cells left of row[0] hold int32 min, which
    # stays negative plus any S(j) (ProblemInstance caps totals at 2^31 - 1).
    padded = np.full(2 * width + 1, np.iinfo(np.int32).min, dtype=np.int32)
    row = padded[width:]
    row[:] = 0
    chunk = max(1, _GROUP_CELLS // (width + 1) - 1)
    start = 0
    while start < len(weights):
        w = weights[start]
        end = bisect_right(weights, w, start)
        group = values[start : min(end, start + width // w)]
        start = end
        for i in range(0, len(group), chunk):
            gains = list(accumulate(group[i : i + chunk], initial=0))  # S(0..k)
            k = len(gains) - 1
            # shifted[k - j][x] = row[x - j * w], so it pairs with gains[::-1].
            shifted = np.ndarray(
                (k + 1, width + 1), np.int32, padded, 4 * (width - k * w), (4 * w, 4)
            )
            np.max(shifted + np.array(gains[::-1], np.int32)[:, None], axis=0, out=row)
    if by_cost:
        return int(np.searchsorted(row, demand))
    return int(prices.sum()) - int(row[width])


def _solve_flat(caps: np.ndarray, prices: np.ndarray, offsets, demands):
    """(num, den, DPS, GAS) int64 arrays of consecutive vertices, LRS being
    num / den: vertex v owns rooms offsets[v]..offsets[v+1]-1 of `caps` and
    `prices`, in greedy order, and demands[v].

    Raises AssertionError where LRS <= DPS <= GAS fails.
    """
    _, num, den, gas = _scan(caps, prices, offsets[:-1], demands)
    dps = gas.copy()
    # DPS is an integer in [LRS, GAS]: the DP is needed only where
    # ceil(LRS) < GAS, that is where num <= (GAS - 1) * den.
    for v in np.flatnonzero(num <= (gas - 1) * den).tolist():
        rooms = slice(offsets[v], offsets[v + 1])
        dps[v] = _dp_value(caps[rooms], prices[rooms], int(demands[v]), int(gas[v]))
    broken = (num > dps * den) | (dps > gas)
    if broken.any():
        v = int(np.argmax(broken))
        raise AssertionError(
            f"bound sandwich violated: {Fraction(int(num[v]), int(den[v]))} <= {dps[v]} <= {gas[v]}"
        )
    return num, den, dps, gas


def solve_triple(instance: ProblemInstance) -> SolutionTriple:
    """LRS, DPS and GAS of one instance: the tree kernel on one vertex."""
    instance.require_feasible()
    _, caps, prices = _greedy(instance, range(instance.n_rooms))
    num, den, dps, gas = _solve_flat(caps, prices, [0, len(caps)], [instance.demand])
    return SolutionTriple(Fraction(int(num[0]), int(den[0])), int(dps[0]), int(gas[0]))


def solve_vertices(instance: ProblemInstance, order, vertices):
    """The tree kernel: (num, den, DPS, GAS) int64 arrays indexed like
    `vertices`, LRS being num / den, without building a sub-instance.

    Each vertex has `rooms`, a subsequence of `order` (positions into
    `instance`), and a feasible `demand`.  Its greedy order sorts its rooms
    by specific weight, ties by place in the vertex and so in `order`.  One
    ranking of `order` by (weight rank, place) therefore gives every vertex
    its greedy order, and one sort of the keys vertex * len(order) + greedy
    place lays all vertices end to end for one scan.
    """
    greedy, caps, prices = _greedy(instance, order)
    m = len(greedy)
    place = np.empty(instance.n_rooms, dtype=np.int64)
    place[greedy] = np.arange(m)
    sizes = [len(vertex.rooms) for vertex in vertices]
    offsets = list(accumulate(sizes, initial=0))
    at = place[np.fromiter(chain.from_iterable(v.rooms for v in vertices), np.intp, offsets[-1])]
    at += np.repeat(np.arange(len(sizes), dtype=np.int64) * m, sizes)
    at.sort()
    at %= m
    return _solve_flat(caps[at], prices[at], offsets, [v.demand for v in vertices])
