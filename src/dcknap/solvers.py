"""The three solution procedures for one covering-knapsack instance:

* greedy upper bound (GAS): take rooms by descending specific weight until
  the demand is covered, i.e. the LP support rounded up;
* exact optimum (DPS): dynamic programming indexed by proctor cost up to
  UB or by the complement knapsack's budget, whichever axis is smaller;
  ties go to the lexicographically smallest cover;
* linear-relaxation lower bound (LRS): closed form, at most one fractional
  room, computed exactly as a Fraction.

Specific weights are compared by an exact rank, `model.weight_ranks`:
ranked once per block of trees (or once per instance, cached as
`ProblemInstance.weight_ranks`) and read by both the `specific_weight` sort
and the greedy order.  One pass in that order, `_bounds`, gives LRS, GAS
and UB, the cheapest of GAS and its one-room repairs (swap the break room,
drop a spare room); UB is internal, bounds the cost axis of every DP, and
LRS <= DPS <= UB <= GAS.
`solve_block`, the tree kernel, takes a block of same-shape trees (at most
`BLOCK_ROOMS` flat rooms), gathers every vertex from its run of the shape's
`places` in its tree's root order, lays them all end to end in one flat
array, each in greedy order, and returns every vertex's LRS (as an integer
numerator and denominator), DPS and GAS as int64 arrays: one `cumsum` and one
`searchsorted` give every bound, two masked `reduceat`s the repairs, and
one value-only DP per block, `_dp_values`, runs only where ceil(LRS) < UB:
vertices of one axis and width class roll their rows as one matrix, one
max-plus step per distinct room weight per batch, the largest group of
each batch a gather.  `solve_triple` is `solve_block` on a block of one
tree of one vertex; `lp_relax_solve` and `dp_solve` run `_bounds` on one
instance.  One rule, `_dp_axis`, picks the DP axis and refuses an oversized
DP, for `dp_solve`'s one vertex or a block's many.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, SizeLimitError
from .model import ProblemInstance

SORT_KEYS = ("proctors", "capacity", "specific_weight", "random")

#: Largest exact-DP table, in int32 cells (1 GiB).
DP_MAX_CELLS = 1 << 28

# Largest temporary of one grouped value-only DP step, in int32 cells (128 KiB).
_GROUP_CELLS = 1 << 15

#: Most flat rooms (the vertex sizes of its trees, summed) in one block of
#: same-shape trees that the kernel solves at once; a tree larger than this
#: is a block of its own.
BLOCK_ROOMS = 1 << 14


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
        """Room positions of `instance` in sorted order: `orders` on one row."""
        return self.orders(*instance.arrays, [self.seed])[0].tolist()

    def orders(self, capacities, proctors, ranks, seeds) -> np.ndarray:
        """Room positions of each row of a block in sorted order, an int64
        (instances x rooms) array: row t of `capacities`, `proctors` and
        `ranks` (`model.weight_ranks`) is instance t, and the `random` key
        shuffles row t with seeds[t]."""
        if self.key == "random":
            if None in seeds:
                raise InvalidParameterError("random sorting requires a seed")
            n = capacities.shape[1]
            return np.array([np.random.default_rng(seed).permutation(n) for seed in seeds], np.int64)
        if self.key == "specific_weight":
            keys = ranks
        elif self.key == "proctors":
            keys = np.negative(proctors)
        else:
            keys = np.negative(capacities)
        return np.argsort(keys, axis=1, kind="stable")  # stable: ties by position


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


def _greedy(instance: ProblemInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The instance's rooms in greedy order: by descending specific weight,
    ties by position; as int64 arrays (positions, capacities, proctors)."""
    (capacities,), (proctors,), (ranks,) = instance.arrays
    positions = np.argsort(ranks, kind="stable")
    return positions, capacities[positions], proctors[positions]


def _bounds(caps: np.ndarray, prices: np.ndarray, offsets, demands):
    """Greedy scan and repaired bound of consecutive vertices, as int64 arrays
    (end, num, den, UB, GAS, covered, cost).

    Vertex v owns rooms offsets[v]..offsets[v+1]-1 of `caps` and `prices`, in
    greedy order; its demand, demands[v], is at most their capacity.  Its
    rooms up to end[v]-1 are taken: all but the last, the break room b, are
    whole and cover less than the demand.  GAS is their cost and LRS = num /
    den replaces b's cost by its used share, so den is b's capacity (1 when
    the demand is 0 and nothing is taken).  covered and cost are the cumsums
    of all capacities and prices from 0; covered is strictly increasing (each
    capacity is at least 1), so one searchsorted finds every break room.
    Every product stays below 2^62, because `ProblemInstance` caps both
    totals at 2^31 - 1.

    UB is the cheapest of three covers, with r the demand left for b:

    * the greedy cover itself, GAS;
    * swap: the rooms before b, plus the cheapest room j >= b of the vertex
      with c_j >= r (b itself is one, so swap <= GAS);
    * drop: the greedy cover without its most costly room i that the cover's
      excess capacity can spare, c_i <= excess (never b: c_b = r + excess).

    Each is a cover, so DPS <= UB <= GAS; UB is 0 where the demand is 0.  This
    is the covering form of the extended greedy (Kellerer, Pferschy &
    Pisinger, *Knapsack Problems*, 2004, sec. 2.5).
    """
    offsets, demands = np.asarray(offsets), np.asarray(demands)
    starts, sizes = offsets[:-1], np.diff(offsets)
    covered = np.concatenate(([0], np.cumsum(caps)))
    cost = np.concatenate(([0], np.cumsum(prices)))
    base = covered[starts]
    target = base + demands
    end = np.searchsorted(covered, target)
    b = end - 1
    gas = cost[end] - cost[starts]
    den = np.where(target > base, caps[b], 1)
    excess = covered[end] - target  # of b's capacity, unused
    num = gas * den - prices[b] * excess
    # Per room: r and the excess of its vertex, and whether it is b or after it.
    need, spare_cap = np.repeat(target - covered[b], sizes), np.repeat(excess, sizes)
    after_b = np.arange(len(caps)) >= np.repeat(b, sizes)
    # Padding by the dearest room leaves each minimum at most p_b.
    cheapest = np.minimum.reduceat(np.where(after_b & (caps >= need), prices, prices.max()), starts)
    spare = np.maximum.reduceat(np.where(~after_b & (caps <= spare_cap), prices, 0), starts)
    ub = np.where(demands > 0, gas - np.maximum(prices[b] - cheapest, spare), 0)
    return end, num, den, ub, gas, covered, cost


def lp_relax_solve(instance: ProblemInstance) -> LPRelaxation:
    """Exact optimum of the relaxation with 0 <= x[i] <= 1.

    Rooms are filled in greedy order; at most the last touched room is
    fractional, contributing proctors * residual / capacity.
    """
    order, caps, prices = _greedy(instance)
    end, num, den, _, _, covered, _ = _bounds(caps, prices, [0, len(caps)], [instance.demand])
    support = tuple(order[: end[0]].tolist())
    fractional = support[-1] if covered[end[0]] > instance.demand else None
    return LPRelaxation(Fraction(int(num[0]), int(den[0])), fractional, support)


def greedy_solve(instance: ProblemInstance) -> tuple[tuple[int, ...], int]:
    """Feasible cover by descending specific weight, as (ascending room
    positions, proctor cost): the LP support, the fractional room included."""
    support = lp_relax_solve(instance).support
    return tuple(sorted(support)), sum(instance.proctors[i] for i in support)


def _dp_axis(n, total_capacity, demand, ub):
    """(indexed by cost, last column) of the exact DP's smaller axis, cost
    0..UB (`_bounds`) or budget 0..total capacity - demand, of one
    vertex (ints) or of one vertex per entry (equal-length int64 arrays).

    Raises SizeLimitError for the first vertex whose n + 1 row table would
    exceed `DP_MAX_CELLS`.  That bounds `dp_solve`'s memory and work, but in
    the kernel, which keeps one row per vertex, only each vertex's work.
    """
    budget = total_capacity - demand
    by_cost = ub <= budget
    width = np.minimum(ub, budget)
    too_big = (n + 1) * (width + 1) > DP_MAX_CELLS
    if too_big.any():
        i = too_big.argmax()  # the first offender raises what its scalar call raises
        rows, cost, spare = (np.asarray(a).flat[i] + 1 for a in (n, ub, budget))
        raise SizeLimitError(
            f"exact DP table of {rows} rows x {width.flat[i] + 1} columns exceeds "
            f"{DP_MAX_CELLS} cells (cost axis {cost}, budget axis {spare} columns)"
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

    The repaired greedy cost UB (`_bounds`) bounds the optimum from
    above, and the table is indexed by whichever axis has fewer columns:

    * cost, 0..UB: the largest capacity rooms i.. cover for at most c
      proctors; the optimum is the least c whose row-0 entry meets the demand;
    * budget, 0..total capacity - demand: the complement knapsack, the most
      proctors rooms i.. can leave out within the budget.

    Either way, among co-optimal covers the lexicographically smallest (in
    room order) is returned.  A table of more than `DP_MAX_CELLS` cells
    raises SizeLimitError before anything is allocated.
    """
    n = instance.n_rooms
    caps = instance.capacities
    prices = instance.proctors
    demand = instance.demand
    if demand == 0:
        return (), 0
    _, greedy_caps, greedy_prices = _greedy(instance)
    ub = int(_bounds(greedy_caps, greedy_prices, [0, n], [demand])[3][0])
    by_cost, width = _dp_axis(n, instance.total_capacity, demand, ub)

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


def _dp_values(caps: np.ndarray, prices: np.ndarray, covered, cost, offsets, demands, ub, vertices) -> np.ndarray:
    """The optimum cost dp_solve finds, on the same axis, of each vertex in
    `vertices` (indices into the consecutive vertices of `solve_block`), from
    rolling rows instead of tables (no cover is recovered); covered and cost
    are `_bounds`' prefix sums, and ub[v] is vertex v's UB, the end of its
    cost axis.

    Rooms of equal weight w differ only in value, so any j of them weigh
    j * w and the best j are the j most valuable: a group of them is one
    max-plus step, row'[x] = max_j row[x - j * w] + S(j), where S(j) sums
    the group's j largest values.  At most width // w rooms of weight w fit,
    and any split of a group into chunks is still exact.

    Vertices that share an axis and a width class (the bit length of
    width + 1) are the rows of one batch, padded to its largest width W and
    stepped once per distinct weight.  Both paddings are exact: every row is
    nondecreasing, so columns past a vertex's own width never change a cell
    at or below it, and a row with fewer rooms of weight w than W // w has
    its S(j) held at its last value, as if by rooms of value 0.  A batch's
    rows hold at most `_GROUP_CELLS` / 2 cells and each step's temporary at
    most `_GROUP_CELLS` (or one and two rows, if longer).  `_dp_axis` checks
    every vertex against `DP_MAX_CELLS` before any row is allocated.
    """
    offsets = np.asarray(offsets)
    starts, ends = offsets[vertices], offsets[vertices + 1]
    sizes = ends - starts
    demand = np.asarray(demands)[vertices]
    by_cost, width = _dp_axis(sizes, covered[ends] - covered[starts], demand, ub[vertices])

    # frexp gives the bit length of width + 1.
    cls = 2 * np.frexp(width + 1)[1] + by_cost
    by_class = np.argsort(cls, kind="stable")
    batches = []
    for members in np.split(by_class, np.flatnonzero(np.diff(cls[by_class])) + 1):
        rows = max(1, _GROUP_CELLS // 2 // (int(width[members].max()) + 1))
        batches += [members[i : i + rows] for i in range(0, len(members), rows)]
    batch_of, row_of = np.empty_like(sizes), np.empty_like(sizes)
    for b, members in enumerate(batches):
        batch_of[members] = b
        row_of[members] = np.arange(len(members))
    batch_width = np.array([width[members].max() for members in batches])

    # Every DP room end to end, each vertex's in greedy order, reversed on the
    # budget axis, so that rooms of equal weight come most valuable first.
    vertex = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(len(vertex)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    room = starts[vertex] + np.where(by_cost[vertex], local, sizes[vertex] - 1 - local)
    weight = np.where(by_cost[vertex], prices[room], caps[room])
    value = np.where(by_cost[vertex], caps[room], prices[room])
    # One stable sort groups them by (batch, weight) and keeps each vertex's run.
    base = int(weight.max()) + 1
    key = batch_of[vertex] * base + weight
    at = np.argsort(key, kind="stable")
    key, vertex, value = key[at], vertex[at], value[at]
    first = np.flatnonzero(np.diff(key, prepend=-1) | np.diff(vertex, prepend=-1))
    run = np.diff(np.append(first, len(key)))
    j = np.arange(1, len(key) + 1) - np.repeat(first, run)  # place in the run
    gains = np.cumsum(value)
    gains -= np.repeat(gains[first] - value[first], run)  # S(j)
    fits = j <= batch_width[key // base] // (key % base)
    key, j, gains, row = key[fits], j[fits], gains[fits], row_of[vertex[fits]]
    group = np.flatnonzero(np.diff(key, prepend=-1))
    group_k = np.maximum.reduceat(j, group)
    group_b, group_w = np.divmod(key[group], base)
    batch_groups = np.searchsorted(group_b, np.arange(len(batches) + 1)).tolist()
    # Each batch's groups, the one of most rooms first: the steps commute.
    first = np.lexsort((-group_k, group_b))
    lo, hi = group[first].tolist(), np.append(group[1:], len(key))[first].tolist()
    group_w, group_k = group_w[first].tolist(), group_k[first].tolist()

    out = np.empty_like(sizes)
    for b, members in enumerate(batches):
        n, w_max = len(members), int(batch_width[b])
        # Row r's column x is padded[r, w_max + x]; cells left of column 0
        # hold int32 min, which stays negative plus any S(j) (ProblemInstance
        # caps totals at 2^31 - 1).
        padded = np.full((n, 2 * w_max + 1), np.iinfo(np.int32).min, dtype=np.int32)
        rows = padded[:, w_max:]
        rows[:] = 0
        chunk = max(1, _GROUP_CELLS // (n * (w_max + 1)) - 1)
        for g in range(batch_groups[b], batch_groups[b + 1]):
            w, k = group_w[g], group_k[g]
            span = slice(lo[g], hi[g])
            sums = np.zeros((k + 1, n), np.int32)  # sums[j, r]: S(j) of row r
            sums[j[span], row[span]] = gains[span]
            np.maximum.accumulate(sums, axis=0, out=sums)
            if g == batch_groups[b]:
                # From all-zero rows the best of at most x // w rooms is
                # S(min(k, x // w)), because S is nondecreasing.
                rows[:] = sums[np.minimum(k, np.arange(w_max + 1) // w)].T
                continue
            for i in range(0, k, chunk):
                step = sums[i : i + chunk + 1] - sums[i]  # S(0..c) of the chunk
                c = len(step) - 1
                # shifted[c - t, r, x] = rows[r, x - t * w], so it pairs with step[::-1].
                shifted = np.ndarray(
                    (c + 1, n, w_max + 1), np.int32, padded, 4 * (w_max - c * w),
                    (4 * w, padded.strides[0], 4),
                )
                np.max(shifted + step[::-1, :, None], axis=0, out=rows)
        if by_cost[members[0]]:
            out[members] = (rows < demand[members, None]).sum(axis=1)
        else:
            total_p = cost[ends[members]] - cost[starts[members]]
            out[members] = total_p - rows[np.arange(n), width[members]]
    return out


def solve_triple(instance: ProblemInstance) -> SolutionTriple:
    """LRS, DPS and GAS of one instance: the tree kernel on a block of one
    tree of one vertex, whose identity order ranks ties by position."""
    n = instance.n_rooms
    block = solve_block(*instance.arrays, np.arange(n)[None], np.arange(n), [n], np.array([[instance.demand]]))
    num, den, dps, gas = (int(column[0, 0]) for column in block)
    return SolutionTriple(Fraction(num, den), dps, gas)


def solve_block(capacities, proctors, ranks, order, places, size, demand):
    """The tree kernel on a block of same-shape trees: (num, den, DPS, GAS)
    int64 (trees x vertices) arrays, LRS being num / den, without building a
    sub-instance.

    Row t of the (trees x rooms) arrays `capacities`, `proctors` and `ranks`
    (`model.weight_ranks`, comparable within a row) is tree t's instance and
    order[t] its room positions in root order.  `places` (`DCTree.places`)
    lays the vertices' places in order[t] end to end, each run ascending:
    vertex v of tree t has the next size[v] of them and a feasible demand
    demand[t, v].  Its greedy order sorts its rooms by specific weight, ties
    by place in the vertex and so in order[t].  One ranking of each row by
    (weight rank, place) therefore gives every vertex its greedy order; a
    row whose ranks already ascend (the specific-weight sort) is its own
    ranking.  One sort of the keys vertex * rooms + greedy place per row
    keeps a tree's vertices end to end, and the trees follow each other,
    for one pass of `_bounds`.

    Raises AssertionError where LRS <= DPS <= UB <= GAS fails.
    """
    trees, n = order.shape
    row = np.arange(0, trees * n, n)[:, None]  # each row's first cell, raveled
    order = order + row  # cells of the raveled (trees x rooms) arrays
    keys = ranks.ravel()[order]
    if (np.diff(keys, axis=1) < 0).any():
        by_rank = np.argsort(keys, axis=1, kind="stable") + row
        order = order.ravel()[by_rank]  # each row's greedy order
        place = np.empty(trees * n, np.int64)  # by_rank holds every cell once: each is set
        place[by_rank] = np.arange(n)
        base = np.repeat(np.arange(len(size), dtype=np.int64) * n, size)
        places = np.sort(place[places + row] + base, axis=1) - base  # by greedy place
    rooms = order.ravel()[places + row].ravel()
    caps, prices = capacities.ravel()[rooms], proctors.ravel()[rooms]
    del places, rooms  # free before the DP
    offsets = np.append(0, np.cumsum(np.tile(size, trees)))
    demands = demand.ravel()
    _, num, den, ub, gas, covered, cost = _bounds(caps, prices, offsets, demands)
    dps = ub.copy()
    # DPS is an integer in [LRS, UB]: the DP is needed only where
    # ceil(LRS) < UB, that is where num <= (UB - 1) * den.
    unsettled = np.flatnonzero(num <= (ub - 1) * den)
    if len(unsettled):
        dps[unsettled] = _dp_values(caps, prices, covered, cost, offsets, demands, ub, unsettled)
    broken = (num > dps * den) | (dps > ub) | (ub > gas)
    if broken.any():
        v = int(np.argmax(broken))
        raise AssertionError(
            f"bound sandwich violated: {Fraction(int(num[v]), int(den[v]))} <= {dps[v]}"
            f" <= UB {ub[v]} <= GAS {gas[v]}"
        )
    return tuple(column.reshape(trees, -1) for column in (num, den, dps, gas))
