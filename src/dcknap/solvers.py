"""The three solution procedures for one covering-knapsack instance:

* greedy upper bound (GAS): take rooms by descending specific weight until
  the demand is covered, i.e. the LP support rounded up;
* exact optimum (DPS): dynamic programming indexed by proctor cost up to
  GAS or by the complement knapsack's budget, whichever axis is smaller;
  ties go to the lexicographically smallest cover;
* linear-relaxation lower bound (LRS): closed form, at most one fractional
  room, computed exactly as a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, SizeLimitError
from .model import ProblemInstance, specific_weights

SORT_KEYS = ("proctors", "capacity", "specific_weight", "random")

#: Largest exact-DP table, in int32 cells (1 GiB).
DP_MAX_CELLS = 1 << 28


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
        if self.key == "proctors":
            keys = instance.proctors
        elif self.key == "capacity":
            keys = instance.capacities
        else:
            keys = specific_weights(instance)
        return sorted(range(n), key=lambda i: (-keys[i], i))


#: Sorting used by the greedy and LP procedures themselves.
SPECIFIC_WEIGHT_DESC = SortCriterion("specific_weight")


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

    def __post_init__(self):
        if not self.lrs <= self.dps <= self.gas:
            raise AssertionError(
                f"bound sandwich violated: {self.lrs} <= {self.dps} <= {self.gas}"
            )


def greedy_solve(instance: ProblemInstance) -> tuple[tuple[int, ...], int]:
    """Feasible cover by descending specific weight, as (ascending room
    positions, proctor cost)."""
    return _rounded_up(instance, lp_relax_solve(instance))


def lp_relax_solve(instance: ProblemInstance) -> LPRelaxation:
    """Exact optimum of the relaxation with 0 <= x[i] <= 1.

    Rooms are filled in greedy order; at most the last touched room is
    fractional, contributing proctors * residual / capacity.
    """
    instance.require_feasible()
    order = SPECIFIC_WEIGHT_DESC.order(instance)
    value = Fraction(0)
    covered = 0
    support: list[int] = []
    fractional = None
    for i in order:
        if covered >= instance.demand:
            break
        cap = instance.capacities[i]
        if covered + cap <= instance.demand:
            support.append(i)
            value += instance.proctors[i]
            covered += cap
        else:
            residual = instance.demand - covered
            support.append(i)
            value += Fraction(instance.proctors[i] * residual, cap)
            covered = instance.demand
            fractional = i
    return LPRelaxation(value, fractional, tuple(support))


def _rounded_up(
    instance: ProblemInstance, relax: LPRelaxation
) -> tuple[tuple[int, ...], int]:
    """The greedy cover: every room of the LP support, the fractional one included."""
    prices = instance.proctors
    return tuple(sorted(relax.support)), sum(prices[i] for i in relax.support)


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


def dp_solve(
    instance: ProblemInstance, bound: int | None = None
) -> tuple[tuple[int, ...], int]:
    """Exact minimum-cost cover by dynamic programming on the smaller axis,
    as (ascending room positions, proctor cost); () when the demand is 0.

    `bound` is an upper bound on the optimum, such as the cost of any
    feasible cover; it defaults to the total proctor count, and a cost-axis
    table that shows it below the optimum raises InvalidParameterError.
    The table is indexed by whichever axis has fewer columns:

    * cost, 0..bound: the largest capacity rooms i.. cover for at most c
      proctors; the optimum is the least c whose row-0 entry meets the demand;
    * budget, 0..total capacity - demand: the complement knapsack, the most
      proctors rooms i.. can leave out within the budget.

    Either way, among co-optimal covers the lexicographically smallest (in
    room order) is returned.  A table of more than `DP_MAX_CELLS` cells
    raises SizeLimitError before anything is allocated.
    """
    instance.require_feasible()
    budget = instance.total_capacity - instance.demand
    n = instance.n_rooms
    caps = instance.capacities
    prices = instance.proctors
    demand = instance.demand
    if demand == 0:
        return (), 0
    total = instance.total_proctors
    cost_width = total if bound is None else min(bound, total)
    by_cost = cost_width <= budget
    width = cost_width if by_cost else budget
    if (n + 1) * (width + 1) > DP_MAX_CELLS:
        raise SizeLimitError(
            f"exact DP table of {n + 1} rows x {width + 1} columns exceeds "
            f"{DP_MAX_CELLS} cells (cost axis {cost_width + 1}, "
            f"budget axis {budget + 1} columns)"
        )

    # Walking forward and leaving a room out whenever that stays optimal
    # keeps the cover lexicographically smallest.
    if by_cost:
        table = _fill_table(prices, caps, width)
        value = int(np.searchsorted(table[0], demand))
        if value > width:
            raise InvalidParameterError(f"bound {bound} is below the optimum cost")
        rooms = []
        left, c = demand, value
        for i in range(n):
            if table[i + 1, c] < left:
                rooms.append(i)
                left -= caps[i]
                c -= prices[i]
    else:
        table = _fill_table(caps, prices, width)
        value = total - int(table[0, width])
        rooms = []
        w = width
        for i in range(n):
            if caps[i] <= w and table[i + 1, w - caps[i]] + prices[i] == table[i, w]:
                w -= caps[i]
            else:
                rooms.append(i)
    return tuple(rooms), value


def solve_triple(instance: ProblemInstance) -> SolutionTriple:
    """Run all three procedures on one instance and bundle the results."""
    relax = lp_relax_solve(instance)
    _, gas = _rounded_up(instance, relax)
    _, dps = dp_solve(instance, gas)
    return SolutionTriple(lrs=relax.value, dps=dps, gas=gas)
