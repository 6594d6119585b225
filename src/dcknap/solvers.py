"""The three solution procedures for one covering-knapsack instance:

* greedy upper bound (GAS): take rooms by descending specific weight until
  the demand is covered, i.e. the LP support rounded up;
* exact optimum (DPS): dynamic programming on the complement knapsack;
* linear-relaxation lower bound (LRS): closed form, at most one fractional
  room, computed exactly as a Fraction.

A brute-force enumerator is included as a testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, SizeLimitError
from .model import ProblemInstance, Selection, specific_weights, to_standard_knapsack

SORT_KEYS = ("proctors", "capacity", "specific_weight", "random")

_BRUTE_FORCE_MAX_ROOMS = 24
_BRUTE_FORCE_CHUNK = 1 << 16


@dataclass(frozen=True)
class SortCriterion:
    """How to order a room list before splitting or solving.

    Ties always break by ascending position, so orderings are reproducible.
    The `random` key shuffles with the given seed and ignores `descending`.
    """

    key: str = "specific_weight"
    descending: bool = True
    seed: int | None = None  # required to order with key="random"

    def __post_init__(self):
        if self.key not in SORT_KEYS:
            raise InvalidParameterError(
                f"unknown sort key {self.key!r}; expected one of {SORT_KEYS}"
            )

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
        if self.descending:
            return sorted(range(n), key=lambda i: (-keys[i], i))
        return sorted(range(n), key=lambda i: (keys[i], i))


#: Sorting used by the greedy and LP procedures themselves.
SPECIFIC_WEIGHT_DESC = SortCriterion("specific_weight", descending=True)


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
    greedy_selection: Selection
    exact_selection: Selection

    def __post_init__(self):
        if not self.lrs <= self.dps <= self.gas:
            raise AssertionError(
                f"bound sandwich violated: {self.lrs} <= {self.dps} <= {self.gas}"
            )


def greedy_solve(instance: ProblemInstance) -> tuple[Selection, int]:
    """Feasible cover by descending specific weight; returns it with its cost."""
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


def associated_integer_solution(lp_support, n: int) -> Selection:
    """Round an LP solution up: chosen iff the room has a positive share."""
    return Selection.from_indices(lp_support, n)


def _rounded_up(instance: ProblemInstance, relax: LPRelaxation) -> tuple[Selection, int]:
    """The greedy cover: every room of the LP support, the fractional one included."""
    selection = associated_integer_solution(relax.support, instance.n_rooms)
    return selection, selection.value(instance)


def dp_solve(instance: ProblemInstance) -> tuple[Selection, int]:
    """Exact minimum-cost cover via the complement knapsack.

    The knapsack over budget = total capacity - demand is solved by dynamic
    programming; mapping the max-profit subset back through x = 1 - xi gives
    the optimal cover.  Among co-optimal covers the lexicographically
    smallest (in room order) is returned.
    """
    budget, items = to_standard_knapsack(instance)
    n = instance.n_rooms
    caps = instance.capacities
    prices = instance.proctors
    if instance.demand == 0:
        return Selection.zeros(n), 0

    # table[i][w]: best profit using items i.. with remaining budget w
    table = np.zeros((n + 1, budget + 1), dtype=np.int32)
    for i in range(n - 1, -1, -1):
        nxt = table[i + 1]
        row = table[i]
        np.copyto(row, nxt)
        w = caps[i]
        if w <= budget:
            np.maximum(row[w:], nxt[: budget - w + 1] + prices[i], out=row[w:])

    # Walking forward and discarding whenever optimal keeps the cover
    # lexicographically smallest.
    chosen = [True] * n
    w = budget
    for i in range(n):
        if caps[i] <= w and table[i + 1][w - caps[i]] + prices[i] == table[i][w]:
            chosen[i] = False
            w -= caps[i]
    value = instance.total_proctors - int(table[0][budget])
    return Selection(tuple(chosen)), value


def brute_force_solve(instance: ProblemInstance) -> tuple[Selection, int]:
    """Exhaustive oracle over all 2^n selections; same tie-break as dp_solve."""
    n = instance.n_rooms
    if n > _BRUTE_FORCE_MAX_ROOMS:
        raise SizeLimitError(
            f"brute force supports at most {_BRUTE_FORCE_MAX_ROOMS} rooms, got {n}"
        )
    instance.require_feasible()
    caps = np.array(instance.capacities, dtype=np.int64)
    prices = np.array(instance.proctors, dtype=np.int64)
    bit_positions = np.arange(n)
    # Room 0 is the most significant digit of the lexicographic key.
    lex_weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)

    best = None  # (value, lex_key, chosen tuple)
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
        entry = (int(vmin), int(keys[k]), tuple(bool(b) for b in candidates[k]))
        if best is None or entry[:2] < best[:2]:
            best = entry
    return Selection(best[2]), best[0]


def solve_triple(instance: ProblemInstance) -> SolutionTriple:
    """Run all three procedures on one instance and bundle the results."""
    relax = lp_relax_solve(instance)
    exact_selection, dps = dp_solve(instance)
    greedy_selection, gas = _rounded_up(instance, relax)
    return SolutionTriple(
        lrs=relax.value,
        dps=dps,
        gas=gas,
        greedy_selection=greedy_selection,
        exact_selection=exact_selection,
    )
