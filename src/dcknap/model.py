"""Core problem data: rooms with capacities and proctor costs, and a student
demand.  A room is identified by its position; a cover is an ascending
tuple of positions.

The covering problem asks for a cheapest set of rooms whose joint capacity
meets the demand:

    minimize    sum(proctors[i] * x[i])
    subject to  sum(capacities[i] * x[i]) >= demand,   x[i] in {0, 1}
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, InvalidParameterError

# The largest int32.  The exact DP stores capacity or proctor sums in an int32
# table, and the capacity bound keeps demand * capacity products inside 64 bits.
MAX_TOTAL_CAPACITY = 2**31 - 1


@dataclass(frozen=True)
class ProblemInstance:
    """One covering-knapsack instance; room i is position i of both tuples."""

    capacities: tuple[int, ...]  # students per room, all >= 1
    proctors: tuple[int, ...]  # cost per room, all >= 1
    demand: int  # students to place, >= 0

    def __post_init__(self):
        object.__setattr__(self, "capacities", tuple(map(int, self.capacities)))
        object.__setattr__(self, "proctors", tuple(map(int, self.proctors)))
        object.__setattr__(self, "demand", int(self.demand))
        n = len(self.capacities)
        if n < 1:
            raise InvalidParameterError("an instance needs at least one room")
        if len(self.proctors) != n:
            raise InvalidParameterError("capacities and proctors must have equal length")
        # Python-int sums: exact for any value, where an int64 sum could wrap.
        broken = _broken(
            min(self.capacities), min(self.proctors), self.demand,
            self.total_capacity, self.total_proctors,
        )
        if broken.any():
            raise InvalidParameterError(_CONDITIONS[broken.argmax()])

    @property
    def n_rooms(self) -> int:
        return len(self.capacities)

    @cached_property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    @cached_property
    def total_proctors(self) -> int:
        return sum(self.proctors)

    @cached_property
    def weight_ranks(self) -> np.ndarray:
        """`weight_ranks` of the instance's rooms, computed once, as a
        read-only int64 array."""
        rank = weight_ranks(self.capacities, self.proctors)
        rank.flags.writeable = False
        return rank

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The instance as a block of one: its capacities, proctors and
        weight ranks as read-only (1 x rooms) int64 arrays, built once."""
        arrays = (np.array([self.capacities], np.int64), np.array([self.proctors], np.int64))
        for array in arrays:
            array.flags.writeable = False
        return (*arrays, self.weight_ranks[None])

    def is_feasible(self) -> bool:
        return self.total_capacity >= self.demand

    def require_feasible(self):
        if not self.is_feasible():
            raise InfeasibleError(self.demand, self.total_capacity)


_CONDITIONS = (
    "all capacities must be >= 1",
    "all proctor counts must be >= 1",
    "demand must be >= 0",
    f"total capacity exceeds the supported limit {MAX_TOTAL_CAPACITY}",
    f"total proctor count exceeds the supported limit {MAX_TOTAL_CAPACITY}",
)


def _broken(min_capacity, min_proctors, demand, total_capacity, total_proctors) -> np.ndarray:
    """Whether each instance breaks each of `_CONDITIONS`, a (conditions x
    instances) bool array.  Each argument holds that value of every
    instance: one int, or an int64 array over a block."""
    return np.array([
        np.less(min_capacity, 1),
        np.less(min_proctors, 1),
        np.less(demand, 0),
        np.greater(total_capacity, MAX_TOTAL_CAPACITY),
        np.greater(total_proctors, MAX_TOTAL_CAPACITY),
    ]).reshape(len(_CONDITIONS), -1)


def require_instances(capacities: np.ndarray, proctors: np.ndarray, demands: np.ndarray) -> None:
    """Raise what ProblemInstance(capacities[t], proctors[t], demands[t]) and
    its `require_feasible` raise for the first row t that fails, checking
    each condition once over a block: (instances x rooms) int64 arrays
    whose row sums stay below 2^63, and one demand per row."""
    totals = capacities.sum(axis=1)
    broken = np.vstack((
        _broken(capacities.min(axis=1), proctors.min(axis=1), demands, totals, proctors.sum(axis=1)),
        demands > totals,
    ))
    if broken.any():
        t = int(broken.any(axis=0).argmax())
        condition = int(broken[:, t].argmax())
        if condition == len(_CONDITIONS):
            raise InfeasibleError(int(demands[t]), int(totals[t]))
        raise InvalidParameterError(_CONDITIONS[condition])


def weight_ranks(capacities, proctors) -> np.ndarray:
    """Dense rank of each room's specific weight capacity / proctors, 0 for
    the largest, as an int64 array of the arguments' shape; rooms with equal
    ratios share a rank.  Every entry is ranked against every other, so on
    a block of instances, one per row, each row is ordered as by its own
    rank.  Both values of a room are integers in [1, 2^31).

    Exact on integers: each distinct pair (c << 31 | p) is keyed by the
    Python int (c << 62) // p, and a pair's rank is the place of its key
    among the distinct keys in descending order.  Flooring keeps the order,
    and equal ratios get equal keys.  Two distinct ratios differ by
    |c p' - c' p| / (p p') >= 1 / (p p') > 2^-62, so their scaled values
    differ by more than 1 and their keys differ.
    """
    c, p = np.asarray(capacities, np.int64), np.asarray(proctors, np.int64)
    pairs, room_pair = np.unique(c << 31 | p, return_inverse=True)
    keys = [(c << 62) // p for c, p in zip((pairs >> 31).tolist(), (pairs & (2**31 - 1)).tolist())]
    rank = {key: r for r, key in enumerate(sorted(set(keys), reverse=True))}
    return np.array([rank[key] for key in keys], np.int64)[room_pair].reshape(np.shape(capacities))


def proctors_from_rate(capacities, rate: int) -> tuple[int, ...]:
    """Proctor cost per room when one proctor supervises up to `rate` students.

    Each room needs ceil(capacity / rate) proctors.
    """
    rate = int(rate)
    if rate < 1:
        raise InvalidParameterError(f"rate must be >= 1, got {rate}")
    return tuple([-(-c // rate) for c in map(int, capacities)])
