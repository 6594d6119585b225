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
        if min(self.capacities) < 1:
            raise InvalidParameterError("all capacities must be >= 1")
        if min(self.proctors) < 1:
            raise InvalidParameterError("all proctor counts must be >= 1")
        if self.demand < 0:
            raise InvalidParameterError("demand must be >= 0")
        # Python-int sums: exact for any value, where an int64 sum could wrap.
        for name, total in (
            ("capacity", self.total_capacity),
            ("proctor count", self.total_proctors),
        ):
            if total > MAX_TOTAL_CAPACITY:
                raise InvalidParameterError(
                    f"total {name} exceeds the supported limit {MAX_TOTAL_CAPACITY}"
                )

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
        """Dense rank of each room's specific weight capacity / proctors, 0 for
        the largest; rooms with equal ratios share a rank.  Computed once, as
        a read-only int64 array.

        Exact on integers: each pair is reduced by its gcd, so equal ratios
        become one distinct pair (c << 31 | p, both below 2^31), and the
        distinct ratios are ordered by their float quotient.  Correctly
        rounded division never inverts an exact order; where one float covers
        several ratios, those are ordered by c1 * p2 against c2 * p1 (< 2^62).
        """
        c, p = np.array(self.capacities, np.int64), np.array(self.proctors, np.int64)
        g = np.gcd(c, p)
        pairs, room_pair = np.unique((c // g) << 31 | p // g, return_inverse=True)
        c, p = pairs >> 31, pairs & (2**31 - 1)
        ratio = c / p
        order = np.argsort(-ratio)
        edges = np.flatnonzero(np.diff(ratio[order])) + 1
        lo, hi = np.append(0, edges), np.append(edges, len(order))
        for a, b in zip(lo[hi - lo > 1].tolist(), hi[hi - lo > 1].tolist()):
            tie = order[a:b]
            # Place each tied ratio by how many of the others are larger.
            larger = c[tie, None] * p[tie] < c[tie] * p[tie, None]
            order[a:b] = tie[np.argsort(larger.sum(axis=1))]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        rank = rank[room_pair]
        rank.flags.writeable = False
        return rank

    def is_feasible(self) -> bool:
        return self.total_capacity >= self.demand

    def require_feasible(self):
        if not self.is_feasible():
            raise InfeasibleError(self.demand, self.total_capacity)


def proctors_from_rate(capacities, rate: int) -> tuple[int, ...]:
    """Proctor cost per room when one proctor supervises up to `rate` students.

    Each room needs ceil(capacity / rate) proctors.
    """
    rate = int(rate)
    if rate < 1:
        raise InvalidParameterError(f"rate must be >= 1, got {rate}")
    return tuple([-(-c // rate) for c in map(int, capacities)])
