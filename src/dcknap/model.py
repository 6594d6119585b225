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
from fractions import Fraction
from functools import cached_property

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
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        object.__setattr__(self, "proctors", tuple(int(p) for p in self.proctors))
        object.__setattr__(self, "demand", int(self.demand))
        n = len(self.capacities)
        if n < 1:
            raise InvalidParameterError("an instance needs at least one room")
        if len(self.proctors) != n:
            raise InvalidParameterError("capacities and proctors must have equal length")
        if any(c < 1 for c in self.capacities):
            raise InvalidParameterError("all capacities must be >= 1")
        if any(p < 1 for p in self.proctors):
            raise InvalidParameterError("all proctor counts must be >= 1")
        if self.demand < 0:
            raise InvalidParameterError("demand must be >= 0")
        for name, total in (
            ("capacity", sum(self.capacities)),
            ("proctor count", sum(self.proctors)),
        ):
            if total > MAX_TOTAL_CAPACITY:
                raise InvalidParameterError(
                    f"total {name} exceeds the supported limit {MAX_TOTAL_CAPACITY}"
                )

    @property
    def n_rooms(self) -> int:
        return len(self.capacities)

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    @property
    def total_proctors(self) -> int:
        return sum(self.proctors)

    @cached_property
    def weight_ranks(self) -> tuple[int, ...]:
        """Dense rank of each room's specific weight capacity / proctors, 0 for
        the largest; rooms with equal ratios share a rank.  Exact, with one
        Fraction per distinct (capacity, proctors) pair; computed once."""
        pairs = list(zip(self.capacities, self.proctors))
        weight = {pair: Fraction(*pair) for pair in set(pairs)}
        rank = {w: r for r, w in enumerate(sorted(set(weight.values()), reverse=True))}
        pair_rank = {pair: rank[w] for pair, w in weight.items()}
        return tuple(pair_rank[pair] for pair in pairs)

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
    return tuple(-(-int(c) // rate) for c in capacities)
