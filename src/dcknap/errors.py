"""Exception types shared across the package.

Everything derives from DcknapError; parameter-style problems additionally
derive from ValueError so generic callers can catch them the usual way.
"""

from __future__ import annotations


class DcknapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DcknapError, ValueError):
    """A parameter is outside its documented domain."""


class SizeLimitError(InvalidParameterError):
    """A routine was asked for more than it can enumerate or allocate.

    Raised by the brute-force oracle past its room limit and by the exact
    DP before allocating a table past its cell limit.
    """


class InvalidPartitionError(InvalidParameterError):
    """A two-way split is degenerate (one side empty or whole)."""


class InfeasibleError(DcknapError):
    """Demand exceeds the total capacity of the available rooms."""

    def __init__(self, demand: int, total_capacity: int):
        self.demand = demand
        self.total_capacity = total_capacity
        self.deficit = demand - total_capacity
        super().__init__(
            f"demand {demand} exceeds total capacity {total_capacity} "
            f"by {self.deficit}"
        )


class SplitInfeasibleError(DcknapError):
    """A generated child subproblem cannot satisfy its assigned demand."""

    def __init__(self, vertex: int, rooms: tuple, demand: int, capacity: int):
        self.vertex = vertex
        self.rooms = rooms
        self.demand = demand
        self.capacity = capacity
        super().__init__(
            f"vertex {vertex}: assigned demand {demand} exceeds capacity "
            f"{capacity} of rooms {list(rooms)}"
        )


class ConfigError(InvalidParameterError):
    """An experiment configuration file contains unusable keys or values."""
