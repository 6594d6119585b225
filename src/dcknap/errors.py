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
    """A routine was asked for more than it can allocate.

    Raised by the exact DP before allocating a table past its cell limit.
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


class ConfigError(InvalidParameterError):
    """An experiment configuration file contains unusable keys or values."""
