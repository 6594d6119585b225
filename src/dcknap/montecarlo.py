"""Random instance generation and the seeded experiment runner.

Room capacities are drawn from one of three distributions (uniform integers
on [40, 120], Poisson with mean 65, or Binomial(480, 0.2), the latter two
redrawn on a zero draw), and the demand of a realization is
floor(occupancy * total capacity).

Every random stream is derived from a single master seed with a stable
SHA-256 construction, so experiments are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .dctree import HEAD_LEFT, TreeParams, build_tree
from .errors import InvalidParameterError
from .metrics import EfficiencySeries, average_series, solve_tree
from .model import MAX_TOTAL_CAPACITY, ProblemInstance, proctors_from_rate
from .rounding import as_fraction
from .solvers import SORT_KEYS, SortCriterion

DISTRIBUTIONS = ("uniform", "poisson", "binomial")

UNIFORM_LOW, UNIFORM_HIGH = 40, 120  # inclusive support
POISSON_MEAN = 65
BINOMIAL_TRIALS, BINOMIAL_P = 480, 0.2

SWEEP_VARIABLES = ("o", "r", "s", "f")


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed for one role of one realization.

    SHA-256 of "master:part:part:..." keeps streams independent and
    reproducible across platforms and releases.
    """
    text = ":".join([str(master_seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _check_room_count(dist: str, n: int) -> None:
    """Refuse a distribution name or room count that no draw can serve.

    Even the smallest capacities of `n` rooms (40 each for uniform, 1 for
    Poisson and binomial, whose zero draws are redrawn) must total at most
    MAX_TOTAL_CAPACITY, or no draw could form a ProblemInstance; refusing
    such an `n` before sampling loses nothing.
    """
    if dist not in DISTRIBUTIONS:
        raise InvalidParameterError(
            f"unknown distribution {dist!r}; expected one of {DISTRIBUTIONS}"
        )
    if n < 1:
        raise InvalidParameterError("need at least one room")
    smallest = n * (UNIFORM_LOW if dist == "uniform" else 1)
    if smallest > MAX_TOTAL_CAPACITY:
        raise InvalidParameterError(
            f"{n} {dist} rooms hold at least {smallest} students, more than "
            f"the supported total capacity {MAX_TOTAL_CAPACITY}"
        )


def sample_capacities(dist: str, n: int, seed: int) -> tuple[int, ...]:
    """Draw `n` positive room capacities from the named distribution."""
    _check_room_count(dist, n)
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        caps = rng.integers(UNIFORM_LOW, UNIFORM_HIGH + 1, size=n)
    elif dist == "poisson":
        caps = rng.poisson(POISSON_MEAN, size=n)
    else:
        caps = rng.binomial(BINOMIAL_TRIALS, BINOMIAL_P, size=n)
    # A zero-capacity room would cost zero proctors; redraw until positive.
    while True:
        zero = caps == 0
        if not zero.any():
            break
        if dist == "poisson":
            caps[zero] = rng.poisson(POISSON_MEAN, size=int(zero.sum()))
        else:
            caps[zero] = rng.binomial(BINOMIAL_TRIALS, BINOMIAL_P, size=int(zero.sum()))
    return tuple(int(c) for c in caps)


def occupancy_demand(occupancy, total_capacity: int) -> int:
    """floor(occupancy * total_capacity), computed exactly."""
    o = as_fraction(occupancy)
    return (o.numerator * total_capacity) // o.denominator


@dataclass(frozen=True)
class Realization:
    """One sampled capacity vector with its derived demand."""

    capacities: tuple[int, ...]
    demand: int


def make_realization(dist: str, n: int, occupancy, seed: int) -> Realization:
    o = as_fraction(occupancy)
    if not 0 < o <= 1:
        raise InvalidParameterError(f"occupancy must lie in (0, 1], got {o}")
    caps = sample_capacities(dist, n, seed)
    return Realization(caps, occupancy_demand(o, sum(caps)))


def seeded_realization(
    dist: str, n: int, occupancy, master_seed: int, index: int
) -> Realization:
    """Realization `index` of a master seed: the draw behind realization
    `index` of an experiment, and column index+1 of `dcknap generate --seed`.

    The 0 in the seed is part of the seed format: changing it changes every
    output.
    """
    seed = derive_seed(master_seed, index, 0, "capacities")
    return make_realization(dist, n, occupancy, seed)


def build_instance(realization: Realization, rate: int) -> ProblemInstance:
    return ProblemInstance(
        capacities=realization.capacities,
        proctors=proctors_from_rate(realization.capacities, rate),
        demand=realization.demand,
    )


@dataclass(frozen=True)
class ExperimentParams:
    """The full parameter tuple of one Monte Carlo experiment.

    Defaults are the standard setting: 512 rooms, occupancy 0.9, rate 54,
    specific-weight sorting, head fraction 0.5 (`TreeParams` fills it in for
    hlT), minimum list size 4, and 50 realizations.
    """

    n_rooms: int = 512
    dist: str = "uniform"
    occupancy: Fraction = Fraction(9, 10)
    rate: int = 54
    tree_alg: str = HEAD_LEFT
    sort: SortCriterion = SortCriterion("specific_weight")
    head_fraction: Fraction | None = None
    min_size: int = 4
    rounding: str = "ceil"
    realizations: int = 50
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "occupancy", as_fraction(self.occupancy))
        _check_room_count(self.dist, self.n_rooms)
        tree = TreeParams(
            self.tree_alg, self.sort, self.head_fraction, self.min_size, self.rounding
        )
        object.__setattr__(self, "head_fraction", tree.fraction)
        if not 0 < self.occupancy <= 1:
            raise InvalidParameterError(
                f"occupancy must lie in (0, 1], got {self.occupancy}"
            )
        if self.rate < 1:
            raise InvalidParameterError("rate must be >= 1")
        if self.realizations < 1:
            raise InvalidParameterError("need at least one realization")


@dataclass(frozen=True)
class ExperimentResult:
    average: EfficiencySeries
    series: tuple[EfficiencySeries, ...]  # per realization, in index order


def _realization_series(params: ExperimentParams, index: int) -> EfficiencySeries:
    """Series of realization `index`: sample, build its tree and solve it.

    A split never overloads a child (see `split_demand`), so every draw is
    used.  The 0 in the sort seed is part of the seed format, as in
    `seeded_realization`.
    """
    realization = seeded_realization(
        params.dist, params.n_rooms, params.occupancy, params.master_seed, index
    )
    instance = build_instance(realization, params.rate)
    sort = params.sort
    if sort.key == "random" and sort.seed is None:
        sort = replace(sort, seed=derive_seed(params.master_seed, index, 0, "sort"))
    tree = build_tree(
        instance,
        params.tree_alg,
        sort,
        fraction=params.head_fraction,
        min_size=params.min_size,
        rounding=params.rounding,
    )
    return solve_tree(tree)


def run_experiment(params: ExperimentParams) -> ExperimentResult:
    """Run all realizations of one experiment and average the series.

    Output is a pure function of `params`: realizations are seeded by index
    and reduced in index order.
    """
    series = tuple(_realization_series(params, i) for i in range(params.realizations))
    return ExperimentResult(average_series(series), series)


def default_domain(variable: str):
    """The standard sweep domain of a strategy variable."""
    if variable == "o":
        return tuple(Fraction(k, 100) for k in range(50, 91, 5))
    if variable == "r":
        return (34, 44, 54, 64, 74)
    if variable == "s":
        return SORT_KEYS
    if variable == "f":
        return tuple(Fraction(k, 100) for k in range(35, 66, 5))
    raise InvalidParameterError(
        f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}"
    )


def _with_value(params: ExperimentParams, variable: str, value) -> ExperimentParams:
    """`params` with one swept variable set; `sweep` has checked the name."""
    if variable == "o":
        return replace(params, occupancy=value)
    if variable == "r":
        return replace(params, rate=int(value))
    if variable == "s":
        key = value.key if isinstance(value, SortCriterion) else str(value)
        # A seedless random criterion gets a per-realization derived seed.
        return replace(params, sort=SortCriterion(key))
    return replace(params, head_fraction=value)  # "f"


def sweep(params: ExperimentParams, variable: str, domain=None) -> dict:
    """One run_experiment per domain value, everything else held fixed.

    Realization seeds depend only on (master_seed, index), so every domain
    value sees the same sampled capacity vectors: differences in the output
    isolate the strategy effect.
    """
    if variable not in SWEEP_VARIABLES:
        raise InvalidParameterError(
            f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}"
        )
    if domain is None:
        domain = default_domain(variable)
    if not domain:
        raise InvalidParameterError("the sweep domain is empty")
    results = {}
    for value in domain:
        point = _with_value(params, variable, value)
        results[value] = run_experiment(point)
    return results


# ---------------------------------------------------------------------------
# Realization batches on disk: one row per room, one column per realization,
# trailing SUM and DEMAND rows.

def write_rooms_csv(stream, realizations, labels=None) -> None:
    if not realizations:
        raise InvalidParameterError("need at least one realization")
    if labels is None:
        labels = [f"realization_{k + 1}" for k in range(len(realizations))]
    n = len(realizations[0].capacities)
    if any(len(r.capacities) != n for r in realizations):
        raise InvalidParameterError("all realizations must have the same room count")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["room", *labels])
    for room in range(n):
        writer.writerow([room, *(r.capacities[room] for r in realizations)])
    writer.writerow(["SUM", *(sum(r.capacities) for r in realizations)])
    writer.writerow(["DEMAND", *(r.demand for r in realizations)])


def read_rooms_csv(stream) -> list[tuple[str, tuple[int, ...], int]]:
    """Parse a rooms CSV back into (label, capacities, demand) columns."""
    try:
        rows = list(csv.reader(stream))
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise InvalidParameterError(f"not a rooms CSV: {exc}") from exc
    if not rows or not rows[0] or rows[0][0] != "room":
        raise InvalidParameterError("not a rooms CSV: missing 'room' header")
    labels = rows[0][1:]
    body = rows[1:]
    if len(body) < 3 or body[-2][:1] != ["SUM"] or body[-1][:1] != ["DEMAND"]:
        raise InvalidParameterError("rooms CSV must end with SUM and DEMAND rows")
    data_rows = body[:-2]
    columns = []
    for j, label in enumerate(labels):
        try:
            caps = tuple(int(row[j + 1]) for row in data_rows)
            declared_sum = int(body[-2][j + 1])
            demand = int(body[-1][j + 1])
        except (IndexError, ValueError) as exc:
            raise InvalidParameterError(
                f"column {label!r}: malformed cell ({exc})"
            ) from exc
        if declared_sum != sum(caps):
            raise InvalidParameterError(
                f"column {label!r}: SUM row says {declared_sum}, rooms add to {sum(caps)}"
            )
        columns.append((label, caps, demand))
    return columns
