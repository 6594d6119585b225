"""Random instance generation and the seeded experiment runner.

Room capacities are drawn from one of three distributions (uniform integers
on [40, 120], Poisson with mean 65, or Binomial(480, 0.2), the latter two
redrawn on a zero draw), and the demand of a realization is
floor(occupancy * total capacity).

Every random stream is derived from a single master seed with a stable
SHA-256 construction, so experiments are reproducible byte for byte.  An
experiment draws its realizations one index at a time and solves them in
blocks of consecutive indices, one array pass per block.  Means are exact,
so an experiment's memory and averaging time grow with its realization
count by design: an averaged `SwE_LRS` cell gains about 150 bits of
denominator per realization.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .dctree import HEAD_LEFT, TreeParams, block_rows, build_block
from .dctree import build_tree  # noqa: F401  a binding perfbench/spans.py traces
from .errors import InvalidParameterError
from .metrics import EfficiencySeries, average_sums, solve_trees, tree_series
from .metrics import average_series, solve_tree  # noqa: F401  bindings perfbench/spans.py traces
from .model import (
    MAX_TOTAL_CAPACITY,
    ProblemInstance,
    proctors_from_rate,
    require_instances,
    weight_ranks,
)
from .rounding import as_fraction
from .solvers import SORT_KEYS, SortCriterion

DISTRIBUTIONS = ("uniform", "poisson", "binomial")

UNIFORM_LOW, UNIFORM_HIGH = 40, 120  # inclusive support
POISSON_MEAN = 65
BINOMIAL_TRIALS, BINOMIAL_P = 480, 0.2

#: The standard domain of each swept variable: occupancy, rate, sort key, head fraction.
SWEEP_DOMAINS = {
    "o": tuple(Fraction(k, 100) for k in range(50, 91, 5)),
    "r": (34, 44, 54, 64, 74),
    "s": SORT_KEYS,
    "f": tuple(Fraction(k, 100) for k in range(35, 66, 5)),
}
SWEEP_VARIABLES = tuple(SWEEP_DOMAINS)


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
    draw = {
        "uniform": partial(rng.integers, UNIFORM_LOW, UNIFORM_HIGH + 1),
        "poisson": partial(rng.poisson, POISSON_MEAN),
        "binomial": partial(rng.binomial, BINOMIAL_TRIALS, BINOMIAL_P),
    }[dist]
    caps = draw(size=n)
    # A zero-capacity room would cost zero proctors; redraw until positive.
    while (zero := caps == 0).any():
        caps[zero] = draw(size=int(zero.sum()))
    return tuple(caps.tolist())


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
    tree: TreeParams = field(init=False, repr=False, compare=False)  # the checked tree fields

    def __post_init__(self):
        object.__setattr__(self, "occupancy", as_fraction(self.occupancy))
        _check_room_count(self.dist, self.n_rooms)
        tree = TreeParams(
            self.tree_alg, self.sort, self.head_fraction, self.min_size, self.rounding
        )
        object.__setattr__(self, "tree", tree)
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
    sums: tuple[tuple, ...]  # of `solve_trees`, per realization in index order

    @cached_property
    def series(self) -> tuple[EfficiencySeries, ...]:
        return tuple(tree_series(sums) for sums in self.sums)


def _realization_series(params: ExperimentParams, indices: range) -> list[tuple]:
    """Per-height sums of the realizations `indices`, as one block of
    same-shape trees: each is drawn as `seeded_realization` draws it, then
    all are checked, ranked, sorted, split, solved and summed together.

    A split never overloads a child (see `split_demand`), so every draw is
    used.  The 0 in the sort seed is part of the seed format, as in
    `seeded_realization`.
    """
    realizations = [
        seeded_realization(params.dist, params.n_rooms, params.occupancy, params.master_seed, i)
        for i in indices
    ]
    capacities = np.array([r.capacities for r in realizations], np.int64)
    demands = np.array([r.demand for r in realizations], np.int64)
    # `proctors_from_rate` in int64: a room of a valid row holds at most
    # MAX_TOTAL_CAPACITY, so any larger rate gives it one proctor, as that does.
    proctors = -(-capacities // min(params.rate, MAX_TOTAL_CAPACITY))
    require_instances(capacities, proctors, demands)
    if params.sort.key == "random" and params.sort.seed is None:
        seeds = [derive_seed(params.master_seed, i, 0, "sort") for i in indices]
    else:
        seeds = [params.sort.seed] * len(indices)
    block = build_block(
        capacities, proctors, weight_ranks(capacities, proctors), demands, params.tree, seeds
    )
    return solve_trees(block)


def run_experiment(params: ExperimentParams) -> ExperimentResult:
    """Run all realizations of one experiment and average the series.

    Realizations are solved in blocks of consecutive indices (`block_rows`),
    so the arrays depend on the block; what stays until the average is a
    few integer sums per tree.  Output is a pure function of `params`:
    realizations are seeded by index and reduced in index order.
    """
    rows = block_rows(params.tree, params.n_rooms)
    sums = []
    for first in range(0, params.realizations, rows):
        sums += _realization_series(params, range(first, min(first + rows, params.realizations)))
    return ExperimentResult(average_sums(sums), tuple(sums))


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
        domain = SWEEP_DOMAINS[variable]
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
