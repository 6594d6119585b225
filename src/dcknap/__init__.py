"""dcknap: divide-and-conquer matheuristic toolkit for the min-proctor
covering knapsack.

Pick a cheapest set of rooms covering a student demand; split large
instances into binary trees of subproblems and measure how much quality the
decomposition costs, exactly.
"""

from .errors import (
    ConfigError,
    DcknapError,
    InfeasibleError,
    InvalidParameterError,
    InvalidPartitionError,
    SizeLimitError,
)
from .model import ProblemInstance, proctors_from_rate
from .solvers import (
    LPRelaxation,
    SolutionTriple,
    SortCriterion,
    dp_solve,
    greedy_solve,
    lp_relax_solve,
    solve_triple,
)
from .dctree import (
    BALANCED,
    DCNode,
    DCTree,
    HEAD_LEFT,
    build_tree,
    prune,
    split_demand,
    to_dot,
)
from .metrics import (
    ALL_METRICS,
    EFFICIENCY_METRICS,
    EfficiencySeries,
    L1Comparison,
    average_series,
    critical_height,
    critical_height_mode,
    efficiency_array,
    l1_compare,
    solve_tree,
)
from .montecarlo import (
    ExperimentParams,
    ExperimentResult,
    Realization,
    build_instance,
    derive_seed,
    make_realization,
    occupancy_demand,
    read_rooms_csv,
    run_experiment,
    sample_capacities,
    sweep,
    write_rooms_csv,
)
from .rounding import as_fraction, format_2dec, round_half_up

__version__ = "0.1.0"
