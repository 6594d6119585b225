"""Command-line front end.

Subcommands:
  generate    sample realization batches into a rooms CSV
  solve       run the greedy / exact / relaxation solvers on one column
  tree        print a decomposition tree's vertex-membership table
  experiment  run a seeded experiment grid from a key=value config file

Exit codes: 0 success, 1 infeasible problem, 2 usage or config error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from .dctree import BALANCED, HEAD_LEFT, ROUNDING_MODES, TREE_ALGORITHMS, build_tree, to_dot
from .errors import ConfigError, InfeasibleError, InvalidParameterError
from .metrics import (
    AGGREGATIONS,
    ALL_METRICS,
    EFFICIENCY_METRICS,
    critical_height,
    critical_height_mode,
    efficiency_array,
    l1_compare,
    l1_norm,
    metric_start_height,
)
from .model import ProblemInstance, proctors_from_rate
from .montecarlo import (
    DISTRIBUTIONS,
    SWEEP_VARIABLES,
    ExperimentParams,
    read_rooms_csv,
    run_experiment,
    seeded_realization,
    sweep,
    write_rooms_csv,
)
from .rounding import as_fraction, format_2dec
from .solvers import SORT_KEYS, SortCriterion, dp_solve, greedy_solve, lp_relax_solve


def _sort_key(text: str) -> str:
    """Sort keys may be spelled with hyphens, as in specific-weight."""
    return text.replace("-", "_")


def _sort_criterion(key: str, seed: int | None) -> SortCriterion:
    return SortCriterion(key, seed=seed if key == "random" else None)


def _value_label(value) -> str:
    if isinstance(value, Fraction):
        return format_2dec(value)
    return str(value)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    realizations = [
        seeded_realization(args.dist, args.n, args.occupancy, args.seed, k)
        for k in range(args.count)
    ]
    text = io.StringIO()
    write_rooms_csv(text, realizations)  # fails before --out is created
    with open(args.out, "w", newline="") as stream:
        stream.write(text.getvalue())
    print(f"wrote {args.count} realizations of {args.n} rooms to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# solve


def _load_column(args) -> tuple[str, ProblemInstance]:
    """(label, instance) of column `args.column` of the rooms CSV `args.file`,
    priced at `args.rate` students per proctor."""
    with open(args.file, newline="") as stream:
        columns = read_rooms_csv(stream)
    by_label = {column[0]: column for column in columns}
    try:
        k = int(args.column)
    except ValueError:
        k = None
    if args.column in by_label:
        label, caps, demand = by_label[args.column]
    elif k is not None and 1 <= k <= len(columns):
        label, caps, demand = columns[k - 1]
    else:
        raise InvalidParameterError(
            f"no column {args.column!r} in {args.file}; "
            f"available: {[c[0] for c in columns]}"
        )
    return label, ProblemInstance(caps, proctors_from_rate(caps, args.rate), demand)


def _ids(rooms) -> str:
    return ",".join(str(i) for i in rooms)


def cmd_solve(args) -> int:
    label, instance = _load_column(args)
    print(
        f"column={label} rooms={instance.n_rooms} "
        f"total_capacity={instance.total_capacity} demand={instance.demand} "
        f"rate={args.rate}"
    )
    if args.solver in ("lp", "all"):
        relax = lp_relax_solve(instance)
        frac = "none" if relax.fractional_index is None else relax.fractional_index
        print(
            f"LRS {format_2dec(relax.value)} support={_ids(relax.support)} "
            f"fractional_room={frac}"
        )
    if args.solver in ("dp", "all"):
        rooms, value = dp_solve(instance)
        print(f"DPS {value} rooms={_ids(rooms)}")
    if args.solver in ("greedy", "all"):
        rooms, value = greedy_solve(instance)
        print(f"GAS {value} rooms={_ids(rooms)}")
    return 0


# ---------------------------------------------------------------------------
# tree


def cmd_tree(args) -> int:
    _, instance = _load_column(args)
    tree = build_tree(
        instance,
        args.tree,
        _sort_criterion(args.sort, args.sort_seed),
        fraction=args.fraction,
        min_size=args.min_size,
        rounding=args.rounding,
    )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["room", *(f"vertex_{node.index}" for node in tree.nodes)])
    for position in tree.root.rooms:  # rows in root (sorted) order
        writer.writerow(
            [position, *(1 if position in node.rooms else 0 for node in tree.nodes)]
        )
    writer.writerow(["demand", *(node.demand for node in tree.nodes)])
    if args.dot_out:
        Path(args.dot_out).write_text(to_dot(tree))
        print(f"wrote DOT to {args.dot_out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# experiment

def _optional_fraction(text: str) -> Fraction | None:
    return None if text.lower() == "none" else as_fraction(text)


#: Config key -> converter of its text value.
_CONFIG_KEYS = {
    "n_rooms": int,
    "dist": str,
    "occupancy": as_fraction,
    "rate": int,
    "tree_alg": str,
    "sort": _sort_key,
    "sort_seed": int,
    "head_fraction": _optional_fraction,
    "min_size": int,
    "rounding": str,
    "realizations": int,
    "master_seed": int,
    "sweep": str,
    "aggregation": str,
}

_PARAM_FIELDS = frozenset(f.name for f in fields(ExperimentParams))


@dataclass(frozen=True)
class ExperimentConfig:
    params: ExperimentParams
    algorithms: tuple[str, ...]  # ("hlT",), ("blT",) or both
    sweep: str | None
    aggregation: str  # slope aggregation for critical heights


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value lines -> a validated experiment configuration."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {value!r}") from None

    tree_alg = values.get("tree_alg", HEAD_LEFT)
    algorithms = (HEAD_LEFT, BALANCED) if tree_alg == "both" else (tree_alg,)

    kwargs = {key: v for key, v in values.items() if key in _PARAM_FIELDS}
    try:
        kwargs.update(
            tree_alg=algorithms[0],
            sort=_sort_criterion(values.get("sort", "specific_weight"), values.get("sort_seed")),
        )
        params = ExperimentParams(**kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc

    sweep_var = values.get("sweep")
    if sweep_var is not None and sweep_var not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep must be one of {SWEEP_VARIABLES}; got {sweep_var!r}")
    if sweep_var == "f" and algorithms != (HEAD_LEFT,):
        raise ConfigError("the head fraction can only be swept with tree_alg=hlT")
    aggregation = values.get("aggregation", AGGREGATIONS[0])
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"aggregation must be one of {AGGREGATIONS}; got {aggregation!r}")
    return ExperimentConfig(params, algorithms, sweep_var, aggregation)


def _params_for(params: ExperimentParams, algorithm: str) -> ExperimentParams:
    """The config's params, or its blT twin when tree_alg=both."""
    if algorithm == params.tree_alg:
        return params
    return replace(params, tree_alg=BALANCED, head_fraction=None)


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)


def _average_rows(average):
    head = ["height", *ALL_METRICS]
    rows = [head]
    for h in range(average.height + 1):
        row = [h]
        for name in ALL_METRICS:
            start = metric_start_height(name)
            row.append("" if h < start else format_2dec(average.metric(name)[h - start]))
        rows.append(row)
    return rows


def _metric_table(results, name):
    """height x strategy-value table for one metric of a sweep.

    Tree heights can differ across the domain (head fractions away from 0.5
    deepen the tree); missing heights render as empty cells.
    """
    values = list(results)
    start = metric_start_height(name)
    top = max(results[v].average.height for v in values)
    rows = [["height", *(_value_label(v) for v in values)]]
    for h in range(start, top + 1):
        row = [h]
        for v in values:
            series = results[v].average.metric(name)
            row.append(format_2dec(series[h - start]) if h - start < len(series) else "")
        rows.append(row)
    return rows


def _critical_heights(results, aggregation="mean"):
    """Per-metric critical heights of a sweep, plus their mode.

    Columns are truncated to the smallest height shared by every swept
    value, so slopes stay comparable across the domain.
    """
    shared = min(result.average.height for result in results.values())
    heights = {}
    for name in EFFICIENCY_METRICS:
        start = metric_start_height(name)
        length = shared - start + 1
        if length < 3:
            continue  # too short to ever observe a doubling
        columns = {v: results[v].average.metric(name)[:length] for v in results}
        heights[name] = critical_height(columns, aggregation) + start
    mode = critical_height_mode(list(heights.values())) if heights else None
    return heights, mode


def _norms(results, h_tilde):
    """(all-metrics norm, exact-solution-only norm) per strategy value."""
    out = {}
    for v, result in results.items():
        h = min(h_tilde, result.average.height)
        out[v] = tuple(
            l1_norm(efficiency_array(result.average, names, h))
            for names in (EFFICIENCY_METRICS, ["GbE_DPS"])
        )
    return out


def cmd_experiment(args) -> int:
    config = parse_config(Path(args.config).read_text())
    params, algorithms, sweep_var = config.params, config.algorithms, config.sweep
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    plot_rows = [["tree_alg", "strategy", "metric", "height", "value"]]
    per_alg = {}
    for algorithm in algorithms:
        alg_params = _params_for(params, algorithm)
        if sweep_var is None:
            result = run_experiment(alg_params)
            _write_csv(out_dir / f"average_{algorithm}.csv", _average_rows(result.average))
            results = {"-": result}
        else:
            results = sweep(alg_params, sweep_var)
            for name in ALL_METRICS:
                _write_csv(
                    out_dir / f"avg_{algorithm}_{name}.csv",
                    _metric_table(results, name),
                )
            heights, mode = _critical_heights(results, config.aggregation)
            rows = [["metric", "critical_height"]]
            rows += [[name, h] for name, h in heights.items()]
            rows.append(["mode", mode if mode is not None else ""])
            _write_csv(out_dir / f"critical_heights_{algorithm}.csv", rows)
            if mode is not None:
                norms = _norms(results, mode)
                rows = [["value", "norm_all", "norm_gbe_dps"]]
                rows += [
                    [_value_label(v), format_2dec(a), format_2dec(d)]
                    for v, (a, d) in norms.items()
                ]
                _write_csv(out_dir / f"l1_norms_{algorithm}.csv", rows)
            per_alg[algorithm] = (results, mode)
        for v, result in results.items():
            strategy = _value_label(v) if sweep_var else "-"
            for name in ALL_METRICS:
                start = metric_start_height(name)
                for h, value in enumerate(result.average.metric(name), start=start):
                    plot_rows.append([algorithm, strategy, name, h, format_2dec(value)])

    if sweep_var is not None and len(algorithms) == 2:
        modes = [per_alg[a][1] for a in algorithms]
        if all(m is not None for m in modes):
            h_tilde = min(modes)
            first, second = (per_alg[a][0] for a in algorithms)
            rows = [
                [
                    "value",
                    f"{algorithms[0]}_all",
                    f"{algorithms[1]}_all",
                    "winner_all",
                    f"{algorithms[0]}_gbe_dps",
                    f"{algorithms[1]}_gbe_dps",
                    "winner_gbe_dps",
                ]
            ]
            norms_a = _norms(first, h_tilde)
            norms_b = _norms(second, h_tilde)
            for v in first:
                cmp_all = l1_compare([norms_a[v][0]], [norms_b[v][0]], labels=algorithms)
                cmp_dps = l1_compare([norms_a[v][1]], [norms_b[v][1]], labels=algorithms)
                rows.append(
                    [
                        _value_label(v),
                        format_2dec(cmp_all.norm_a),
                        format_2dec(cmp_all.norm_b),
                        cmp_all.winner,
                        format_2dec(cmp_dps.norm_a),
                        format_2dec(cmp_dps.norm_b),
                        cmp_dps.winner,
                    ]
                )
            _write_csv(out_dir / "l1_comparison.csv", rows)

    _write_csv(out_dir / "plot_data.csv", plot_rows)
    print(f"experiment outputs written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcknap",
        description="Divide-and-conquer toolkit for the min-proctor covering knapsack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample realization batches into a rooms CSV")
    p.add_argument("--n", type=int, default=8, help="rooms per realization")
    p.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    p.add_argument(
        "--occupancy", type=as_fraction, default="0.9",
        help="demand as a fraction of capacity",
    )
    p.add_argument("--count", type=int, default=1, help="number of realizations")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve one column of a rooms CSV")
    p.add_argument("file", help="rooms CSV")
    p.add_argument("--column", default="1", help="column label or 1-based index")
    p.add_argument("--rate", type=int, default=54, help="students per proctor")
    p.add_argument("--solver", choices=("greedy", "dp", "lp", "all"), default="all")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tree", help="print a decomposition tree's membership table")
    p.add_argument("file", help="rooms CSV")
    p.add_argument("--column", default="1")
    p.add_argument("--rate", type=int, default=54)
    p.add_argument("--tree", choices=TREE_ALGORITHMS, default=HEAD_LEFT)
    p.add_argument("--sort", type=_sort_key, choices=SORT_KEYS, default="specific_weight")
    p.add_argument("--sort-seed", type=int, default=0)
    p.add_argument(
        "--fraction", type=as_fraction, default=None,
        help="head fraction (hlT only, default 0.5)",
    )
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--rounding", choices=ROUNDING_MODES, default="ceil")
    p.add_argument("--dot-out", default=None, help="also write a Graphviz DOT file")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("experiment", help="run an experiment grid from a config file")
    p.add_argument("config", help="flat key=value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; runs are serial",
    )
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, InvalidParameterError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
