"""Per-layer tracing of dcknap from outside the package.

`Tracer.install()` replaces each traced function at the binding its caller
looks up (``from .x import y`` copies the function into the importing
module, so ``dcknap.metrics.solve_triple`` is patched, not only
``dcknap.solvers.solve_triple``).  Every call then records one span: name,
id, parent id, tree id, start, end, self wall time, self thread-CPU time, a
work count and the exception type that escaped, if any.  Self time is the
span's duration minus that of its direct children on the same thread; the
span stack is kept per thread, so the worker pool's threads trace
correctly.  Spans stay in memory until `write_spans` at the end.

A target whose attribute no longer exists is skipped and listed in
`Tracer.absent`; the metrics built from it are then left out of
`layer_metrics` instead of failing.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import threading
from time import perf_counter, thread_time

#: Layers in report order; a span's layer is the part of its name before the dot.
LAYERS = ("solvers", "model", "dctree", "metrics", "montecarlo", "rounding", "cli")

_BYTES_PER_CELL = 4  # dp_solve's table is int32
_MB = 1 << 20


def _dp_cells(args, kwargs, result):
    """(n+1)(budget+1) of the table dp_solve allocates for its argument."""
    instance = args[0] if args else kwargs["instance"]
    if instance.demand == 0:
        return 0  # dp_solve returns before building a table
    budget = sum(instance.capacities) - instance.demand
    return (len(instance.capacities) + 1) * (budget + 1)


def _sorted_keys(args, kwargs, result):
    return len(result)


def _tree_vertices(args, kwargs, result):
    return len(result.nodes)


# (module, attribute path, span name, work count of one call or None).
# A span named "montecarlo.tree" starts a new tree id; its descendants share it.
TARGETS = (
    ("dcknap.cli", "cmd_experiment", "cli", None),
    ("dcknap.cli", "format_2dec", "rounding.format", None),
    ("dcknap.cli", "run_experiment", "montecarlo.run", None),
    ("dcknap.cli", "sweep", "montecarlo.sweep", None),
    ("dcknap.cli", "critical_height", "metrics.compare", None),
    ("dcknap.cli", "critical_height_mode", "metrics.compare", None),
    ("dcknap.cli", "efficiency_array", "metrics.compare", None),
    ("dcknap.cli", "l1_compare", "metrics.compare", None),
    ("dcknap.montecarlo", "run_experiment", "montecarlo.run", None),
    ("dcknap.montecarlo", "_realization_series", "montecarlo.tree", None),
    ("dcknap.montecarlo", "make_realization", "montecarlo.sample", None),
    ("dcknap.montecarlo", "build_tree", "dctree.build", _tree_vertices),
    ("dcknap.montecarlo", "solve_tree", "metrics.solve_tree", None),
    ("dcknap.montecarlo", "average_series", "metrics.average", None),
    ("dcknap.metrics", "solve_triple", "solvers.triple", None),
    ("dcknap.metrics", "prune", "dctree.prune", None),
    ("dcknap.dctree", "DCTree.subinstance", "dctree.subinstance", None),
    ("dcknap.model", "ProblemInstance.__post_init__", "model.instance", None),
    ("dcknap.solvers", "SortCriterion.order", "solvers.sort", _sorted_keys),
    ("dcknap.solvers", "lp_relax_solve", "solvers.lp", None),
    ("dcknap.solvers", "dp_solve", "solvers.dp", _dp_cells),
    ("dcknap.solvers", "greedy_solve", "solvers.greedy", None),
)

# metric name -> (span names it needs, unit, how it is obtained)
# "counted": counted at the traced boundary; "computed": derived from call
# arguments; "timed": clock readings.  Counts repeat exactly across runs.
METRICS = {
    "solvers.sort.calls": (("solvers.sort",), "count", "counted"),
    "solvers.sort.keys": (("solvers.sort",), "count", "counted"),
    "solvers.sort.self_s": (("solvers.sort",), "s", "timed"),
    "solvers.greedy.self_s": (("solvers.greedy",), "s", "timed"),
    "solvers.lp.self_s": (("solvers.lp",), "s", "timed"),
    "solvers.triple.calls": (("solvers.triple",), "count", "counted"),
    "solvers.dp.calls": (("solvers.dp",), "count", "counted"),
    "solvers.dp.self_s": (("solvers.dp",), "s", "timed"),
    "solvers.dp.cells": (("solvers.dp",), "count", "computed"),
    "solvers.dp.table_mb_max": (("solvers.dp",), "MB", "computed"),
    "solvers.dp.cells_per_s": (("solvers.dp",), "1/s", "timed"),
    "model.instances": (("model.instance",), "count", "counted"),
    "model.instance.self_s": (("model.instance",), "s", "timed"),
    "dctree.build.calls": (("dctree.build",), "count", "counted"),
    "dctree.build.self_s": (("dctree.build",), "s", "timed"),
    "dctree.vertices": (("dctree.build",), "count", "counted"),
    "dctree.subinstance.self_s": (("dctree.subinstance",), "s", "timed"),
    "dctree.prune.calls": (("dctree.prune",), "count", "counted"),
    "dctree.prune.self_s": (("dctree.prune",), "s", "timed"),
    "metrics.solve_tree.self_s": (("metrics.solve_tree",), "s", "timed"),
    "metrics.average.self_s": (("metrics.average",), "s", "timed"),
    "metrics.compare.self_s": (("metrics.compare",), "s", "timed"),
    "montecarlo.sample.calls": (("montecarlo.sample",), "count", "counted"),
    "montecarlo.sample.self_s": (("montecarlo.sample",), "s", "timed"),
    "montecarlo.resampled": (("dctree.build",), "count", "counted"),
    "montecarlo.tree_ms.p50": (("montecarlo.tree",), "ms", "timed"),
    "montecarlo.tree_ms.p90": (("montecarlo.tree",), "ms", "timed"),
    "rounding.format.calls": (("rounding.format",), "count", "counted"),
    "rounding.format.self_s": (("rounding.format",), "s", "timed"),
    "cli.self_s": (("cli",), "s", "timed"),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.wait_s"] = ((), "s", "timed")


def _resolve(module_name, path):
    """(owner object, attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class _Frame:
    __slots__ = ("id", "tree", "child_wall", "child_cpu")

    def __init__(self, span_id, tree):
        self.id = span_id
        self.tree = tree
        self.child_wall = 0.0
        self.child_cpu = 0.0


class Tracer:
    """Wraps the TARGETS and collects their spans in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # (name, id, parent id, tree id, start, end, self wall, self cpu, work, error)
        self.spans: list[tuple] = []
        self.absent: list[str] = []  # targets that no longer exist
        self.present: set[str] = set()  # span names with an installed target
        self._installed: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def install(self) -> None:
        for module_name, path, name, work in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))
            self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn, work):
        local = self._local
        ids = self._ids
        spans = self.spans
        starts_tree = name == "montecarlo.tree"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            tree = span_id if starts_tree else (parent.tree if parent else 0)
            frame = _Frame(span_id, tree)
            stack.append(frame)
            error, result = "", None
            # Both clocks are read in the same order at both ends, so a span's
            # wall and CPU intervals are shifted alike and self wait is unbiased.
            t0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                wall, cpu = t1 - t0, c1 - c0
                if parent is not None:
                    parent.child_wall += wall
                    parent.child_cpu += cpu
                count = work(args, kwargs, result) if work and not error else 0
                spans.append(
                    (
                        name,
                        span_id,
                        parent.id if parent else 0,
                        tree,
                        t0,
                        t1,
                        wall - frame.child_wall,
                        cpu - frame.child_cpu,
                        count,
                        error,
                    )
                )

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (see METRICS)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        work: dict[str, int] = {}
        wait = dict.fromkeys(LAYERS, 0.0)
        dp_table_max = 0
        resampled = 0
        tree_ms = []
        for name, _, _, _, t0, t1, self_wall, self_cpu, count, error in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + self_wall
            work[name] = work.get(name, 0) + count
            layer = name.partition(".")[0]
            wait[layer] += self_wall - self_cpu
            if name == "solvers.dp":
                dp_table_max = max(dp_table_max, count)
            elif name == "dctree.build" and error == "SplitInfeasibleError":
                resampled += 1
            elif name == "montecarlo.tree":
                tree_ms.append((t1 - t0) * 1000)

        dp_self = self_s.get("solvers.dp", 0.0)
        values = {
            "solvers.sort.calls": calls.get("solvers.sort", 0),
            "solvers.sort.keys": work.get("solvers.sort", 0),
            "solvers.triple.calls": calls.get("solvers.triple", 0),
            "solvers.dp.calls": calls.get("solvers.dp", 0),
            "solvers.dp.cells": work.get("solvers.dp", 0),
            "solvers.dp.table_mb_max": dp_table_max * _BYTES_PER_CELL / _MB,
            "solvers.dp.cells_per_s": work.get("solvers.dp", 0) / dp_self if dp_self else 0.0,
            "model.instances": calls.get("model.instance", 0),
            "dctree.build.calls": calls.get("dctree.build", 0),
            "dctree.vertices": work.get("dctree.build", 0),
            "dctree.prune.calls": calls.get("dctree.prune", 0),
            "montecarlo.sample.calls": calls.get("montecarlo.sample", 0),
            "montecarlo.resampled": resampled,
            "montecarlo.tree_ms.p50": _percentile(tree_ms, 50),
            "montecarlo.tree_ms.p90": _percentile(tree_ms, 90),
            "rounding.format.calls": calls.get("rounding.format", 0),
        }
        for metric in METRICS:
            if metric.endswith(".self_s") and metric not in values:
                values[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
        for layer in LAYERS:
            values[f"{layer}.wait_s"] = wait[layer]
        return {
            metric: values[metric]
            for metric, (needs, _, _) in METRICS.items()
            if all(n in self.present for n in needs)
        }

    def layer_self_s(self) -> dict[str, float]:
        """Self wall time per layer, for checking how a workload splits."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            totals[span[0].partition(".")[0]] += span[6]
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(
                ["name", "id", "parent", "tree", "start", "end", "self_s", "self_cpu_s", "work", "error"]
            )
            writer.writerows(self.spans)


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]
