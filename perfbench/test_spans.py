"""Tests of the benchmark's tracer and output checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dcknap.cli  # noqa: E402
import dcknap.solvers  # noqa: E402
from dcknap.montecarlo import derive_seed, make_realization  # noqa: E402
from oracle import expected_plot_data  # noqa: E402
from spans import METRICS, TARGETS, Tracer  # noqa: E402

SEED = 2024
SMALL = f"""\
n_rooms=16
dist=uniform
occupancy=0.9
rate=54
tree_alg=hlT
min_size=4
realizations=2
master_seed={SEED}
"""


def traced_run(tmp_path, config_text=SMALL, targets=TARGETS, workers=1):
    tmp_path.mkdir(exist_ok=True)
    config = tmp_path / "experiment.cfg"
    config.write_text(config_text)
    out_dir = tmp_path / "out"
    tracer = Tracer(targets)
    tracer.install()
    try:
        rc = dcknap.cli.main(
            ["experiment", str(config), "--out-dir", str(out_dir), "--workers", str(workers)]
        )
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer, out_dir


def counts(metrics):
    return {k: v for k, v in metrics.items() if METRICS[k][2] != "timed"}


def test_counts_match_hand_computed_values(tmp_path):
    tracer, _ = traced_run(tmp_path)
    m = tracer.layer_metrics()
    assert m["montecarlo.resampled"] == 0  # the hand counts assume no redraws
    # Two realizations; each tree splits 16 -> 8+8 -> 4 x 4: 7 vertices, height 2.
    assert m["montecarlo.sample.calls"] == 2
    assert m["dctree.build.calls"] == 2
    assert m["dctree.vertices"] == 14
    assert m["solvers.triple.calls"] == m["solvers.dp.calls"] == 14
    # One sort per tree build, one each in greedy and LP per vertex.
    assert m["solvers.sort.calls"] == 2 * (1 + 2 * 7)
    assert m["solvers.sort.keys"] == 2 * (16 + 2 * (16 + 2 * 8 + 4 * 4))
    # The root instance plus one sub-instance per vertex.
    assert m["model.instances"] == 2 * (1 + 7)
    assert m["dctree.prune.calls"] == 2 * 3
    # average_hlT.csv and plot_data.csv each print 8 metrics at heights 0..2
    # and the 3 stepwise metrics at heights 1..2.
    assert m["rounding.format.calls"] == 2 * (8 * 3 + 3 * 2)

    # Child budgets partition their parent's (capacity and demand both split),
    # so sum((n+1)(budget+1)) over the 1 + 2 + 4 vertices is 31 B + 55.
    budgets = []
    for index in range(2):
        caps = make_realization("uniform", 16, Fraction(9, 10), derive_seed(SEED, index, 0, "capacities")).capacities
        total = sum(caps)
        budgets.append(total - 9 * total // 10)
    assert m["solvers.dp.cells"] == sum(31 * b + 55 for b in budgets)
    assert m["solvers.dp.table_mb_max"] == 17 * (max(budgets) + 1) * 4 / 2**20


def test_counts_repeat_exactly(tmp_path):
    first, _ = traced_run(tmp_path / "a")
    second, _ = traced_run(tmp_path / "b")
    assert counts(first.layer_metrics()) == counts(second.layer_metrics())


def test_spans_nest_per_tree(tmp_path):
    tracer, _ = traced_run(tmp_path)
    by_id = {span[1]: span for span in tracer.spans}
    trees = [span for span in tracer.spans if span[0] == "montecarlo.tree"]
    assert len(trees) == 2
    for name, _, parent, tree, start, end, self_s, *_ in tracer.spans:
        assert start <= end and self_s <= end - start + 1e-9
        if name.startswith("solvers."):
            assert tree in {t[1] for t in trees}
        if parent:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]


def test_missing_target_is_absent_not_fatal(tmp_path):
    targets = [t for t in TARGETS if t[2] != "solvers.greedy"]
    targets.append(("dcknap.solvers", "fused_scan", "solvers.greedy", None))
    tracer, _ = traced_run(tmp_path, targets=targets)
    metrics = tracer.layer_metrics()
    assert tracer.absent == ["dcknap.solvers.fused_scan"]
    assert "solvers.greedy.self_s" not in metrics
    assert "solvers.lp.self_s" in metrics


def test_uninstall_restores_bindings(tmp_path):
    before = (dcknap.cli.format_2dec, dcknap.solvers.SortCriterion.order, dcknap.solvers.dp_solve)
    traced_run(tmp_path)
    assert (dcknap.cli.format_2dec, dcknap.solvers.SortCriterion.order, dcknap.solvers.dp_solve) == before


@pytest.mark.parametrize(
    "config_text",
    [
        SMALL,
        SMALL.replace("n_rooms=16", "n_rooms=40").replace("uniform", "binomial").replace("min_size=4", "min_size=6")
        + "sweep=s\n",
    ],
    ids=["hlT", "binomial-sweep-s"],
)
def test_oracle_reproduces_plot_data(tmp_path, config_text):
    _, out_dir = traced_run(tmp_path, config_text)
    assert expected_plot_data(config_text) == (out_dir / "plot_data.csv").read_text()


@pytest.mark.parametrize("extra", ["rounding=floor\n", "sweep=o\n"])
def test_oracle_rejects_unsupported_configs(extra):
    with pytest.raises(ValueError):
        expected_plot_data(SMALL + extra)


def test_threads_keep_separate_stacks(tmp_path):
    tracer, _ = traced_run(tmp_path, SMALL.replace("realizations=2", "realizations=4"), workers=2)
    m = tracer.layer_metrics()
    assert m["dctree.vertices"] == 28 and m["solvers.triple.calls"] == 28
    by_id = {span[1]: span for span in tracer.spans}
    for name, _, parent, tree, *_ in tracer.spans:
        if name == "solvers.triple":
            assert by_id[parent][0] == "metrics.solve_tree" and by_id[tree][0] == "montecarlo.tree"
