import csv
import io
import os
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap import (
    EFFICIENCY_METRICS,
    ExperimentParams,
    InvalidParameterError,
    ProblemInstance,
    SortCriterion,
    build_tree,
    dp_solve,
    lp_relax_solve,
    proctors_from_rate,
    read_rooms_csv,
    run_experiment,
    sweep,
)
import dcknap.solvers
from dcknap.cli import _critical_heights, main, parse_config
from dcknap.dctree import ROUNDING_MODES, TREE_ALGORITHMS
from dcknap.errors import ConfigError
from dcknap.montecarlo import seeded_realization, write_rooms_csv
from dcknap.rounding import format_2dec
from dcknap.solvers import SORT_KEYS

SMOKE_CONFIG = """\
n_rooms=8
dist=uniform
occupancy=0.9
rate=54
tree_alg=hlT
head_fraction=0.5
min_size=2
realizations=1
master_seed=3
"""


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad options itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def twin_labels(tmp_path):
    """A rooms CSV whose first two columns share the label x."""
    rooms = tmp_path / "twins.csv"
    rooms.write_text("room,x,x,y\n0,5,6,7\n1,5,6,7\nSUM,10,12,14\nDEMAND,3,4,5\n")
    return rooms


def index_labels(tmp_path):
    """A rooms CSV whose second column is labelled 1, the first column's index."""
    rooms = tmp_path / "index_labels.csv"
    rooms.write_text("room,a,1\n0,5,6\n1,5,6\nSUM,10,12\nDEMAND,3,4\n")
    return rooms


class TestGenerate:
    def test_shape(self, tmp_path, capsys):
        out = tmp_path / "rooms.csv"
        code, _, _ = run(
            capsys,
            "generate", "--n", "8", "--dist", "uniform", "--occupancy", "0.9",
            "--count", "5", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["room"] + [f"realization_{k}" for k in range(1, 6)]
        assert len(rows) == 1 + 8 + 2
        assert rows[-2][0] == "SUM"
        assert rows[-1][0] == "DEMAND"
        for column in range(1, 6):
            total = sum(int(rows[r][column]) for r in range(1, 9))
            assert int(rows[-2][column]) == total
            assert int(rows[-1][column]) == (9 * total) // 10

    def test_columns_are_experiment_realizations(self, tmp_path, capsys):
        # Column k of `generate --seed S` is realization k of an experiment
        # with master_seed=S.  With min_size >= n_rooms each tree is its
        # root, so the series hold the root solutions of each column.
        out = tmp_path / "rooms.csv"
        code, _, _ = run(
            capsys,
            "generate", "--n", "10", "--dist", "poisson", "--occupancy", "0.7",
            "--count", "3", "--seed", "42", "--out", str(out),
        )
        assert code == 0
        params = ExperimentParams(
            n_rooms=10, dist="poisson", occupancy="0.7", rate=30, min_size=10,
            realizations=3, master_seed=42,
        )
        result = run_experiment(params)
        with out.open(newline="") as stream:
            columns = read_rooms_csv(stream)
        assert len(columns) == len(result.series) == 3
        for (_, caps, demand), series in zip(columns, result.series):
            inst = ProblemInstance(caps, proctors_from_rate(caps, 30), demand)
            assert series.height == 0
            assert series.dps[0] == dp_solve(inst)[1]
            assert series.lrs[0] == lp_relax_solve(inst).value

    def test_single_column(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _, _ = run(capsys, "generate", "--count", "1", "--out", str(out))
        assert code == 0
        assert len(list(csv.reader(out.open()))[0]) == 2

    def test_bad_path_exits_3(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--out", str(tmp_path / "missing" / "rooms.csv")
        )
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "occupancy", ["abc", "1/0", "0.9x", "1e-1000000", "1E+1000000"]
    )
    def test_bad_occupancy_exits_2(self, tmp_path, capsys, occupancy):
        out = tmp_path / "rooms.csv"
        code, _, err = run(
            capsys, "generate", "--occupancy", occupancy, "--out", str(out)
        )
        assert code == 2
        assert "--occupancy" in err
        assert not out.exists()

    def test_zero_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "rooms.csv"
        code, _, err = run(capsys, "generate", "--count", "0", "--out", str(out))
        assert code == 2
        assert err.startswith("error: need at least one realization")
        assert not out.exists()

    def test_huge_room_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "rooms.csv"
        code, _, err = run(capsys, "generate", "--n", "10000000000000", "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and "2147483647" in err
        assert not out.exists()


README_SOLVE = """\
column=realization_1 rooms=8 total_capacity=704 demand=633 rate=54
LRS 14.12 support=1,7,2,3,5,4,6,0 fractional_room=0
DPS 15 rooms=0,2,3,4,5,6,7
GAS 16 rooms=0,1,2,3,4,5,6,7
"""

README_TREE = """\
room,vertex_0,vertex_1,vertex_2,vertex_3,vertex_4,vertex_5,vertex_6
1,1,1,1,0,0,0,0
7,1,1,1,0,0,0,0
2,1,1,0,1,0,0,0
3,1,1,0,1,0,0,0
5,1,0,0,0,1,1,0
4,1,0,0,0,1,1,0
6,1,0,0,0,1,0,1
0,1,0,0,0,1,0,1
demand,633,309,144,165,324,155,169
"""

README_DOT = """\
digraph dctree {
  v0 [label="D=633 |V|=8"];
  v1 [label="D=309 |V|=4"];
  v2 [label="D=144 |V|=2"];
  v3 [label="D=165 |V|=2"];
  v4 [label="D=324 |V|=4"];
  v5 [label="D=155 |V|=2"];
  v6 [label="D=169 |V|=2"];
  v0 -> v1;
  v0 -> v4;
  v1 -> v2;
  v1 -> v3;
  v4 -> v5;
  v4 -> v6;
}
"""


class TestSolve:
    def test_readme_output_verbatim(self, rooms_csv, capsys):
        code, out, _ = run(
            capsys, "solve", str(rooms_csv), "--column", "1", "--rate", "54",
            "--solver", "all",
        )
        assert code == 0
        assert out == README_SOLVE

    def test_realization_one_triple(self, rooms_csv, capsys):
        code, out, _ = run(
            capsys, "solve", str(rooms_csv), "--column", "1", "--rate", "54",
            "--solver", "all",
        )
        assert code == 0
        assert "LRS 14.12" in out
        assert "fractional_room=0" in out
        assert "DPS 15" in out
        assert "GAS 16" in out

    def test_column_by_label(self, rooms_csv, capsys):
        code, out, _ = run(capsys, "solve", str(rooms_csv), "--column", "realization_4")
        assert code == 0
        assert "demand=502" in out

    def test_high_rate_greedy_matches_exact(self, rooms_csv, capsys):
        code, out, _ = run(capsys, "solve", str(rooms_csv), "--rate", "120")
        assert code == 0
        lines = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:]}
        assert lines["DPS"] == lines["GAS"]

    def test_infeasible_demand_exits_1(self, rooms_csv, tmp_path, capsys):
        rows = list(csv.reader(rooms_csv.open()))
        rows[-1][1] = "100000"  # demand beyond the total capacity
        edited = tmp_path / "edited.csv"
        with edited.open("w", newline="") as stream:
            csv.writer(stream, lineterminator="\n").writerows(rows)
        code, _, err = run(capsys, "solve", str(edited), "--column", "1")
        assert code == 1
        assert "exceeds total capacity" in err

    def test_oversized_dp_exits_2(self, tmp_path, capsys, monkeypatch):
        rooms = tmp_path / "huge.csv"
        rooms.write_text("room,big\n0,1000000000\n1,1000000000\nSUM,2000000000\nDEMAND,1\n")

        def no_allocation(*args, **kwargs):
            raise AssertionError("np.zeros called")

        monkeypatch.setattr(numpy, "zeros", no_allocation)
        code, _, err = run(capsys, "solve", str(rooms), "--rate", "1", "--solver", "dp")
        assert code == 2
        assert "exact DP table of 3 rows" in err

    def test_cell_past_int64_exits_2(self, tmp_path, capsys):
        rooms = tmp_path / "huge.csv"
        big = 10**32
        rooms.write_text(f"room,big\n0,{big}\n1,50\nSUM,{big + 50}\nDEMAND,10\n")
        code, out, err = run(capsys, "solve", str(rooms), "--solver", "lp")
        assert code == 2 and out == ""
        assert err.startswith("error: total capacity exceeds")

    def test_dp_cost_axis_ends_at_greedy_cost(self, tmp_path, capsys):
        # The budget axis would need 3 x 1,000,000,006 cells; the greedy
        # cover costs 10 and no repair is cheaper, so the cost axis ends at
        # UB = 10 and has 11 columns.
        rooms = tmp_path / "cheap_cover.csv"
        rooms.write_text("room,a\n0,10\n1,1000000000\nSUM,1000000010\nDEMAND,5\n")
        code, out, _ = run(capsys, "solve", str(rooms), "--rate", "1", "--solver", "dp")
        assert code == 0
        assert "DPS 10 rooms=0" in out.splitlines()

    def test_dp_cost_axis_ends_at_repaired_bound(self, tmp_path, capsys):
        # Tied weights put the huge room first, so GAS = 1,000,000,000 and
        # either full axis exceeds the cell limit; swapping the break room for
        # room 1 gives UB = 10, an 11-column cost axis.  GAS is still reported.
        rooms = tmp_path / "dear_greedy.csv"
        rooms.write_text("room,a\n0,1000000000\n1,10\nSUM,1000000010\nDEMAND,5\n")
        code, out, _ = run(capsys, "solve", str(rooms), "--rate", "1", "--solver", "all")
        assert code == 0
        lines = out.splitlines()
        assert "DPS 10 rooms=1" in lines
        assert "GAS 1000000000 rooms=0" in lines

    def test_missing_column_exits_2(self, rooms_csv, capsys):
        code, _, _ = run(capsys, "solve", str(rooms_csv), "--column", "nope")
        assert code == 2

    def test_ambiguous_label_exits_2(self, tmp_path, capsys):
        rooms = twin_labels(tmp_path)
        code, out, err = run(capsys, "solve", str(rooms), "--column", "x")
        assert code == 2 and out == ""
        assert err.startswith("error: column label 'x' names columns [1, 2] of ")
        assert "Traceback" not in err
        code, out, _ = run(capsys, "solve", str(rooms), "--column", "2")
        assert code == 0 and "demand=4" in out

    def test_label_that_is_another_columns_index_exits_2(self, tmp_path, capsys):
        rooms = index_labels(tmp_path)
        code, out, err = run(capsys, "solve", str(rooms), "--column", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: column label '1' names columns [1, 2] of ")
        assert "--column +N names only the column at 1-based index N" in err
        assert "Traceback" not in err
        for column, first_line in (("2", "column=1 "), ("a", "column=a "), ("+1", "column=a ")):
            code, out, _ = run(capsys, "solve", str(rooms), "--column", column)
            assert code == 0 and out.startswith(first_line)

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        rooms = tmp_path / "rooms.csv"
        rooms.write_bytes(b"room,a\n0,\xff\nSUM,1\nDEMAND,1\n")
        code, _, err = run(capsys, "solve", str(rooms))
        assert code == 2
        assert err.startswith("error:")


@st.composite
def tree_commands(draw):
    """A one-column rooms CSV of 1-70 rooms and `dcknap tree` options over
    it, every tree parameter drawn; with the instance and build_tree's
    arguments that the options stand for."""
    caps = draw(st.lists(st.integers(1, 120), min_size=1, max_size=70))
    rate, demand = draw(st.integers(1, 90)), draw(st.integers(0, sum(caps)))
    algorithm, key = draw(st.sampled_from(TREE_ALGORITHMS)), draw(st.sampled_from(SORT_KEYS))
    seed, min_size = draw(st.integers(0, 2**32)), draw(st.integers(1, 5))
    rounding = draw(st.sampled_from(ROUNDING_MODES))
    options = [
        "--rate", str(rate), "--tree", algorithm, "--sort", key, "--sort-seed", str(seed),
        "--min-size", str(min_size), "--rounding", rounding,
    ]
    fraction = None
    if algorithm == "hlT":
        fraction = draw(st.none() | st.fractions(0, 1, max_denominator=20))
        options += [] if fraction is None else ["--fraction", str(fraction)]
    rooms = "".join(f"{i},{c}\n" for i, c in enumerate(caps))
    text = f"room,realization_1\n{rooms}SUM,{sum(caps)}\nDEMAND,{demand}\n"
    instance = ProblemInstance(caps, proctors_from_rate(caps, rate), demand)
    sort = SortCriterion(key, seed=seed if key == "random" else None)
    return text, options, (instance, algorithm, sort, fraction, min_size, rounding)


class TestTree:
    @settings(max_examples=200, deadline=None)
    @given(tree_commands())
    def test_every_cell_is_membership_of_the_node(self, command):
        text, options, tree_args = command
        with tempfile.TemporaryDirectory() as tmp:
            rooms = Path(tmp) / "rooms.csv"
            rooms.write_text(text)
            with redirect_stdout(io.StringIO()) as out:
                assert main(["tree", str(rooms), *options]) == 0
        nodes = build_tree(*tree_args).nodes
        rows = list(csv.reader(out.getvalue().splitlines()))
        assert rows[0] == ["room", *(f"vertex_{v}" for v in range(len(nodes)))]
        assert [int(row[0]) for row in rows[1:-1]] == list(nodes[0].rooms)
        for row in rows[1:-1]:
            assert row[1:] == [str(int(int(row[0]) in node.rooms)) for node in nodes]
        assert rows[-1] == ["demand", *(str(node.demand) for node in nodes)]

    def test_readme_output_verbatim(self, rooms_csv, tmp_path, capsys):
        dot = tmp_path / "tree.dot"
        code, out, _ = run(
            capsys, "tree", str(rooms_csv), "--column", "1", "--rate", "54",
            "--tree", "hlT", "--sort", "specific-weight", "--fraction", "0.5",
            "--min-size", "2", "--rounding", "ceil", "--dot-out", str(dot),
        )
        assert code == 0
        assert out == README_TREE
        assert dot.read_text() == README_DOT

    def test_ambiguous_label_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "tree", str(twin_labels(tmp_path)), "--column", "x")
        assert code == 2 and out == ""
        assert err.startswith("error: column label 'x' names columns [1, 2] of ")
        assert "Traceback" not in err

    def test_label_that_is_another_columns_index_exits_2(self, tmp_path, capsys):
        rooms = index_labels(tmp_path)
        code, out, err = run(capsys, "tree", str(rooms), "--column", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: column label '1' names columns [1, 2] of ")
        assert "--column +N names only the column at 1-based index N" in err
        assert "Traceback" not in err
        for column, demand in (("2", "4"), ("a", "3"), ("+1", "3")):
            code, out, _ = run(capsys, "tree", str(rooms), "--column", column, "--min-size", "2")
            assert code == 0 and out.splitlines()[-1] == f"demand,{demand}"

    def test_memory_is_not_rooms_by_vertices(self, tmp_path):
        # 2,048 rooms at min_size 1 make 4,095 vertices: a rooms x vertices
        # uint8 matrix alone would be 8.4 MB.
        rooms = tmp_path / "rooms.csv"
        with open(rooms, "w", newline="") as stream:
            write_rooms_csv(stream, [seeded_realization("uniform", 2048, "0.9", 1, 0)])
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                assert main(["tree", str(rooms), "--min-size", "1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_head_left_demand_row(self, rooms_csv, capsys):
        code, out, _ = run(
            capsys, "tree", str(rooms_csv), "--column", "1", "--rate", "54",
            "--tree", "hlT", "--sort", "specific-weight", "--fraction", "0.5",
            "--min-size", "2",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][0] == "room"
        assert rows[-1] == ["demand", "633", "309", "144", "165", "324", "155", "169"]
        assert [r[0] for r in rows[1:-1]] == ["1", "7", "2", "3", "5", "4", "6", "0"]

    def test_balanced_demand_row(self, rooms_csv, capsys):
        code, out, _ = run(
            capsys, "tree", str(rooms_csv), "--column", "1", "--tree", "blT",
            "--min-size", "2",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[-1] == ["demand", "633", "281", "127", "154", "352", "171", "181"]

    def test_min_size_n_single_vertex(self, rooms_csv, capsys):
        code, out, _ = run(
            capsys, "tree", str(rooms_csv), "--column", "1", "--min-size", "8"
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["room", "vertex_0"]
        assert rows[-1] == ["demand", "633"]

    @pytest.mark.parametrize("fraction", ["abc", "1/0", "1e-1000000"])
    def test_bad_fraction_exits_2(self, rooms_csv, capsys, fraction):
        code, _, err = run(capsys, "tree", str(rooms_csv), "--fraction", fraction)
        assert code == 2
        assert "--fraction" in err

    def test_negative_sort_seed_exits_2(self, rooms_csv, capsys):
        code, out, err = run(
            capsys, "tree", str(rooms_csv), "--sort", "random", "--sort-seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: sort seed must be >= 0")

    def test_fraction_rejected_for_balanced(self, rooms_csv, capsys):
        code, _, err = run(
            capsys, "tree", str(rooms_csv), "--tree", "blT", "--fraction", "0.4"
        )
        assert code == 2
        assert "fraction" in err

    def test_dot_export(self, rooms_csv, tmp_path, capsys):
        dot = tmp_path / "tree.dot"
        code, _, _ = run(
            capsys, "tree", str(rooms_csv), "--column", "1", "--min-size", "2",
            "--dot-out", str(dot),
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert 'label="D=633 |V|=8"' in text


class TestParseConfig:
    def test_smoke_config(self):
        config = parse_config(SMOKE_CONFIG)
        assert config.params.n_rooms == 8
        assert config.algorithms == ("hlT",)
        assert config.sweep is None
        assert config.aggregation == "mean"

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("n_rooms=8\nspeed=11\ncolour=red\n")
        assert "colour" in str(exc.value)
        assert "speed" in str(exc.value)

    def test_balanced_with_fraction_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("tree_alg=blT\nhead_fraction=0.5\n")

    def test_balanced_alone_ok(self):
        config = parse_config("tree_alg=blT\n")
        assert config.algorithms == ("blT",)
        assert config.params.head_fraction is None

    def test_both_algorithms(self):
        config = parse_config("tree_alg=both\nsweep=r\n")
        assert config.algorithms == ("hlT", "blT")
        assert config.sweep == "r"

    def test_comments_and_blanks_ignored(self):
        assert parse_config("# a comment\n\nn_rooms=8\n").params.n_rooms == 8

    def test_bad_sweep_variable(self):
        with pytest.raises(ConfigError):
            parse_config("sweep=m\n")

    def test_fraction_sweep_with_balanced_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("tree_alg=blT\nsweep=f\n")
        with pytest.raises(ConfigError):
            parse_config("tree_alg=both\nsweep=f\n")
        assert parse_config("tree_alg=hlT\nsweep=f\n").sweep == "f"

    def test_head_fraction_none_unsets(self):
        assert parse_config("head_fraction=None\n").params.head_fraction == Fraction(1, 2)
        config = parse_config("tree_alg=blT\nhead_fraction=none\n")
        assert config.params.head_fraction is None

    def test_max_aggregation_accepted(self):
        assert parse_config("aggregation=max\n").aggregation == "max"
        with pytest.raises(ConfigError):
            parse_config("aggregation=median\n")


class TestExperiment:
    def test_smoke_run(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(SMOKE_CONFIG)
        out_dir = tmp_path / "results"
        code, out, _ = run(
            capsys, "experiment", str(config), "--out-dir", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "average_hlT.csv").exists()
        assert (out_dir / "plot_data.csv").exists()
        rows = list(csv.reader((out_dir / "average_hlT.csv").open()))
        assert rows[0][0] == "height"
        assert "GbE_DPS" in rows[0]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("n_rooms=8\nbogus=1\n")
        code, _, err = run(
            capsys, "experiment", str(config), "--out-dir", str(tmp_path / "r")
        )
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "line",
        [
            "n_rooms=abc",
            "occupancy=zz",
            "occupancy=1/0",
            "head_fraction=0.5x",
            "rate=5.5",
            "sort_seed=x",
            "rounding=xyz",
            "min_size=0",
            "head_fraction=3/2",
            "sort=random\nsort_seed=-1",
            "occupancy=1e-1000000",
            "head_fraction=1e1000000",
            "realizations=0",
        ],
    )
    def test_bad_config_number_exits_2(self, tmp_path, capsys, line):
        config = tmp_path / "config.txt"
        key = line.partition("=")[0]
        config.write_text(f"{line}\n" if key == "n_rooms" else f"n_rooms=8\n{line}\n")
        out_dir = tmp_path / "r"
        code, _, err = run(capsys, "experiment", str(config), "--out-dir", str(out_dir))
        assert code == 2
        expected = {
            "rounding=xyz": "error: rounding must be one of",
            "min_size=0": "error: min_size must be >= 1",
            "head_fraction=3/2": "error: head fraction must lie in [0, 1]",
            "sort=random\nsort_seed=-1": "error: sort seed must be >= 0",
            "realizations=0": "error: need at least one realization",
        }.get(line, f"error: {key}: cannot parse")
        assert err.startswith(expected)
        assert not out_dir.exists()

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        # Refused, not resolved by letting the last value win.
        config = tmp_path / "config.txt"
        config.write_text("n_rooms=16\n# a comment\noccupancy=0.9\n n_rooms = 32\n")
        out_dir = tmp_path / "r"
        code, _, err = run(capsys, "experiment", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith("error: n_rooms is set twice, on lines 1 and 4")
        assert not out_dir.exists()

    def test_huge_room_count_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("n_rooms=10000000000000\n")
        out_dir = tmp_path / "r"
        code, _, err = run(capsys, "experiment", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and "2147483647" in err
        assert not out_dir.exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_bytes(b"n_rooms=8\ndist=\xff\n")
        out_dir = tmp_path / "r"
        code, _, err = run(capsys, "experiment", str(config), "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith("error:")
        assert not out_dir.exists()

    def test_sweep_outputs(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(
            "n_rooms=16\nrealizations=2\nmin_size=4\nmaster_seed=5\nsweep=r\n"
        )
        out_dir = tmp_path / "sweep"
        code, _, _ = run(capsys, "experiment", str(config), "--out-dir", str(out_dir))
        assert code == 0
        table = list(csv.reader((out_dir / "avg_hlT_GbE_DPS.csv").open()))
        assert table[0] == ["height", "34", "44", "54", "64", "74"]
        assert (out_dir / "critical_heights_hlT.csv").exists()

    def _run_twice(self, tmp_path, capsys, workers_second):
        config = tmp_path / "config.txt"
        config.write_text(
            "n_rooms=16\nrealizations=3\nmin_size=4\nmaster_seed=5\n"
            "tree_alg=both\nsweep=r\n"
        )
        outputs = []
        for k, workers in enumerate(("1", workers_second)):
            out_dir = tmp_path / f"run{k}"
            code, _, _ = run(
                capsys, "experiment", str(config), "--out-dir", str(out_dir),
                "--workers", workers,
            )
            assert code == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        return outputs

    def test_byte_identical_across_runs_and_workers(self, tmp_path, capsys):
        first, second = self._run_twice(tmp_path, capsys, workers_second="4")
        assert first.keys() == second.keys()
        assert first == second
        assert "l1_comparison.csv" in first

    def _run_without_allocation(self, tmp_path, capsys, monkeypatch, config_text):
        """Run an experiment with a 4-cell DP limit and the solvers' np.zeros
        and np.full failing (sampling still needs the real ones)."""
        config = tmp_path / "config.txt"
        config.write_text(config_text)

        def no_allocation(*args, **kwargs):
            raise AssertionError("np.zeros or np.full called")

        monkeypatch.setattr(dcknap.solvers, "DP_MAX_CELLS", 4)
        monkeypatch.setattr(
            dcknap.solvers, "np", SimpleNamespace(**{**vars(numpy), "zeros": no_allocation, "full": no_allocation})
        )
        return run(capsys, "experiment", str(config), "--out-dir", str(tmp_path / "out"))

    def test_oversized_dp_exits_2_before_allocation(self, tmp_path, capsys, monkeypatch):
        code, _, err = self._run_without_allocation(
            tmp_path, capsys, monkeypatch, "n_rooms=16\nrealizations=2\nmin_size=4\nmaster_seed=5\n"
        )
        assert code == 2
        assert "exact DP table of" in err

    def test_critical_heights_skip_only_short_series(self):
        # Height 2: GbE series cover heights 0..2, SwE series only 1..2.
        params = ExperimentParams(n_rooms=8, min_size=2, realizations=1, master_seed=3)
        results = sweep(params, "r", domain=(34, 54))
        assert {r.average.height for r in results.values()} == {2}
        heights, mode = _critical_heights(results)
        assert sorted(heights) == sorted(n for n in EFFICIENCY_METRICS if not n.startswith("SwE"))
        assert mode is not None
        with pytest.raises(InvalidParameterError, match="aggregation"):
            _critical_heights(results, "median")

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from("ors"), st.integers(8, 40), st.integers(1, 3), st.integers(1, 6),
        st.integers(0, 2**32), st.sampled_from(("mean", "max")),
    )
    def test_derived_files_match_a_reference(self, var, n, realizations, min_size, seed, aggregation):
        """critical_heights_<alg>.csv, l1_norms_<alg>.csv and l1_comparison.csv
        of a tree_alg=both sweep, recomputed from sweep() averages: mean or
        max steps and the doubling rule, the mode with ties to the smaller
        height, and plain Fraction sums of absolute cells over heights 1..h."""
        config = (
            f"n_rooms={n}\nrealizations={realizations}\nmin_size={min_size}\n"
            f"master_seed={seed}\ntree_alg=both\nsweep={var}\naggregation={aggregation}\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "config.txt").write_text(config)
            with redirect_stdout(io.StringIO()):
                assert main(["experiment", f"{tmp}/config.txt", "--out-dir", f"{tmp}/out"]) == 0
            files = {p.name: list(csv.reader(p.open())) for p in Path(tmp, "out").iterdir()}

        def label(v):
            return format_2dec(v) if isinstance(v, Fraction) else str(v)

        def start(name):
            return 1 if name.startswith("SwE") else 0

        def norm(result, names, h):
            cells = (result.average.metric(m)[k - start(m)] for m in names for k in range(1, h + 1))
            return sum((abs(Fraction(c)) for c in cells), Fraction(0))

        norms = (("all", EFFICIENCY_METRICS), ("gbe_dps", ("GbE_DPS",)))
        results, modes = {}, {}
        for alg in ("hlT", "blT"):
            params = ExperimentParams(
                n_rooms=n, realizations=realizations, min_size=min_size, master_seed=seed, tree_alg=alg
            )
            results[alg] = sweep(params, var)
            shared = min(r.average.height for r in results[alg].values())
            heights = {}
            for name in EFFICIENCY_METRICS:
                columns = [r.average.metric(name)[: shared - start(name) + 1] for r in results[alg].values()]
                if len(columns[0]) < 3:
                    continue
                steps = [
                    [Fraction(c[k]) - Fraction(c[k - 1]) for c in columns] for k in range(1, len(columns[0]))
                ]
                slopes = [sum(s) / len(s) if aggregation == "mean" else max(s) for s in steps]
                doubled = [k for k in range(2, len(columns[0])) if slopes[k - 1] > 2 * slopes[k - 2]]
                heights[name] = (doubled[0] if doubled else len(columns[0]) - 1) + start(name)
            counts = [list(heights.values()).count(h) for h in heights.values()]
            modes[alg] = min((h for h, c in zip(heights.values(), counts) if c == max(counts)), default=None)
            mode = modes[alg]
            assert files[f"critical_heights_{alg}.csv"] == [
                ["metric", "critical_height"], *([m, str(h)] for m, h in heights.items()),
                ["mode", "" if mode is None else str(mode)],
            ]
            if mode is None:
                assert f"l1_norms_{alg}.csv" not in files
                continue
            assert files[f"l1_norms_{alg}.csv"] == [
                ["value", "norm_all", "norm_gbe_dps"],
                *([label(v), *(format_2dec(norm(r, names, mode)) for _, names in norms)]
                  for v, r in results[alg].items()),
            ]
        if None in modes.values():
            assert "l1_comparison.csv" not in files
            return
        h_tilde = min(modes.values())
        rows = [["value", *(f"{a}_{name}" for name, _ in norms for a in ("hlT", "blT", "winner"))]]
        for v in results["hlT"]:
            row = [label(v)]
            for _, names in norms:
                a, b = (norm(results[alg][v], names, h_tilde) for alg in ("hlT", "blT"))
                row += [format_2dec(a), format_2dec(b), "hlT" if a < b else "blT" if b < a else "tie"]
            rows.append(row)
        assert files["l1_comparison.csv"] == rows

    def test_bound_settled_vertices_allocate_nothing(self, tmp_path, capsys, monkeypatch):
        # One proctor per room: ceil(LRS) = GAS on every vertex, so no DP runs.
        code, _, _ = self._run_without_allocation(
            tmp_path, capsys, monkeypatch, "n_rooms=16\nrealizations=2\nmin_size=4\nmaster_seed=5\nrate=120\n"
        )
        assert code == 0
