"""Fuzzing of the input paths: rooms CSVs, experiment configs and the
`solve` / `tree` command lines.

Whatever the input, a run must end in one of the documented exit codes
(0 success, 1 infeasible, 2 usage or input error, 3 I/O failure) and never
in an escaped exception.  Room counts and cell values stay small enough that
no exact-DP table comes near its cell limit; huge cells only go through the
LP and greedy solvers.
"""

import csv
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dcknap import InvalidParameterError, read_rooms_csv
from dcknap.cli import _CONFIG_KEYS, ExperimentConfig, main, parse_config
from dcknap.errors import ConfigError
from dcknap.solvers import SORT_KEYS
from conftest import DATA_DIR

EXIT_CODES = (0, 1, 2, 3)
ROOMS_SAMPLE = DATA_DIR / "rooms_sample.csv"

SMALL = st.integers(1, 150)
SMALL_CELLS = SMALL.map(str)
NEGATIVE_CELLS = st.integers(-150, 0).map(str)
HUGE_CELLS = st.integers(2**31 - 2, 10**40).map(str)
JUNK_CELLS = st.one_of(
    st.sampled_from(["", "x", "1.5", " 7", "1e3", "nan", "0x10", "--1", "1_0", "٣"]),
    st.text(max_size=4),
)


def call_main(argv):
    """(exit code, stdout, stderr) of one CLI run; argparse exits with 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def rooms_tables(draw, cells):
    """Rows of a rooms CSV: ragged rows, odd headers, and SUM / DEMAND rows
    that may be right, wrong or missing."""
    n_labels = draw(st.integers(0, 3))
    first = draw(st.sampled_from(["room", "room", "room", "rooms", ""]))
    rows = [[first, *draw(st.lists(st.text(max_size=3), min_size=n_labels, max_size=n_labels))]]
    for room in range(draw(st.integers(0, 6))):
        width = n_labels if draw(st.booleans()) else draw(st.integers(0, n_labels + 1))
        rows.append([str(room), *draw(st.lists(cells, min_size=width, max_size=width))])

    def column_sum(j):
        try:
            return str(sum(int(row[j]) for row in rows[1:]))
        except (IndexError, ValueError):
            return draw(cells)

    if draw(st.booleans()):
        rows.append(["SUM", *(column_sum(j) for j in range(1, n_labels + 1))])
    else:
        rows.append(["SUM", *draw(st.lists(cells, max_size=n_labels + 1))])
    demands = st.one_of(st.integers(-5, 1000).map(str), cells)
    rows.append(["DEMAND", *draw(st.lists(demands, min_size=n_labels, max_size=n_labels))])
    cut = draw(st.sampled_from([0, 0, 0, 1, 2]))  # drop DEMAND, or SUM and DEMAND
    return rows[: len(rows) - cut]


@st.composite
def well_formed_tables(draw, capacities):
    """Rows of a rooms CSV that parses: full rows, true sums, and a demand
    of up to 5/4 of the column's total capacity."""
    n_labels = draw(st.integers(1, 3))
    n_rooms = draw(st.integers(1, 6))
    columns = [
        draw(st.lists(capacities, min_size=n_rooms, max_size=n_rooms)) for _ in range(n_labels)
    ]
    rows = [["room", *(f"c{j}" for j in range(n_labels))]]
    rows += [[room, *(c[room] for c in columns)] for room in range(n_rooms)]
    rows.append(["SUM", *(sum(c) for c in columns)])
    rows.append(["DEMAND", *(draw(st.integers(0, sum(c) * 5 // 4)) for c in columns)])
    return rows


def csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


ANY_CELLS = st.one_of(SMALL_CELLS, NEGATIVE_CELLS, HUGE_CELLS, JUNK_CELLS)
ANY_CAPACITIES = st.one_of(SMALL, st.integers(1, 10**40))


class TestReadRoomsCsv:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(rooms_tables(ANY_CELLS), well_formed_tables(ANY_CAPACITIES)))
    def test_parses_or_rejects(self, rows):
        rows = [[str(cell) for cell in row] for row in rows]
        try:
            columns = read_rooms_csv(io.StringIO(csv_text(rows), newline=""))
        except InvalidParameterError:
            return
        assert [label for label, _, _ in columns] == rows[0][1:]
        n_rooms = len(rows) - 3
        for j, (_, caps, demand) in enumerate(columns, start=1):
            assert caps == tuple(int(row[j]) for row in rows[1:-2])
            assert len(caps) == n_rooms
            assert sum(caps) == int(rows[-2][j])
            assert demand == int(rows[-1][j])

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.text(max_size=80))
    def test_arbitrary_text(self, text):
        try:
            read_rooms_csv(io.StringIO(text, newline=""))
        except InvalidParameterError:
            pass

    def test_oversized_field_rejected(self):
        text = "room,a\n0," + "1" * (csv.field_size_limit() + 1) + "\nSUM,1\nDEMAND,1\n"
        with pytest.raises(InvalidParameterError, match="not a rooms CSV"):
            read_rooms_csv(io.StringIO(text, newline=""))


CONFIG_VALUES = st.one_of(
    st.integers(-3, 600).map(str),
    st.sampled_from(
        ["0.9", "1/2", "3/2", "1/0", "none", "hlT", "blT", "both", "random",
         "specific-weight", "ceil", "floor", "uniform", "s", "f", "max", "mean"]
    ),
    st.text(max_size=6),
)
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from([*_CONFIG_KEYS, "bogus"]), CONFIG_VALUES).map("=".join),
    st.text(max_size=12),
)


class TestParseConfig:
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.lists(CONFIG_LINES, max_size=8))
    def test_parses_or_raises_config_error(self, lines):
        try:
            config = parse_config("\n".join(lines))
        except ConfigError:
            return
        assert isinstance(config, ExperimentConfig)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(CONFIG_LINES, min_size=1, max_size=8))
    def test_rejected_config_exits_2_before_out_dir(self, tmp_path_factory, lines):
        text = "\n".join(lines)
        try:
            parse_config(text)
        except ConfigError:
            pass
        else:
            return  # a valid config would run a whole experiment
        work = tmp_path_factory.mktemp("config")
        config = work / "config.txt"
        config.write_text(text, encoding="utf-8")
        out_dir = work / "out"
        code, _, err = call_main(["experiment", str(config), "--out-dir", str(out_dir)])
        assert code == 2
        assert err.startswith("error:")
        assert not out_dir.exists()


def rooms_files(cells, capacities):
    """Bytes of a rooms file: a well-formed table of `capacities`, a messy
    table of `cells`, or arbitrary bytes."""
    return st.one_of(
        well_formed_tables(capacities).map(csv_text).map(str.encode),
        rooms_tables(cells).map(csv_text).map(str.encode),
        st.binary(max_size=60),
    )


# Mostly valid choices, so that many runs get past argument checking.
COLUMNS = st.sampled_from(["1", "1", "c0", "2", "0", "x"])
RATES = st.integers(0, 200).map(str)
LARGE = st.integers(10**6, 2**30)  # a few of these pass the 2^31 - 1 total


def check_exit(code, err):
    event(f"exit {code}")
    assert code in EXIT_CODES
    if code == 1 or code == 3:
        assert err.startswith("error:")


def write_rooms(tmp_path_factory, data):
    rooms = tmp_path_factory.mktemp("fuzz") / "rooms.csv"
    rooms.write_bytes(data)
    return str(rooms)


class TestCommandLine:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        rooms_files(st.one_of(SMALL_CELLS, NEGATIVE_CELLS, JUNK_CELLS), SMALL),
        COLUMNS,
        RATES,
        st.sampled_from(["all", "dp", "lp", "greedy"]),
    )
    def test_solve_small_cells(self, tmp_path_factory, data, column, rate, solver):
        rooms = write_rooms(tmp_path_factory, data)
        code, _, err = call_main(
            ["solve", rooms, "--column", column, "--rate", rate, "--solver", solver]
        )
        check_exit(code, err)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        rooms_files(st.one_of(SMALL_CELLS, HUGE_CELLS), st.one_of(SMALL, LARGE)),
        COLUMNS,
        RATES,
        st.sampled_from(["lp", "greedy"]),
    )
    def test_solve_huge_cells(self, tmp_path_factory, data, column, rate, solver):
        rooms = write_rooms(tmp_path_factory, data)
        code, _, err = call_main(
            ["solve", rooms, "--column", column, "--rate", rate, "--solver", solver]
        )
        check_exit(code, err)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        rooms_files(ANY_CELLS, st.one_of(SMALL, LARGE)),
        COLUMNS,
        RATES,
        st.sampled_from(["hlT", "blT"]),
        st.sampled_from(["random", "random", *SORT_KEYS, "specific-weight"]),
        st.integers(),
        st.sampled_from([None, None, None, "0.4", "1/2", "0", "1", "3/2", "x"]),
        st.integers(0, 5),
        st.sampled_from(["ceil", "floor"]),
    )
    def test_tree(
        self, tmp_path_factory, data, column, rate, tree, sort, seed, fraction,
        min_size, rounding,
    ):
        argv = [
            "tree", write_rooms(tmp_path_factory, data), "--column", column,
            "--rate", rate, "--tree", tree, "--sort", sort, f"--sort-seed={seed}",
            f"--min-size={min_size}", "--rounding", rounding,
        ]
        if fraction is not None:
            argv.append(f"--fraction={fraction}")
        code, out, err = call_main(argv)
        check_exit(code, err)
        if sort == "random" and seed < 0:
            assert code == 2
        if code == 0:
            assert out.splitlines()[-1].startswith("demand,")

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(), st.sampled_from(["hlT", "blT"]))
    def test_tree_any_random_sort_seed(self, seed, tree):
        code, out, err = call_main(
            ["tree", str(ROOMS_SAMPLE), "--tree", tree, "--sort", "random", f"--sort-seed={seed}"]
        )
        if seed < 0:
            assert (code, out) == (2, "")
            assert err.startswith("error: sort seed must be >= 0")
        else:
            assert code == 0
            assert out.splitlines()[-1].startswith("demand,633,")
