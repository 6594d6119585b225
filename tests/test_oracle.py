"""`dcknap experiment`'s plot_data.csv against the benchmark's independent
oracle (perfbench/oracle.py), which rebuilds the file without dcknap: its
own head-left trees built from levels, a cost-indexed DP and exact means.

The oracle covers what the benchmark's workloads use: hlT with the default
head fraction and ceil rounding, uniform or binomial rooms, no sweep or
`sweep=s`.  Blocks of one to three trees, and short last blocks, come from
a patched `solvers.BLOCK_ROOMS`.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dcknap import dctree, solvers
from dcknap.cli import main
from dcknap.solvers import SORT_KEYS
from conftest import load_perfbench

expected_plot_data = load_perfbench("oracle").expected_plot_data


@st.composite
def oracle_configs(draw):
    """A small experiment the oracle supports: (config text, trees per
    block, (rooms, min_size))."""
    n = draw(st.integers(2, 70))
    min_size = draw(st.integers(1, 8))
    lines = [
        f"n_rooms={n}",
        f"dist={draw(st.sampled_from(('uniform', 'binomial')))}",
        f"occupancy={draw(st.fractions(Fraction(1, 100), 1, max_denominator=100))}",
        f"rate={draw(st.integers(1, 200))}",
        "tree_alg=hlT",
        f"sort={draw(st.sampled_from(SORT_KEYS))}",
        f"min_size={min_size}",
        f"realizations={draw(st.integers(1, 9))}",
        f"master_seed={draw(st.integers(0, 2**63))}",
    ]
    if draw(st.booleans()):
        lines.append("sweep=s")
    return "\n".join(lines) + "\n", draw(st.integers(1, 3)), (n, min_size)


def _plot_data(config_text: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "experiment.cfg", Path(tmp) / "out"
        config.write_text(config_text)
        assert main(["experiment", str(config), "--out-dir", str(out_dir)]) == 0
        return (out_dir / "plot_data.csv").read_text()


@settings(max_examples=200, deadline=None)
@given(oracle_configs())
def test_plot_data_equals_the_oracle(config):
    config_text, rows, (n, min_size) = config
    (places, *_), _ = dctree._shape("hlT", n, Fraction(1, 2), min_size)
    block_rooms = solvers.BLOCK_ROOMS
    solvers.BLOCK_ROOMS = rows * len(places)
    try:
        assert _plot_data(config_text) == expected_plot_data(config_text)
    finally:
        solvers.BLOCK_ROOMS = block_rooms
