"""Golden `--out-dir` snapshots of four small experiment grids.

Each directory under tests/data/golden/ holds the complete output of
`dcknap experiment` for the config of the same name below.  Refactors must
keep every file byte-identical; a deliberate output change regenerates a
snapshot with

    PYTHONPATH=src python -m dcknap.cli experiment CONFIG --out-dir tests/data/golden/NAME

The grids pin what the single-tree tests do not: the balanced tree, the
head-fraction, occupancy and rate sweeps (each rate is a new instance with
new specific-weight ranks), the hlT/blT l1 comparison, the seeded random sort
key, the binomial sampler and floor rounding.
"""

import pytest

from dcknap.cli import main
from conftest import DATA_DIR

GOLDEN_DIR = DATA_DIR / "golden"

_BASE = "n_rooms=32\nrealizations=3\nmin_size=4\nmaster_seed=11\n"

GOLDEN_CONFIGS = {
    "both_o": _BASE + "tree_alg=both\nsweep=o\n",
    "both_r": _BASE + "tree_alg=both\nsweep=r\ndist=binomial\nrounding=floor\n",
    "both_s": _BASE + "tree_alg=both\nsweep=s\n",
    "hlT_f": _BASE + "tree_alg=hlT\nsweep=f\n",
}


def _tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_outputs_match_golden_snapshot(name, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(GOLDEN_CONFIGS[name])
    out_dir = tmp_path / "out"
    assert main(["experiment", str(config), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    expected = _tree_bytes(GOLDEN_DIR / name)
    actual = _tree_bytes(out_dir)
    assert sorted(actual) == sorted(expected)
    for filename, content in expected.items():
        assert actual[filename] == content, f"{name}/{filename} differs"


def test_snapshots_cover_the_untested_paths():
    both = _tree_bytes(GOLDEN_DIR / "both_s")
    assert len(both) == 28
    assert "l1_comparison.csv" in both
    assert b"random" in both["avg_blT_DPS.csv"]
    assert len(_tree_bytes(GOLDEN_DIR / "hlT_f")) == 14
    assert len(_tree_bytes(GOLDEN_DIR / "both_o")) == 28
    assert len(_tree_bytes(GOLDEN_DIR / "both_r")) == 28
