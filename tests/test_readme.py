"""The README's *Library use* block runs and its commented values hold, and its
`dcknap solve` example prints what it shows."""

import re
from fractions import Fraction
from pathlib import Path

from dcknap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs_as_commented():
    text = README.read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    comment = re.search(r"^triple = .*# (.*)$", block, re.M).group(1)
    expected = dict(pair.split("=") for pair in comment.split(", "))
    assert expected == {"lrs": "1595/113", "dps": "15", "gas": "16"}
    triple = namespace["triple"]
    for name, value in expected.items():
        assert getattr(triple, name) == Fraction(value)
    assert namespace["series"].dps[0] == triple.dps


def test_solve_example_prints_its_shown_output(monkeypatch, capsys):
    text = README.read_text()
    command, shown = re.search(r"```sh\n\$ dcknap (solve .*?)\n(.*?)```", text, re.S).groups()
    monkeypatch.chdir(README.parent)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == shown
