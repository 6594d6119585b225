"""The README's *Library use* block runs and its commented values hold."""

import re
from fractions import Fraction
from pathlib import Path

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
