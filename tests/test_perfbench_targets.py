"""Every binding that perfbench/spans.py traces still exists in dcknap.

The benchmark skips a missing target silently (it lands in
`Tracer.absent`), so a renamed or deleted function would drop its metrics
without failing anything; this test makes that a tier-1 failure.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
