"""Every binding that perfbench/spans.py traces still exists in dcknap.

The benchmark skips a missing target silently (it lands in
`Tracer.absent`), so a renamed or deleted function would drop its metrics
without failing anything; this test makes that a tier-1 failure.
"""

from conftest import load_perfbench


def test_every_traced_target_resolves():
    tracer = load_perfbench("spans").Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
