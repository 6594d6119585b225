"""One measured experiment in a fresh interpreter.

Run by run.py, never by hand.  The child imports ``dcknap.cli`` from the
checkout's ``src`` and parses the workload config (the set-up a user pays on
every CLI call), then writes ``ready`` to stdout so the parent can time the
set-up from process start.  Unless ``--probe`` is given it then runs
``dcknap.cli.main(["experiment", ...])``, optionally under the tracer, and
writes one JSON line with the exit code, wall time, peak RSS and versions.

    python3 perfbench/child.py CONFIG --out-dir DIR [--probe] [--trace-spans SPANS.csv]
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--trace-spans", help="trace the run and write its spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import dcknap
    import dcknap.cli

    if not Path(dcknap.__file__).resolve().is_relative_to(SRC):
        print(f"dcknap imported from {dcknap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    dcknap.cli.parse_config(Path(args.config).read_text())
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace_spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["experiment", args.config, "--out-dir", args.out_dir]
    # The CLI's own console line would mix with the JSON result on stdout.
    with contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        rc = dcknap.cli.main(argv)
        wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy

    result = {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "dcknap": dcknap.__version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["layer_self_s"] = tracer.layer_self_s()
        result["absent"] = tracer.absent
        tracer.write_spans(args.trace_spans)
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
