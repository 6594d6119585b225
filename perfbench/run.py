"""dcknap benchmark: time the ``experiment`` command on fixed workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The seed is the experiment's ``master_seed`` (default 2024).  Each sample
runs ``dcknap.cli.main(["experiment", CONFIG, ...])`` in a fresh interpreter
(perfbench/child.py) and checks its ``--out-dir``: ``plot_data.csv`` must
equal the text perfbench/oracle.py computes independently, every sample of a
run must give the same digest of all files, and at the default seed that
digest must equal the committed one in perfbench/reference.json.  Samples
repeat until the next one would end after ``--seconds``; a sample that
takes longer than CHILD_TIMEOUT_S is killed and counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics as medians over its
samples: ``wall_s``, ``trees_per_s`` and ``peak_rss_mb``, and ``setup_s``
(interpreter start, import of dcknap.cli and config parsing) over a fixed
number of set-up-only probes spread evenly over the run.  ``failed_frac``
is printed beside them and is the ``failed``/``attempted`` pair of the
result line.  With ``--trace 1`` it alternates untraced and traced samples
and reports the per-layer metrics of perfbench/spans.py: medians for times,
and counts that must repeat exactly across traced samples.

Every run writes perfbench/results/<workload>-seed<N>-trace<T>.json with the
run record (machine, versions, commit, seed, config), every sample and the
metrics; a traced run also writes the last traced sample's spans as CSV.
The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import expected_plot_data, trees_per_experiment
from spans import LAYERS, METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
WORK = HERE / ".work"

DEFAULT_SEED = 2024
SETUP_PROBES = 30  # per --trace 0 run, whatever the workload's sample time
CHILD_TIMEOUT_S = 90  # a hung sample still ends a 60-second run within 3 minutes

# The ROADMAP's reference setting: 512 uniform rooms at occupancy 0.9, rate 54,
# head-left tree by specific weight, min_size 4, 50 realizations.
_REFERENCE = """\
n_rooms=512
dist=uniform
occupancy=0.9
rate=54
tree_alg=hlT
sort=specific-weight
min_size=4
realizations=50
"""


# Each workload is experiment config text (key=value lines); the run appends
# master_seed=<seed>.  Why each workload exists is written once, in
# BENCHMARK.json.
WORKLOADS = {
    "ref_hlT": _REFERENCE,
    "dp_heavy": """\
n_rooms=1024
dist=binomial
occupancy=0.3
rate=54
tree_alg=hlT
min_size=32
realizations=2
sweep=s
""",
}

END_TO_END_UNITS = {"wall_s": "s", "trees_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name: unit for name, (_, unit, _) in METRICS.items()}
LAYER_UNITS.update({"cli.bytes_out": "B", "trace.overhead": "ratio"})
LAYER_KINDS = {name: kind for name, (_, _, kind) in METRICS.items()}
LAYER_KINDS.update({"cli.bytes_out": "counted", "trace.overhead": "timed"})


# ---------------------------------------------------------------------------
# outputs


def digest_dir(path: Path) -> tuple[str, dict[str, str]]:
    """sha256 over (name, content) of every file, and per-file sha256s."""
    whole = hashlib.sha256()
    files = {}
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        name = file.relative_to(path).as_posix()
        data = file.read_bytes()
        files[name] = hashlib.sha256(data).hexdigest()
        whole.update(f"{name}\0{len(data)}\0".encode())
        whole.update(data)
    return whole.hexdigest(), files


# ---------------------------------------------------------------------------
# children


@dataclass
class Sample:
    setup_s: float | None
    ok: bool
    result: dict | None
    error: str
    digest: str = ""
    files: dict | None = None
    bytes_out: int = 0


def spawn(args: list[str]) -> Sample:
    """Run child.py; set-up time is process start until its 'ready' line.

    A child still running after CHILD_TIMEOUT_S is killed, also one that
    hangs before 'ready'.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = time.perf_counter() - start if ready else None
        out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if time.perf_counter() - start >= CHILD_TIMEOUT_S:
        return Sample(None, False, None, f"timed out after {CHILD_TIMEOUT_S} s")
    result = None
    if out.strip():
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0 or not ready:
        tail = err.strip().splitlines()[-1:] or [""]
        return Sample(setup, False, result, f"exit {proc.returncode}: {tail[0]}")
    return Sample(setup, True, result, "")


def first_difference(expected: str, actual: str) -> str:
    for number, (want, got) in enumerate(zip(expected.splitlines(), actual.splitlines()), 1):
        if want != got:
            return f"line {number}: {got!r}, oracle {want!r}"
    return f"{len(actual.splitlines())} lines, oracle {len(expected.splitlines())}"


def run_sample(config, out_dir, expected, plot_data, spans_path=None) -> Sample:
    args = [str(config), "--out-dir", str(out_dir)]
    if spans_path is not None:
        args += ["--trace-spans", str(spans_path)]
    sample = spawn(args)
    if sample.ok and sample.result is None:
        sample.ok, sample.error = False, "no result line"
    if sample.ok:
        sample.digest, sample.files = digest_dir(out_dir)
        sample.bytes_out = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        problems = []
        plot_file = out_dir / "plot_data.csv"
        actual = plot_file.read_text() if plot_file.is_file() else ""
        if actual != plot_data:
            problems.append(f"plot_data.csv differs from oracle.py at {first_difference(plot_data, actual)}")
        if expected and sample.digest != expected:
            problems.append(f"digest {sample.digest[:16]} != expected {expected[:16]}")
        if problems:
            sample.ok, sample.error = False, "; ".join(problems)
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


# ---------------------------------------------------------------------------
# run record


def source_digest() -> str:
    whole = hashlib.sha256()
    for file in sorted(SRC.rglob("*.py")):
        whole.update(file.relative_to(SRC).as_posix().encode() + b"\0")
        whole.update(file.read_bytes())
    return whole.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_record(name, seed, config_text, versions) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "config": config_text,
        "trees_per_experiment": trees_per_experiment(config_text),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy", "unknown"),
        "dcknap": versions.get("dcknap", "unknown"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# metrics

def end_to_end(samples, setups, trees) -> dict[str, float]:
    good = [s.result for s in samples if s.ok]
    if not good or not setups:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "trees_per_s": statistics.median(trees / r["wall_s"] for r in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }


def per_layer(pairs) -> tuple[dict[str, float], list[str]]:
    """Medians of traced timings; counts must repeat exactly across samples."""
    traced = [t for _, t in pairs if t.ok]
    if not traced:
        return {}, []
    problems = []
    metrics = {}
    for name, (_, _, kind) in METRICS.items():
        values = [t.result["layers"][name] for t in traced if name in t.result["layers"]]
        if not values:
            continue  # the traced function is gone
        if kind == "timed":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs across traced samples: {sorted(set(values))}")
            metrics[name] = values[0]
    bytes_out = {t.bytes_out for t in traced}
    if len(bytes_out) != 1:
        problems.append(f"cli.bytes_out differs across traced samples: {sorted(bytes_out)}")
    metrics["cli.bytes_out"] = min(bytes_out)
    # Each traced sample runs right after its untraced partner, so the ratio
    # of a pair is measured at one machine speed.
    ratios = [t.result["wall_s"] / u.result["wall_s"] for u, t in pairs if u.ok and t.ok]
    if ratios:
        metrics["trace.overhead"] = statistics.median(ratios)
    return metrics, problems


def layer_shares(pairs) -> dict[str, float]:
    """Median share of all traced self time per layer and per solver step."""
    rows = []
    for _, t in pairs:
        if not t.ok:
            continue
        layers, self_s = t.result["layers"], t.result["layer_self_s"]
        total = sum(self_s.values())
        row = {layer: self_s[layer] / total for layer in LAYERS}
        scan = [layers.get(f"solvers.{k}.self_s") for k in ("sort", "lp", "greedy")]
        if None not in scan:
            row["sort+lp+greedy"] = sum(scan) / total
        if "solvers.dp.self_s" in layers:
            row["dp"] = layers["solvers.dp.self_s"] / total
        rows.append(row)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dcknap" / "cli.py").is_file():
        print(f"error: no dcknap sources under {SRC}", file=sys.stderr)
        return 2
    name = args.workload
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    config_text = WORKLOADS[name] + f"master_seed={args.seed}\n"
    expected = ""
    if args.seed == DEFAULT_SEED:
        references = json.loads((HERE / "reference.json").read_text())
        expected = references[name]["digest"]

    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    config = work / "experiment.cfg"
    config.write_text(config_text)
    out_dir = work / "out"
    spans_path = RESULTS / f"{name}-seed{args.seed}-spans.csv"

    start = time.perf_counter()
    plot_data = expected_plot_data(config_text)
    samples: list[Sample] = []  # every experiment run, in order
    pairs: list[tuple[Sample, Sample]] = []  # (untraced, traced), --trace 1 only
    setups: list[float] = []
    probes: list[Sample] = []
    cycle_s: list[float] = []

    def probe_until(count):
        while len(probes) < count:
            probes.append(spawn([str(config), "--out-dir", str(out_dir), "--probe"]))
            if probes[-1].ok:
                setups.append(probes[-1].setup_s)

    try:
        while True:
            cycle_start = time.perf_counter()
            if args.trace:
                untraced = run_sample(config, out_dir, expected, plot_data)
                expected = expected or untraced.digest
                traced = run_sample(config, out_dir, expected, plot_data, spans_path)
                pairs.append((untraced, traced))
                samples += [untraced, traced]
            else:
                sample = run_sample(config, out_dir, expected, plot_data)
                expected = expected or sample.digest
                samples.append(sample)
                # Spread the probes over the run, so that no one stretch of
                # machine speed sets their median.
                elapsed = time.perf_counter() - start
                probe_until(min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / args.seconds)))
            now = time.perf_counter()
            cycle_s.append(now - cycle_start)
            if samples[-1].error.startswith("timed out"):
                break
            if now - start + statistics.median(cycle_s) > args.seconds:
                break
        if not args.trace and not samples[-1].error.startswith("timed out"):
            probe_until(SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    failed = sum(not s.ok for s in samples)
    problems = [s.error for s in samples if not s.ok]
    problems += [f"set-up probe: {p.error}" for p in probes if not p.ok]
    if args.trace:
        metrics, count_problems = per_layer(pairs)
        problems += count_problems
        units, kinds = LAYER_UNITS, LAYER_KINDS
    else:
        metrics = end_to_end(samples, setups, trees_per_experiment(config_text))
        units, kinds = END_TO_END_UNITS, {}
    digests = sorted({s.digest for s in samples if s.digest})
    correct = failed == 0 and not problems and len(digests) == 1 and bool(metrics)

    versions = next((s.result for s in samples if s.result), {})
    record = run_record(name, args.seed, config_text, versions)
    print(f"# workload {name}: {why.get(name, '')}")
    print(
        f"# seed={args.seed} trace={args.trace} seconds={args.seconds:g} "
        f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']} "
        f"dcknap={record['dcknap']} commit={record['git_commit'][:12]}"
    )
    if not expected:
        reference_note = "no reference"
    elif digests == [expected]:
        reference_note = "matches reference.json" if args.seed == DEFAULT_SEED else "same in every sample"
    else:
        reference_note = "DIFFERS"
    print(f"# outputs digest={','.join(digests) or 'none'} ({reference_note})")
    good = len([s for s in samples if s.ok])
    good_traced = len([t for _, t in pairs if t.ok])
    for metric, value in metrics.items():
        if args.trace:
            note = kinds[metric]
            if note == "timed":
                note = f"median of {good_traced} traced samples"
        else:
            note = f"median of {len(setups) if metric == 'setup_s' else good}"
        print(f"{metric:28s} {value:16.6f} {units[metric]:6s} {note}")
    if args.trace:
        shares = layer_shares(pairs)
        print("# self-time share: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    else:
        print(f"{'failed_frac':28s} {failed / len(samples):16.6f} {'ratio':6s} {failed} of {len(samples)} runs")
    for problem in problems:
        print(f"# FAILED: {problem}")

    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "record": record,
        "failed_frac": failed / len(samples),
        "problems": problems,
        "digest": digests,
        "files": next((s.files for s in samples if s.files), {}),
        "kinds": kinds,
        "absent": next((t.result["absent"] for _, t in pairs if t.result), []),
        "samples": [{"setup_s": s.setup_s, "ok": s.ok, "error": s.error, **(s.result or {})} for s in samples],
        "setups": setups,
    }
    result_file = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({**result, **details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
