"""Benchmark of the ``impartial`` CLI: four workloads, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each pass of a workload runs in a fresh single-threaded interpreter
(child.py), which drives ``impartial.cli.main(argv)`` in-process with
stdout captured and times each call from outside the package.  Passes
repeat until ``--seconds`` is used up; every answer is checked against
formulas in workloads.py.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run.  With ``--trace 1`` untraced and traced passes alternate on the same
inputs, and the metrics are the per-layer ones from tracing.py plus the
tracing overhead.  Lines before the last one give the machine context,
each metric with its sample count, and the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}
SETUP_PROBES = 5  # extra interpreters per run that only import the package
# The host's speed drifts by a third or more within a second with its
# neighbours' load, far beyond the bounds.  Each child times a fixed
# pure-Python loop before its first call and after each call
# (child.reference_s); each call's time is scaled by REFERENCE_NOMINAL_S over
# the mean of the loop times around it, giving seconds at the loop's nominal
# speed on a 2-core x86_64 machine running Python 3.11.
REFERENCE_NOMINAL_S = 0.0015
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong answer)."""


def spawn(argv_list: list, trace_file: str | None = None, fault: str | None = None) -> dict:
    """Run child.py on one job and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    job = json.dumps({"argv_list": argv_list, "trace_file": trace_file, "fault": fault})
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), repr(start)], input=job,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def machine_context(child: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": child["python"], "numpy": child["numpy"], "commit": commit,
            "machine": platform.machine()}


def scaled_setup(child: dict) -> float:
    return child["setup_s"] * REFERENCE_NOMINAL_S / child["reference_s"][0]


def tail(values: list[float]) -> float:
    """The 95th percentile when at least ten samples lie beyond it, else the
    median: a batch run has too few passes for a steady tail."""
    if len(values) < 200:
        return statistics.median(values)
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", fault: str | None = None) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and report lines."""
    OUT.mkdir(exist_ok=True)
    spawn([])  # warm-up: compiles bytecode and fills the page cache, not counted
    setup = [scaled_setup(spawn([])) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    durations: list[float] = []
    context = None
    end = time.monotonic() + seconds
    while True:
        tracing_pass = trace and len(traced) < len(plain)
        index = len(plain) - 1 if tracing_pass else len(plain)  # a traced pass repeats the inputs
        calls = workloads.passes(workload, seed, index, scale, str(OUT))
        trace_file = str(OUT / f"trace-{workload}.json") if tracing_pass else None
        started = time.monotonic()
        child = spawn([c["argv"] for c in calls], trace_file, fault)
        context = context or machine_context(child)
        for call, result in zip(calls, child["calls"]):
            problem = workloads.check(call, result["code"], result["stdout"])
            attempted += 1
            if problem:
                failed += 1
                errors.append(" | ".join([problem] + result["stderr"].strip().splitlines()[-1:]))
            if "output" in call and os.path.exists(call["output"]):
                os.remove(call["output"])
        ref = child["reference_s"]  # one before the first call and one after each call
        latencies = [r["seconds"] * 2 * REFERENCE_NOMINAL_S / (before + after)
                     for r, before, after in zip(child["calls"], ref, ref[1:])]
        speed = REFERENCE_NOMINAL_S / statistics.mean(ref)
        record = {
            "setup_s": scaled_setup(child),
            "speed": speed,
            "wall_s": sum(latencies),
            "latencies": latencies,
            "items": sum(workloads.items(c) for c in calls),
            "peak_rss_mb": child["peak_rss_mb"],
            "bytes_written": sum(r["bytes_written"] for r in child["calls"]),
        }
        if tracing_pass:
            with open(trace_file) as fh:
                layers = tracing.layer_metrics(json.load(fh))
            record["layers"] = {k: v * speed if tracing.PER_LAYER[k] == "s" else v
                                for k, v in layers.items()}
            traced.append(record)
        else:
            plain.append(record)
        durations.append(time.monotonic() - started)
        enough = plain and (traced or not trace)
        if enough and time.monotonic() + statistics.median(durations) > end:
            break

    speeds = [r["speed"] for r in plain + traced]
    lines = [f"context: {json.dumps(context)}",
             f"workload: {workload} seed={seed} passes={len(plain)} traced_passes={len(traced)}",
             f"speed: times are scaled by {statistics.median(speeds):.4g} "
             f"(range {min(speeds):.4g}-{max(speeds):.4g}) to the reference loop's nominal speed"]
    if trace:
        metrics = {}
        for name in tracing.PER_LAYER:
            if name == "cli.table.bytes_written":
                samples = [r["bytes_written"] for r in traced]
            elif name == "trace.overhead_s":
                samples = [statistics.median(r["wall_s"] for r in traced)
                           - statistics.median(r["wall_s"] for r in plain)]
            else:
                samples = [r["layers"][name] for r in traced]
            metrics[name] = (statistics.median(samples), tracing.PER_LAYER[name], len(samples))
    else:
        latencies = [t for r in plain for t in workloads.requests(workload, r["latencies"])]
        setup += [r["setup_s"] for r in plain]
        metrics = {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (statistics.median(r["wall_s"] for r in plain), len(plain)),
            "items_per_s": (sum(r["items"] for r in plain) / sum(r["wall_s"] for r in plain),
                            len(plain)),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), len(plain)),
            "latency_p50_ms": (statistics.median(latencies) * 1000, len(latencies)),
            "latency_tail_ms": (tail(latencies) * 1000, len(latencies)),
        }
        metrics = {k: (v, END_TO_END[k], n) for k, (v, n) in metrics.items()}
    for name, (value, unit, n) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit} (n={n})")
    lines.append(f"fail_ratio: {failed / attempted:.6g} ({failed}/{attempted} operations failed)")
    lines += [f"failure: {e}" for e in errors[:10]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "impartial" / "__init__.py").is_file():
        print(f"error: no impartial package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
