"""One pass of a workload in a fresh interpreter.

Usage (run by run.py, not by hand):
    python3 perfbench/child.py <spawn-monotonic-time>  < job.json

The job is a JSON object: ``argv_list`` (the CLI calls), ``trace_file``
(write a trace there, or null) and ``fault`` (a self-test hook).  The child
prints one JSON object: set-up time, each call's exit code, seconds,
captured output and output file size, peak RSS, and the time of a reference
loop run before the first call and after each call.
"""

import sys
import time

_SPAWNED = float(sys.argv[1])
import impartial.cli  # noqa: E402  -- set-up time is everything up to here

SETUP_S = time.monotonic() - _SPAWNED

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this interpreter
    runs right now on a host whose speed drifts with its neighbours' load."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(8_000):
            table[i & 1023] = (i * i) ^ (i >> 3)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _wrong_best_move(args) -> int:
    """Stand-in for cmd_best_move that calls every position a P-position."""
    print("P-position")
    return 0


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace_file"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if job["fault"] == "best-move":  # self-test hook: a known wrong answer
        impartial.cli.cmd_best_move = _wrong_best_move
    reference = [reference_s()]
    calls = []
    for argv in job["argv_list"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = impartial.cli.main(argv)
            except Exception:  # a crash is a failed call; the pass goes on
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - start
        output = argv[argv.index("--output") + 1] if "--output" in argv else None
        size = os.path.getsize(output) if output and os.path.exists(output) else 0
        calls.append({"code": code, "seconds": seconds, "stdout": out.getvalue(),
                      "stderr": err.getvalue(), "bytes_written": size})
        reference.append(reference_s())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(job["trace_file"])
    json.dump({"setup_s": SETUP_S, "calls": calls, "peak_rss_mb": peak_kb / 1024.0,
               "reference_s": reference,
               "python": platform.python_version(), "numpy": numpy.__version__}, sys.stdout)


if __name__ == "__main__":
    main()
