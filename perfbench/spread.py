"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload play-queries --runs 10 [--first-seed 1] [--save FILE]

Runs run.py once per seed, then prints, for each end-to-end metric, the
median and quartiles of the runs and the interquartile range as a share of
the median, next to the metric's bound from BENCHMARK.json.  A benchmark is
steady when every spread except that of setup_s is below a third of its
bound.  ``--save`` writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "context": lines[0], **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:>12}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.3f} bound {bound}{flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
