"""Self-test of the benchmark harness at toy sizes (about a minute).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both modes; that the seed alone decides the inputs; and that
wrong answers are counted as failures, never dropped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_every_metric_is_emitted():
    assert [w["name"] for w in SPEC["workloads"]] == workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.run_workload(name, 7, 0.2, trace, scale="toy")
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == _expected(kind), (name, kind)
            if kind == "end_to_end":
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
            assert any(line.startswith("fail_ratio: 0 ") for line in lines)


def test_seed_decides_the_inputs():
    def argvs(seed):
        return [c["argv"] for c in workloads.passes("play-queries", seed, 0, "full", "out")]

    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)


def test_wrong_best_move_is_counted():
    result, lines = run.run_workload("play-queries", 7, 0.2, False, scale="toy", fault="best-move")
    assert result["failed"] > 0 and not result["correct"]
    assert any(line.startswith("fail_ratio: ") and not line.startswith("fail_ratio: 0 ")
               for line in lines)


def test_checks_reject_wrong_answers():
    grundy = {"argv": ["grundy"], "expect": {"query": ["grundy", "nim", [1, 2]]}}
    assert workloads.check(grundy, 0, "closed-form: 3\nengine: 3\noutcome: N\n") is None
    assert workloads.check(grundy, 0, "closed-form: 0\nengine: 0\noutcome: P\n")
    assert workloads.check(grundy, 2, "closed-form: 3\nengine: 3\noutcome: N\n")
    move = {"argv": ["best-move"], "expect": {"query": ["best-move", "delete-nim", [3, 2]]}}
    assert workloads.check(move, 0, "2,0\n") is None  # (2, 0) has value 0
    assert workloads.check(move, 0, "0,0\n")  # value 0, but not an option of (3, 2)
    size = {"delete-nim": 4}
    sweep = {"argv": ["verify"], "expect": {"sweep": size}}
    report = {"name": "delete-nim", "bound": 4, "checked": 15, "mismatches": [], "passed": True}
    assert workloads.check(sweep, 0, json.dumps([report])) is None
    assert workloads.check(sweep, 0, json.dumps([dict(report, checked=14)]))
    assert workloads.check(sweep, 0, "not json")


if __name__ == "__main__":
    for test in (test_every_metric_is_emitted, test_seed_decides_the_inputs,
                 test_wrong_best_move_is_counted, test_checks_reject_wrong_answers):
        test()
        print(f"ok {test.__name__}")
