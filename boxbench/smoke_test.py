#!/usr/bin/env python3
"""Schema smoke test for the boxagg benchmark.

    python3 boxbench/smoke_test.py

Runs every workload named in BENCHMARK.json at tiny scale (--tiny: a few
thousand objects, one set-up, a short loop and traced replay), untraced and
traced, through boxbench/run.py, and checks that the last stdout line is the
result object with exactly the keys correct/attempted/failed/metrics, that
the answers were correct, and that the metrics are exactly the end-to-end
ones (untraced) or the per-layer ones (traced), each with its declared unit.
Exits 1 on the first violation. Takes about a minute once built.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check(result: dict, specs: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    assert set(metrics) == set(want), (
        f"{label}: missing {sorted(set(want) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics[name]
        assert got["unit"] == unit, f"{label}: {name} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {name}"
        assert math.isfinite(got["value"]), f"{label}: {name} not finite"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{w['name']} trace={trace}"
            try:
                check(run(w["name"], trace), specs, label)
            except AssertionError as e:
                print(f"FAIL {label}: {e}", file=sys.stderr)
                return 1
            print(f"ok   {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
