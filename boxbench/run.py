#!/usr/bin/env python3
"""Build and run the boxagg benchmark.

    python3 boxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
boxbench/ (which compiles ../src) into .bench_build/boxbench; later calls
rebuild incrementally. Build output goes to stderr, so the benchmark's
stdout ends with its one-line JSON result. Index files live in .bench_run/
for the duration of a run; traced runs leave chrome://tracing span files in
.bench_out/. Extra arguments are passed to the benchmark binary (see
README.md). Exits non-zero, without a result line, when the build fails.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "boxbench")
BINARY = os.path.join(BUILD, "boxbench")
RUN_TIMEOUT_S = 175


def build() -> bool:
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "boxbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv: list[str]) -> int:
    if not build():
        return 2
    cmd = [BINARY, *argv,
           "--run-dir", os.path.join(ROOT, ".bench_run"),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
