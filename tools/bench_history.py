#!/usr/bin/env python3
"""Append this commit's benchmark-of-record results to the perf history.

Runs ``perfbench/run.py --workload W --seed 1 --trace 0`` unmodified for
each of its three workloads and appends the JSON object on the last line
of its output, keyed by ``git rev-parse HEAD``, to
``benchmarks/results/BENCH_history.jsonl``.  ``dirty`` marks a
measurement of a working tree with uncommitted changes to tracked files.

Usage: python tools/bench_history.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "benchmarks" / "results" / "BENCH_history.jsonl"
WORKLOADS = ("sim_serial", "cold_parallel", "warm_rerun")


def _run(*argv):
    return subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def main():
    rev = _run("git", "rev-parse", "HEAD").strip()
    dirty = bool(_run("git", "status", "--porcelain", "--untracked-files=no"))
    for workload in WORKLOADS:
        out = _run(sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", "1", "--trace", "0")
        result = json.loads(out.strip().splitlines()[-1])
        with HISTORY.open("a") as handle:
            handle.write(json.dumps({"rev": rev, "dirty": dirty,
                                     "workload": workload, "result": result},
                                    sort_keys=True) + "\n")
        print("%s: correct %s, failed %s"
              % (workload, result["correct"], result["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
