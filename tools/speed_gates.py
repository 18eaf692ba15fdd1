#!/usr/bin/env python3
"""Paired speed-ratio gates for the store-backed and batched sweep paths.

Runs one 16-point matrix (mcf and lbm x four models x store buffer 16/8,
scale 0.25) through the public ExperimentRunner API in five legs, against
stores in a temporary directory:

  legacy      one storeless runner per point (re-trace, own bundle)
  warm_store  one runner per point, warm trace store, no result cache
  batched     one run_batch, warm trace + bundle stores, no result cache
  ledger      the batched leg with a live JsonlLedger attached
  warm        one runner per point, warm trace store and result cache

Each of ten passes times every leg once, forward on even passes and
reversed on odd ones, so drift on a shared host hits both sides of a
ratio alike and, with as many forward as reversed passes, an order
effect between adjacent legs cancels in the median.  Each gate checks
the median over passes of its per-pass ratio.  Every leg must also be
what it claims (no retrace once warm, no simulation on the warm leg,
bundles loaded and never rebuilt) and resolve the same statistics as
the others.

Usage: python tools/speed_gates.py   (exit status 1 on a missed gate)
"""

import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.config import SpecGrid  # noqa: E402
from repro.harness import (ExperimentRunner, ResultCache,  # noqa: E402
                           TraceStore, spec_point)
from repro.obs.ledger import JsonlLedger  # noqa: E402
from repro.uarch import ALL_MODELS  # noqa: E402

SCALE = 0.25
PASSES = 10
GRID = SpecGrid.create(ALL_MODELS, {"core.store_buffer_entries": [16, 8]})
POINTS = [spec_point(workload, spec) for workload in ("mcf", "lbm")
          for spec in GRID.expand()]
# (name, value from one pass's leg walls, bound, the bound is a floor)
GATES = (
    ("warm vs legacy", lambda w: w["legacy"] / w["warm"], 1.5, True),
    ("warm_store vs legacy", lambda w: w["legacy"] / w["warm_store"], 1.05,
     True),
    ("batched vs warm_store", lambda w: w["warm_store"] / w["batched"], 1.2,
     True),
    ("ledger overhead %",
     lambda w: 100.0 * (w["ledger"] / w["batched"] - 1.0), 5.0, False),
)


def _runner(tmp, traces=True, results=False, ledger=None):
    return ExperimentRunner(
        scale=SCALE, ledger=ledger,
        cache=ResultCache(tmp / "results" if results else None),
        trace_store=TraceStore(tmp / "traces" if traces else None))


def _per_point(tmp, **stores):
    runners = [_runner(tmp, **stores) for _ in POINTS]
    return [r.run_spec(p.workload, p.spec).stats.to_dict()
            for r, p in zip(runners, POINTS)], runners


def _batched(tmp, ledger=None):
    runner = _runner(tmp, ledger=ledger)
    out = runner.run_batch(POINTS)
    if ledger is not None:
        ledger.close()
    return [out[p].stats.to_dict() for p in POINTS], [runner]


def _check_counts(leg, runners):
    if leg != "legacy" and sum(r.functional_traces for r in runners):
        raise SystemExit("%s leg re-traced" % leg)
    if leg == "warm" and sum(r.points_simulated() for r in runners):
        raise SystemExit("warm leg simulated points")
    if leg in ("batched", "ledger") and [(r.precomputes_built,
                                          r.precomputes_loaded)
                                         for r in runners] != [(0, 2)]:
        raise SystemExit("%s leg rebuilt or missed a bundle" % leg)


def main():
    with tempfile.TemporaryDirectory(prefix="repro-speed-gates-") as name:
        tmp = Path(name)
        _runner(tmp, results=True).run_batch(POINTS)    # fill every store
        legs = {
            "legacy": lambda: _per_point(tmp, traces=False),
            "warm_store": lambda: _per_point(tmp),
            "batched": lambda: _batched(tmp),
            "ledger": lambda: _batched(tmp, JsonlLedger(
                tmp / "ledger.jsonl", command="speed_gates")),
            "warm": lambda: _per_point(tmp, results=True),
        }
        passes = []
        reference = None
        for n in range(PASSES):
            walls = {}
            for leg in (list(legs) if n % 2 == 0 else list(legs)[::-1]):
                gc.collect()    # no leg pays for another's garbage
                start = time.perf_counter()
                stats, runners = legs[leg]()
                walls[leg] = time.perf_counter() - start
                _check_counts(leg, runners)
                reference = reference or stats
                if stats != reference:
                    raise SystemExit("%s leg statistics diverged" % leg)
            passes.append(walls)
    missed = 0
    for name, value, bound, floor in GATES:
        q1, median, q3 = statistics.quantiles(
            [value(walls) for walls in passes], n=4, method="inclusive")
        ok = median >= bound if floor else median <= bound
        missed += not ok
        print("%-22s median %8.3f  q1 %8.3f  q3 %8.3f  %s %.2f  %s"
              % (name, median, q1, q3, ">=" if floor else "<=", bound,
                 "ok" if ok else "MISS"))
    print("legs (median s): " + "  ".join(
        "%s %.3f" % (leg, statistics.median(w[leg] for w in passes))
        for leg in passes[0]))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
