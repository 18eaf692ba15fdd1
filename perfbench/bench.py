"""Workloads, measurement and output checks of the benchmark of record.

Each workload is a closed loop: one client builds a fresh
:class:`~repro.harness.runner.ExperimentRunner`, submits its whole point
set, and waits for the answer before submitting the next batch.  A run
sets the workload up (and, for the cheap set-ups, repeats that to report
a median), then runs batches until ``--seconds`` have passed.  With
``--trace 1`` half as many seconds are then run again with the layer
wrappers of :mod:`layers` installed.

Every resolved point is checked against ``reference.json``: the SHA-256
of the point's canonical ``SimStats.to_json()``, keyed by program,
iteration count and canonical config spec.  ``--regen-reference``
rewrites that file from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness import experiments
from repro.harness.cache import (NullCache, PrecomputeStore, ResultCache,
                                 TraceStore)
from repro.harness.parallel import make_point
from repro.harness.resilience import RetryPolicy
from repro.harness.runner import ExperimentRunner
from repro.uarch import ModelKind
from repro.workloads import ALL_NAMES

import layers

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = HERE / "_work"
OUT_DIR = HERE / "_out"

#: Workload size.  At a quarter of each program's default iteration count
#: a point retires 3.8k-7.2k instructions and simulates in 0.15-0.55 s on
#: a 2-CPU host, so a batch takes 10 ms to 15 s and a 70-run session fits
#: in under an hour.
SCALE = 0.25
#: Worker processes of the parallel workloads (the reference host's nproc).
JOBS = 2
#: Interpreter start-ups, and cheap set-ups, per run; the median counts.
SETUP_REPEATS = 3
#: Per-task wall-clock budget of the parallel engine: ~30x a normal task.
TASK_TIMEOUT_S = 30.0
#: Deadline of one serial batch, which the serial path cannot pre-empt.
BATCH_DEADLINE_S = 60.0
#: Seconds into a run after which no batch starts and serial ones stop.
RUN_BUDGET_S = 160.0
#: Traced batches per run at most (bounds the in-memory span list).
MAX_TRACED_BATCHES = 20

MODELS = (ModelKind.BASELINE, ModelKind.NOSQ, ModelKind.DMDP,
          ModelKind.PERFECT)
#: bzip2, namd and milc predicate heavily; mcf and lbm are memory-bound
#: with long cycle-skip spans; h264ref has the highest IPC.
SERIAL_PROGRAMS = ("bzip2", "namd", "milc", "mcf", "lbm", "h264ref")
SB_SIZES = (16, 8)
EXPERIMENTS = ("fig12_speedup", "table4_load_exec_time",
               "table5_lowconf_exec_time", "table6_mpki",
               "table7_reexec_stalls")

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("retired_kips", "kips"),
    ("point_p50_s", "s"), ("point_p75_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "frac"),
)

_COUNTS = "count"
PER_LAYER = (
    ("workloads.build_s", "s"), ("workloads.builds", _COUNTS),
    ("kernel.trace_s", "s"), ("kernel.traces", _COUNTS),
    ("kernel.trace_instr", _COUNTS), ("kernel.precompute_s", "s"),
    ("kernel.precomputes", _COUNTS),
    ("harness.cache.trace_load_s", "s"),
    ("harness.cache.trace_hits", _COUNTS),
    ("harness.cache.trace_misses", _COUNTS),
    ("harness.cache.trace_put_s", "s"),
    ("harness.cache.precompute_load_s", "s"),
    ("harness.cache.precompute_hits", _COUNTS),
    ("harness.cache.precompute_put_s", "s"),
    ("harness.cache.bytes_written", "B"),
    ("harness.cache.result_get_s", "s"),
    ("harness.cache.result_hits", _COUNTS),
    ("harness.cache.result_misses", _COUNTS),
    ("harness.cache.result_put_s", "s"), ("harness.cache.key_s", "s"),
    ("config.to_params_s", "s"), ("config.from_overrides_s", "s"),
    ("uarch.setup_s", "s"), ("uarch.run_s", "s"), ("uarch.points", _COUNTS),
    ("uarch.retired_instr", _COUNTS), ("uarch.sim_cycles", _COUNTS),
    ("uarch.kips", "kips"), ("uarch.us_per_instr", "us"),
) + tuple(("uarch.model." + name, _COUNTS)
          for name in layers.MODEL_COUNTERS) + (
    ("energy.report_s", "s"),
    ("harness.parallel.run_points_s", "s"),
    ("harness.parallel.worker_busy_s", "s"),
    ("harness.parallel.worker_idle_s", "s"),
    ("harness.parallel.tasks", _COUNTS),
    ("harness.parallel.retried", _COUNTS),
    ("harness.parallel.timed_out", _COUNTS),
    ("harness.parallel.failed", _COUNTS),
    ("harness.runner.memo_hits", _COUNTS),
) + tuple((layer + ".self_s", "s") for layer in layers.LAYERS) + tuple(
    (layer + ".worker_self_s", "s") for layer in layers.LAYERS
    if layer != "harness.experiments") + (
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.remainder_s", "s"),
    ("trace.batches", _COUNTS), ("point_samples", _COUNTS),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


class PreconditionFailed(BenchError):
    """A workload did work that would skew its numbers."""


class DeadlineExceeded(Exception):
    """Raised by SIGALRM inside a serial batch that overran its deadline.

    An ``Exception`` on purpose: the runner's serial retry loop records it
    as that point's failure, and the repeating timer then fails each
    remaining point of the batch within 50 ms.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded("serial batch deadline passed")


def stats_digest(stats) -> str:
    return hashlib.sha256(stats.to_json().encode()).hexdigest()


def rows_digest(result) -> str:
    """Digest of an experiment's per-program rows, independent of order."""
    return hashlib.sha256(json.dumps(sorted(result.rows)).encode()
                          ).hexdigest()


def point_key(runner: ExperimentRunner, workload: str, spec) -> str:
    return "%s|%d|%s" % (workload, runner.iterations(workload),
                         spec.canonical_json())


# -- workloads -----------------------------------------------------------------

class Workload:
    """One closed-loop point set and the stores it starts from."""

    name = ""
    jobs = 1
    setup_repeats = SETUP_REPEATS

    def __init__(self, work: Path, seed: int):
        self.stores = work / "stores"
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def make_runner(self, index: int) -> ExperimentRunner:
        raise NotImplementedError

    def submit(self, runner: ExperimentRunner):
        """The timed call: submit the batch and wait for every answer."""
        raise NotImplementedError

    def resolved(self, runner: ExperimentRunner, submitted) -> Dict:
        """{point key: SimStats} of the points the batch resolved."""
        return {point_key(runner, p.workload, p.spec): result.stats
                for p, result in submitted.items()}

    def expected(self, runner: ExperimentRunner) -> List[str]:
        return [point_key(runner, p.workload, p.spec) for p in self.points]

    def violation(self, runner: ExperimentRunner) -> Optional[str]:
        return None

    def rows_mismatched(self, submitted, reference) -> int:
        return 0

    def after_batch(self, index: int) -> None:
        pass

    def order(self) -> str:
        return ", ".join("%s/%s%s" % (p.workload, p.model.value,
                                      "".join("/%s=%s" % kv
                                              for kv in p.overrides))
                         for p in self.points[:3]) + ", ..."


class SimSerial(Workload):
    """The serial hot loop: stores filled, result cache off, so nearly all
    of a batch is ``Simulator.run`` at 8 configs per shared trace."""

    name = "sim_serial"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.points = [make_point(name, model, store_buffer_entries=size)
                       for name in SERIAL_PROGRAMS for model in MODELS
                       for size in SB_SIZES]
        self.rng.shuffle(self.points)

    def _runner(self) -> ExperimentRunner:
        return ExperimentRunner(
            scale=SCALE, jobs=1, cache=NullCache(),
            trace_store=TraceStore(root=self.stores),
            precompute_store=PrecomputeStore(root=self.stores),
            policy=RetryPolicy(retries=0), keep_going=True)

    def setup(self):
        shutil.rmtree(self.stores, ignore_errors=True)
        runner = self._runner()
        for name in SERIAL_PROGRAMS:
            runner.precompute_for(name)

    def make_runner(self, index):
        return self._runner()

    def submit(self, runner):
        return runner.run_batch(self.points)

    def violation(self, runner):
        if runner.functional_traces:
            return ("%d functional trace(s) ran in the timed part; the "
                    "trace store should have served every program"
                    % runner.functional_traces)
        return None


class ColdParallel(Workload):
    """A cold suite at ``--jobs 2``: every store empty, so a batch pays
    for tracing, precompute builds, store writes, worker spawn and IPC."""

    name = "cold_parallel"
    jobs = JOBS

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.points = [make_point(name, model) for name in ALL_NAMES
                       for model in (ModelKind.NOSQ, ModelKind.DMDP)]
        self.rng.shuffle(self.points)

    def setup(self):
        # Builds the programs and hashes the program's sources (the store
        # version keys), which every later runner reuses.
        runner = ExperimentRunner(scale=SCALE,
                                  cache=ResultCache(root=self.stores / "setup"))
        for name in ALL_NAMES:
            runner.program(name)

    def make_runner(self, index):
        return ExperimentRunner(
            scale=SCALE, jobs=JOBS,
            cache=ResultCache(root=self.stores / ("cold-%d" % index)),
            policy=RetryPolicy(timeout=TASK_TIMEOUT_S, retries=0),
            keep_going=True)

    def submit(self, runner):
        return runner.run_batch(self.points)

    def after_batch(self, index):
        shutil.rmtree(self.stores / ("cold-%d" % index), ignore_errors=True)


class WarmRerun(Workload):
    """fig12 and tables 4-7 re-rendered from a filled result cache: cache
    reads, key derivation, config and assembly, with zero simulations, so
    a hot-loop change must leave it unchanged."""

    name = "warm_rerun"
    setup_repeats = 1      # the set-up simulates 84 points; once is enough

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.names = list(ALL_NAMES)
        self.rng.shuffle(self.names)
        self.experiments = list(EXPERIMENTS)
        self.rng.shuffle(self.experiments)
        self.points = [make_point(name, model) for name in self.names
                       for model in MODELS]

    def setup(self):
        shutil.rmtree(self.stores, ignore_errors=True)
        runner = ExperimentRunner(
            scale=SCALE, jobs=JOBS, cache=ResultCache(root=self.stores),
            policy=RetryPolicy(timeout=TASK_TIMEOUT_S, retries=0),
            keep_going=True)
        for name in EXPERIMENTS:
            getattr(experiments, name)(runner, ALL_NAMES)
        if runner.failure_log:
            raise BenchError("set-up could not fill the result cache: %s"
                             % ", ".join(f.reason
                                         for f in runner.failure_log))

    def make_runner(self, index):
        return ExperimentRunner(
            scale=SCALE, jobs=1, cache=ResultCache(root=self.stores),
            policy=RetryPolicy(retries=0), keep_going=True)

    def submit(self, runner):
        return [getattr(experiments, name)(runner, self.names)
                for name in self.experiments]

    def resolved(self, runner, submitted):
        # Every point is in the runner's memo once the experiments ran.
        return {point_key(runner, p.workload, p.spec):
                runner.run(p.workload, p.model).stats for p in self.points}

    def violation(self, runner):
        if runner.functional_traces or runner.points_simulated():
            return ("the warm re-run traced %d program(s) and simulated %d "
                    "point(s); the result cache should have served all"
                    % (runner.functional_traces, runner.points_simulated()))
        return None

    def rows_mismatched(self, submitted, reference):
        return sum(rows_digest(result) != reference["rows"].get(result.exp_id)
                   for result in submitted)

    def order(self):
        return "%s over %s, ..." % ("/".join(self.experiments),
                                    ", ".join(self.names[:3]))


WORKLOADS = {cls.name: cls for cls in (SimSerial, ColdParallel, WarmRerun)}


# -- measurement ---------------------------------------------------------------

class Batch:
    """Measurements and check results of one closed-loop batch."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.retired = 0
        self.point_seconds: List[float] = []
        self.attempted = self.failed = self.mismatched = 0


def _cpu_seconds() -> float:
    """User+system time of this process and its reaped workers.

    ``process_time`` has nanosecond resolution, where ``os.times`` counts
    10 ms ticks, longer than a whole warm_rerun batch.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _tree_bytes(root: Path) -> int:
    """Bytes of every file under ``root`` (what the stores hold)."""
    total = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


def run_one(workload: Workload, index: int, reference, deadline: float,
            tracer: Optional[layers.SpanTracer] = None) -> Batch:
    batch = Batch()
    serial = workload.jobs == 1
    stored = _tree_bytes(workload.stores) if tracer is not None else 0
    runner = submitted = None
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        if serial:
            signal.setitimer(signal.ITIMER_REAL,
                             max(0.001, min(start + BATCH_DEADLINE_S,
                                            deadline) - start), 0.05)
        runner = workload.make_runner(index)
        submitted = workload.submit(runner)
    except DeadlineExceeded:
        submitted = None
    finally:
        if serial:
            signal.setitimer(signal.ITIMER_REAL, 0)
        batch.wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    batch.cpu = _cpu_seconds() - cpu0

    if runner is None:
        raise BenchError("the batch deadline passed before a runner existed")
    problem = workload.violation(runner)
    if problem is not None:
        raise PreconditionFailed("%s: %s" % (workload.name, problem))
    expected = workload.expected(runner)
    got = workload.resolved(runner, submitted) if submitted else {}
    points = reference["points"]
    batch.attempted = len(expected)
    for key in expected:
        stats = got.get(key)
        if stats is None:
            batch.failed += 1
        elif stats_digest(stats) != points.get(key):
            batch.failed += 1
            batch.mismatched += 1
        else:
            batch.retired += stats.instructions
    if submitted:
        batch.mismatched += workload.rows_mismatched(submitted, reference)
    batch.point_seconds = [p.seconds for p in runner.point_log]
    if tracer is not None:
        tracer.counters["harness.cache.bytes_written"] += max(
            0, _tree_bytes(workload.stores) - stored)
    workload.after_batch(index)
    return batch


def measure(workload: Workload, seconds: float, reference, deadline: float,
            first_index: int = 0,
            tracer: Optional[layers.SpanTracer] = None) -> List[Batch]:
    """Run whole batches back to back for about ``seconds``.

    Another batch starts while its expected end (the mean batch so far,
    checks included) overshoots the window by less than half a batch, so a
    run measures ``seconds`` give or take half a batch, and at least one.
    """
    batches: List[Batch] = []
    start = time.perf_counter()
    while True:
        batches.append(run_one(workload, first_index + len(batches),
                               reference, deadline, tracer))
        now = time.perf_counter()
        typical = (now - start) / len(batches)
        if (now - start + typical / 2 >= seconds or now >= deadline
                or (tracer is not None
                    and len(batches) >= MAX_TRACED_BATCHES)):
            return batches


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3


def end_to_end_metrics(batches: List[Batch], setup_s: float
                       ) -> Dict[str, float]:
    samples = [s for b in batches for s in b.point_seconds]
    p50, p75 = _quartiles(samples) if samples else (0.0, 0.0)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": statistics.median(b.wall for b in batches),
        "setup_s": setup_s,
        "retired_kips": statistics.median(b.retired / b.wall / 1000.0
                                          for b in batches),
        "point_p50_s": p50,
        "point_p75_s": p75,
        "cpu_s": statistics.median(b.cpu for b in batches),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def layer_metrics(tracer: layers.SpanTracer, traced: List[Batch],
                  untraced: List[Batch]) -> Dict[str, float]:
    """Per-batch means of the traced run's counters and self times."""
    n = len(traced)
    counters = tracer.counters
    out = {name: counters.get(name, 0.0) / n for name, _ in PER_LAYER}
    run_s = counters.get("uarch.run_s", 0.0)
    retired = counters.get("uarch.retired_instr", 0.0)
    out["uarch.kips"] = retired / run_s / 1000.0 if run_s else 0.0
    out["uarch.us_per_instr"] = run_s * 1e6 / retired if retired else 0.0
    out["harness.parallel.worker_idle_s"] = (
        counters.get("harness.parallel.worker_slots_s", 0.0)
        - counters.get("harness.parallel.worker_busy_s", 0.0)) / n
    for layer, seconds in tracer.self_times(tracer.spans).items():
        out[layer + ".self_s"] = seconds / n
    for layer, seconds in tracer.self_times(tracer.worker_spans).items():
        if layer != "harness.experiments":
            out[layer + ".worker_self_s"] = seconds / n
    traced_wall = statistics.fmean(b.wall for b in traced)
    untraced_wall = statistics.fmean(b.wall for b in untraced)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.remainder_s"] = traced_wall - tracer.covered() / n
    out["trace.batches"] = n
    out["point_samples"] = sum(len(b.point_seconds) for b in untraced)
    return out


def _format(metrics: Dict[str, float], units) -> Dict[str, dict]:
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units}


def _print_shares(metrics: Dict[str, float]) -> None:
    wall = metrics["trace.wall_s"]
    print("share of traced wall_s %.4f s by layer self time:" % wall)
    for layer in layers.LAYERS:
        print("  %-22s %6.1f%%" % (layer,
                                    100.0 * metrics[layer + ".self_s"] / wall))
    print("  %-22s %6.1f%%" % ("(untraced remainder)",
                                100.0 * metrics["trace.remainder_s"] / wall))


def startup_seconds() -> float:
    """Median time to start an interpreter and import the benchmark.

    Measured in fresh child processes, since this process has already
    paid it once and the import cache cannot be undone in place.
    """
    code = ("import sys; sys.path[:0] = %r; import bench"
            % [str(HERE), str(HERE.parent / "src")])
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-c", code], check=True)
        except subprocess.CalledProcessError as exc:
            raise BenchError("a fresh interpreter could not import the "
                             "benchmark (exit %d)" % exc.returncode)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def load_reference() -> dict:
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (REFERENCE.name, exc))
    if reference.get("scale") != SCALE:
        raise BenchError("%s was generated at scale %r, the benchmark runs "
                         "at %r" % (REFERENCE.name, reference.get("scale"),
                                    SCALE))
    return reference


def _probe(path: Path):
    try:
        return path.stat().st_mtime_ns
    except OSError:
        return None


def run(args) -> dict:
    reference = load_reference()
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = WORK_ROOT / ("%s-%d" % (args.workload, os.getpid()))
    repo_cache = Path.cwd() / ".repro-cache"
    repo_cache_before = _probe(repo_cache)
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        startup_s = startup_seconds()
        setups = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = startup_s + statistics.median(setups)
        print("workload %s  seed %d  order: %s"
              % (workload.name, args.seed, workload.order()))
        batches = measure(workload, args.seconds, reference, deadline)
        traced = []
        if args.trace:
            tracer = layers.SpanTracer(work / "spans")
            tracer.spill_dir.mkdir(parents=True, exist_ok=True)
            layers.install(tracer)
            try:
                traced = measure(workload, args.seconds / 2, reference,
                                 deadline, first_index=len(batches),
                                 tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.absorb_workers()
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / ("spans-%s.jsonl" % workload.name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if _probe(repo_cache) != repo_cache_before:
        raise PreconditionFailed("the run touched %s" % repo_cache)
    if (WORK_ROOT / "default-cache").exists():
        raise PreconditionFailed("a store fell back to the default cache "
                                 "directory")

    every = batches + traced
    attempted = sum(b.attempted for b in every)
    failed = sum(b.failed for b in every)
    correct = not any(b.mismatched for b in every)
    print("batches %d  points attempted %d  failed %d  point samples %d"
          % (len(batches), attempted, failed,
             sum(len(b.point_seconds) for b in batches)))
    print("batch wall_s: %s" % " ".join("%.4g" % b.wall for b in every[:8]))
    if args.trace:
        metrics = layer_metrics(tracer, traced, batches)
        _print_shares(metrics)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(batches, setup_s)
        units = END_TO_END
    for name, unit in units:
        print("  %-36s %.6g %s" % (name, metrics[name], unit))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": _format(metrics, units)}


# -- reference -----------------------------------------------------------------

def regenerate() -> None:
    """Simulate every point any workload checks and rewrite the digests."""
    work = WORK_ROOT / ("regen-%d" % os.getpid())
    try:
        runner = ExperimentRunner(
            scale=SCALE, jobs=JOBS, cache=ResultCache(root=work),
            policy=RetryPolicy(timeout=4 * TASK_TIMEOUT_S, retries=0),
            keep_going=True)
        points = {}
        for cls in WORKLOADS.values():
            for point in cls(work, 0).points:
                points[point] = None
        resolved = runner.run_batch(points)
        if runner.failure_log:
            raise BenchError("points failed: %s" % ", ".join(
                "%s/%s: %s" % (f.point.workload, f.point.model.value,
                               f.reason) for f in runner.failure_log))
        digests = {point_key(runner, p.workload, p.spec):
                   stats_digest(result.stats)
                   for p, result in resolved.items()}
        rows = {}
        for name in EXPERIMENTS:
            result = getattr(experiments, name)(runner, ALL_NAMES)
            rows[result.exp_id] = rows_digest(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(
        {"scale": SCALE, "points": digests, "rows": rows},
        indent=1, sort_keys=True) + "\n")
    print("wrote %d point digests and %d row digests to %s"
          % (len(digests), len(rows), REFERENCE))


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.regen_reference:
            regenerate()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except PreconditionFailed as exc:
        print("perfbench: precondition failed: %s" % exc, file=sys.stderr)
        return 3
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0
