"""Layer spans for the traced benchmark run.

The benchmark measures per-layer cost without touching the program: it
wraps the public entry points of each ``repro`` module from here, records
one span per call (layer, entry point, start, end, parent span) in memory,
and counts the work each call did at the same boundary.  Nothing is
installed unless :func:`install` is called, so untraced runs execute the
program exactly as users do.

Worker processes are forked, so they inherit the wrappers.  The wrapped
worker entry point starts each worker with an empty span list and writes
the worker's spans and counters to ``<spill_dir>/worker-<pid>.json``
before the process exits; the parent joins every worker before
``run_points`` returns, so the files are complete when it reads them.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Layers in reporting order; each is named after the module it wraps.
LAYERS = ("workloads", "kernel", "harness.cache", "config", "uarch",
          "energy", "harness.parallel", "harness.runner",
          "harness.experiments")

#: SimStats fields summed into ``uarch.model.<field>`` counters.  They are
#: exact event counts of the modelled core: host-time changes divide by
#: them, and a pure simulator speed-up must leave every one unchanged.
MODEL_COUNTERS = ("uops", "l1_misses", "l2_misses", "branch_mispredicts",
                  "dep_mispredictions", "reexecutions", "predicated_loads",
                  "delayed_loads", "cloaked_loads")


class SpanTracer:
    """In-memory span recorder with per-boundary counters.

    A span is ``(layer, entry, start, end, parent)``, where ``parent`` is
    the index of the enclosing span in the same process or -1.  Calls
    nest strictly (the program is single-threaded per process), so a
    span's children never overlap and its self time is its duration
    minus the children's durations.
    """

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.active = False
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.worker_spans: List[tuple] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, layer: str, entry: str, fn: Callable, args, kwargs,
             count: Optional[Callable]):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, entry, start, end, parent)
        if count is not None:
            count(self.counters, args, result, end - start)
        return result

    def begin_worker(self) -> None:
        """Forget the parent's spans inherited across ``fork``."""
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def spill_worker(self) -> None:
        """Write this worker's spans and counters for the parent."""
        path = self.spill_dir / ("worker-%d.json" % os.getpid())
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans,
                                   "counters": self.counters}))
        os.replace(tmp, path)

    def absorb_workers(self) -> int:
        """Fold spilled worker files into this tracer; returns the count."""
        absorbed = 0
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            # Worker span parents index the worker's own list; rebase them.
            base = len(self.worker_spans)
            for layer, entry, start, end, parent in payload["spans"]:
                self.worker_spans.append(
                    (layer, entry, start, end,
                     parent + base if parent >= 0 else -1))
            for name, value in payload["counters"].items():
                self.counters[name] += value
            absorbed += 1
        return absorbed

    # -- analysis ----------------------------------------------------------

    @staticmethod
    def self_times(spans) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        children = [0.0] * len(spans)
        for layer, entry, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for index, (layer, entry, start, end, parent) in enumerate(spans):
            out[layer] += (end - start) - children[index]
        return out

    def covered(self) -> float:
        """Wall time covered by the parent's top-level spans."""
        return sum(end - start for _, _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self, path: Path) -> None:
        """Write every recorded span, parent process first, as JSON lines."""
        with open(path, "w") as handle:
            for process, spans in (("parent", self.spans),
                                   ("worker", self.worker_spans)):
                for layer, entry, start, end, parent in spans:
                    handle.write(json.dumps(
                        {"process": process, "layer": layer, "entry": entry,
                         "start": start, "end": end, "parent": parent})
                        + "\n")

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper (undone by
        :meth:`uninstall`).  Handles plain and class methods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        entry = "%s.%s" % (getattr(owner, "__name__", "?"), attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(layer, entry, fn, args, kwargs, count)

        wrapper.__wrapped__ = fn
        self.replace(owner, attr,
                     classmethod(wrapper) if is_classmethod else wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``, remembering the old value for uninstall."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


# -- counters ------------------------------------------------------------------

def _timer(name: str, calls: Optional[str] = None) -> Callable:
    def count(counters, args, result, seconds):
        counters[name] += seconds
        if calls is not None:
            counters[calls] += 1
    return count


def _lookup(time_name: str, hits: str, misses: Optional[str]) -> Callable:
    def count(counters, args, result, seconds):
        counters[time_name] += seconds
        if result is None or result is False:
            if misses is not None:
                counters[misses] += 1
        else:
            counters[hits] += 1
    return count


def _trace_built(counters, args, result, seconds):
    counters["kernel.trace_s"] += seconds
    counters["kernel.traces"] += 1
    counters["kernel.trace_instr"] += len(result)


def _simulated(counters, args, stats, seconds):
    counters["uarch.run_s"] += seconds
    counters["uarch.points"] += 1
    counters["uarch.retired_instr"] += stats.instructions
    counters["uarch.sim_cycles"] += stats.cycles
    for name in MODEL_COUNTERS:
        counters["uarch.model." + name] += getattr(stats, name)


def install(tracer: SpanTracer) -> None:
    """Wrap every measured entry point of the program's modules."""
    from repro.config import ConfigSpec
    from repro.harness import cache, experiments, parallel, runner
    from repro.kernel.precompute import TracePrecompute
    from repro.uarch.pipeline import Simulator
    from repro.workloads.common import WorkloadSpec

    wrap = tracer.wrap
    wrap(WorkloadSpec, "build", "workloads",
         _timer("workloads.build_s", "workloads.builds"))

    # runner.py imported these names, so the runner's binding is wrapped.
    wrap(runner, "run_trace_packed", "kernel", _trace_built)
    wrap(TracePrecompute, "build", "kernel",
         _timer("kernel.precompute_s", "kernel.precomputes"))

    wrap(cache.TraceStore, "load", "harness.cache",
         _lookup("harness.cache.trace_load_s", "harness.cache.trace_hits",
                 "harness.cache.trace_misses"))
    wrap(cache.TraceStore, "put", "harness.cache",
         _timer("harness.cache.trace_put_s"))
    wrap(cache.PrecomputeStore, "load", "harness.cache",
         _lookup("harness.cache.precompute_load_s",
                 "harness.cache.precompute_hits", None))
    wrap(cache.PrecomputeStore, "put", "harness.cache",
         _timer("harness.cache.precompute_put_s"))
    # Workers read the parent's blobs by path through these two methods.
    wrap(runner.ExperimentRunner, "attach_trace", "harness.cache",
         _lookup("harness.cache.trace_load_s", "harness.cache.trace_hits",
                 "harness.cache.trace_misses"))
    wrap(runner.ExperimentRunner, "attach_precompute", "harness.cache",
         _lookup("harness.cache.precompute_load_s",
                 "harness.cache.precompute_hits", None))
    wrap(cache.ResultCache, "get", "harness.cache",
         _lookup("harness.cache.result_get_s", "harness.cache.result_hits",
                 "harness.cache.result_misses"))
    wrap(cache.ResultCache, "put", "harness.cache",
         _timer("harness.cache.result_put_s"))
    wrap(cache.ResultCache, "key_for_spec", "harness.cache",
         _timer("harness.cache.key_s"))

    wrap(ConfigSpec, "to_params", "config", _timer("config.to_params_s"))
    wrap(ConfigSpec, "from_overrides", "config",
         _timer("config.from_overrides_s"))

    wrap(Simulator, "__init__", "uarch", _timer("uarch.setup_s"))
    wrap(Simulator, "run", "uarch", _simulated)

    wrap(runner, "energy_report", "energy", _timer("energy.report_s"))

    def ran_points(counters, args, result, seconds):
        engine, points = args[0], args[1]
        counters["harness.parallel.run_points_s"] += seconds
        counters["harness.parallel.tasks"] += len({p.workload
                                                    for p in points})
        counters["harness.parallel.retried"] += engine.retried
        counters["harness.parallel.timed_out"] += engine.timed_out
        counters["harness.parallel.failed"] += len(engine.failures)
        counters["harness.parallel.worker_slots_s"] += (
            max(1, int(engine.jobs)) * seconds)

    wrap(parallel.ParallelEngine, "run_points", "harness.parallel",
         ran_points)
    worker_entry = parallel._worker_entry
    worker_busy = _timer("harness.parallel.worker_busy_s")

    def traced_worker_entry(*args, **kwargs):
        tracer.begin_worker()
        try:
            return tracer.call("harness.parallel", "_worker_entry",
                               worker_entry, args, kwargs, worker_busy)
        finally:
            tracer.spill_worker()

    tracer.replace(parallel, "_worker_entry", traced_worker_entry)

    for name in ("__init__", "trace", "precompute_for", "run_batch", "run",
                 "run_spec"):
        wrap(runner.ExperimentRunner, name, "harness.runner")
    _count_memo_hits(tracer, runner.ExperimentRunner)

    for name in ("fig12_speedup", "table4_load_exec_time",
                 "table5_lowconf_exec_time", "table6_mpki",
                 "table7_reexec_stalls"):
        wrap(experiments, name, "harness.experiments")


def _count_memo_hits(tracer: SpanTracer, runner_cls) -> None:
    """Count points the runner served from its in-process memo.

    ``run_spec`` logs every point it resolves from disk or simulation, so
    a call that logs nothing was a memo hit; ``run_batch`` reports its
    own memo hits in the batch log.
    """
    run_spec = runner_cls.run_spec
    run_batch = runner_cls.run_batch

    def counted_run_spec(self, *args, **kwargs):
        logged = len(self.point_log)
        result = run_spec(self, *args, **kwargs)
        if tracer.active and len(self.point_log) == logged:
            tracer.counters["harness.runner.memo_hits"] += 1
        return result

    def counted_run_batch(self, *args, **kwargs):
        batches = len(self.batch_log)
        result = run_batch(self, *args, **kwargs)
        if tracer.active and len(self.batch_log) > batches:
            tracer.counters["harness.runner.memo_hits"] += \
                self.batch_log[-1].memo_hits
        return result

    tracer.replace(runner_cls, "run_spec", counted_run_spec)
    tracer.replace(runner_cls, "run_batch", counted_run_batch)
