"""Sweep telemetry ledger: an append-only JSONL stream of typed spans.

PR 3 made a *single run* observable; this module makes the experiment
engine itself observable (DESIGN.md section 15).  Every ``run_batch``
(serial or parallel) can emit a durable, machine-readable record of what
the sweep actually did: sweep lifecycle, task/worker lifecycle (queued
-> spawned -> retried/timed-out/failed -> completed, with pid, attempt
number, and captured tracebacks), per-point completions (wall-clock,
provenance, IPC, energy/EDP breakdown), store activity (trace and
precompute hit vs build vs corrupt-miss, blob sizes), and per-sweep
phase attribution using the same phase names that ``repro --profile``
prints.

Like the pipeline tracer, the producer side follows the
zero-overhead-when-off contract: every emit site in the harness is
guarded by one ``ledger.enabled`` attribute check, and the default
:data:`NULL_LEDGER` never allocates, formats, or writes anything.

The file format is one JSON object per line::

    {"v": 1, "t": <seconds since ledger open>, "kind": "<span kind>", ...}

``v`` is :data:`LEDGER_SCHEMA_VERSION` (bumped on incompatible layout
changes, the RPKT/RPPC header idiom).  :class:`JsonlLedger` writes to
``<path>.tmp`` while the run is live and renames to ``<path>`` on
close, so a killed run leaves a ``*.jsonl.tmp`` orphan that ``repro
cache gc`` sweeps -- and a finalised ledger is always complete.  Every
span is validated against :data:`SPAN_SCHEMA` by :func:`validate_span`
(CI validates fault-injected ledgers end to end).

Consumers: :func:`summarize_ledger` folds a span stream into one health
summary; :func:`format_ledger_report` renders it (task timeline table,
retry/failure/straggler summary, cache efficiency, phase breakdown);
:func:`diff_ledgers` compares two sweeps.  The live ``--progress``
renderer (:mod:`repro.obs.progress`) consumes the same span stream
in-process through the :class:`TeeLedger` fan-out.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, IO, Iterable, Iterator, List, Optional, Union

LEDGER_SCHEMA_VERSION = 1

# The phase names shared with repro --profile (the runner's phase_seconds).
PHASE_NAMES = ("functional tracing", "precompute", "timing simulation",
               "trace store I/O")

# Span schema: kind -> (required fields, optional fields).  The ``v``,
# ``t`` and ``kind`` envelope keys are implicit on every span.
SPAN_SCHEMA: Dict[str, Dict[str, frozenset]] = {
    "ledger.open": {
        "req": frozenset({"schema", "epoch", "pid"}),
        "opt": frozenset({"command", "jobs", "scale"}),
    },
    "ledger.close": {
        "req": frozenset({"spans"}),
        "opt": frozenset(),
    },
    # ``grid`` summarises the submitted cross-product (workloads, models,
    # non-default setting axes, point count) as recorded by
    # :func:`repro.config.describe_points`.
    "sweep.begin": {
        "req": frozenset({"sweep", "jobs", "submitted"}),
        "opt": frozenset({"grid"}),
    },
    "sweep.end": {
        "req": frozenset({"sweep", "points", "simulated", "memo_hits",
                          "cache_hits", "failed", "retried", "timed_out",
                          "wall_seconds", "sim_seconds"}),
        "opt": frozenset({"traces_generated", "worker_retraces",
                          "precomputes_built", "precomputes_loaded",
                          "worker_precomputes_built",
                          "worker_precomputes_loaded", "degraded"}),
    },
    "phase": {
        "req": frozenset({"sweep", "name", "seconds"}),
        "opt": frozenset(),
    },
    "task.queued": {
        "req": frozenset({"task", "points"}),
        "opt": frozenset(),
    },
    "task.spawned": {
        "req": frozenset({"task", "attempt", "pid", "mode"}),
        "opt": frozenset(),
    },
    "task.completed": {
        "req": frozenset({"task", "attempt", "points", "wall_seconds"}),
        "opt": frozenset({"pid", "worker_retraces",
                          "worker_precomputes_built",
                          "worker_precomputes_loaded"}),
    },
    # ``cause`` (not ``kind``: that's the span-envelope key) carries the
    # FailedPoint failure kind: crash | timeout | error | lost.
    "task.retry": {
        "req": frozenset({"task", "attempt", "cause", "delay_seconds"}),
        "opt": frozenset({"detail"}),
    },
    "task.failed": {
        "req": frozenset({"task", "attempts", "cause"}),
        "opt": frozenset({"detail"}),
    },
    "point.completed": {
        "req": frozenset({"workload", "model", "source", "seconds"}),
        "opt": frozenset({"overrides", "ipc", "cycles", "energy", "edp",
                          "energy_by_event"}),
    },
    "point.failed": {
        "req": frozenset({"workload", "model", "cause", "attempts"}),
        "opt": frozenset({"overrides", "detail"}),
    },
    "store.trace": {
        "req": frozenset({"workload", "event"}),
        "opt": frozenset({"bytes"}),
    },
    "store.precompute": {
        "req": frozenset({"workload", "event"}),
        "opt": frozenset({"bytes"}),
    },
}

# Fields that must hold numbers when present (schema-level sanity; the
# rest are free-form strings/objects).
_NUMERIC_FIELDS = frozenset({
    "schema", "epoch", "pid", "jobs", "scale", "spans", "sweep",
    "submitted", "points", "simulated", "memo_hits", "cache_hits",
    "failed", "retried", "timed_out", "wall_seconds", "sim_seconds",
    "seconds", "attempt", "attempts", "delay_seconds", "bytes", "ipc",
    "cycles", "energy", "edp", "traces_generated", "worker_retraces",
    "precomputes_built", "precomputes_loaded", "worker_precomputes_built",
    "worker_precomputes_loaded",
})

_STORE_EVENTS = frozenset({"hit", "build", "corrupt-miss"})


def validate_span(obj: dict) -> None:
    """Raise ``ValueError`` unless ``obj`` is a schema-valid span."""
    if not isinstance(obj, dict):
        raise ValueError("span must be a JSON object, got %s"
                         % type(obj).__name__)
    version = obj.get("v")
    if version != LEDGER_SCHEMA_VERSION:
        raise ValueError("unsupported ledger schema version %r (expected %d)"
                         % (version, LEDGER_SCHEMA_VERSION))
    kind = obj.get("kind")
    schema = SPAN_SCHEMA.get(kind)
    if schema is None:
        raise ValueError("unknown span kind %r" % kind)
    t = obj.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
        raise ValueError("span %r has bad timestamp %r" % (kind, t))
    fields = set(obj) - {"v", "t", "kind"}
    missing = schema["req"] - fields
    if missing:
        raise ValueError("span %r is missing required field(s) %s"
                         % (kind, ", ".join(sorted(missing))))
    unknown = fields - schema["req"] - schema["opt"]
    if unknown:
        raise ValueError("span %r carries unknown field(s) %s"
                         % (kind, ", ".join(sorted(unknown))))
    for name in fields & _NUMERIC_FIELDS:
        value = obj[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError("span %r field %r must be numeric, got %r"
                             % (kind, name, value))
    if kind.startswith("store.") and obj["event"] not in _STORE_EVENTS:
        raise ValueError("span %r has unknown store event %r"
                         % (kind, obj["event"]))


# -- sinks -------------------------------------------------------------------


class LedgerSink:
    """Span-sink protocol (and explicit no-op base).

    Producers guard every call site with ``if ledger.enabled:`` so the
    default :class:`NullLedger` costs one attribute check, exactly like
    :class:`~repro.obs.tracer.NullTracer` in the timing hot loop.
    """

    enabled = False

    def emit(self, kind: str, **fields) -> None:  # pragma: no cover - base
        pass

    def close(self) -> None:
        """Finalise the sink (no-op by default)."""


class NullLedger(LedgerSink):
    """The default sink: records nothing, costs one attribute check."""


NULL_LEDGER = NullLedger()


class JsonlLedger(LedgerSink):
    """Append-only JSONL span sink with atomic finalisation.

    Spans stream to ``<path>.tmp`` (flushed per span, so a killed run
    loses at most the span being written); :meth:`close` appends the
    ``ledger.close`` span and renames the file to its final ``path``.
    An orphaned ``*.jsonl.tmp`` therefore always means a run that died
    mid-sweep -- ``repro cache gc`` sweeps them.
    """

    enabled = True

    def __init__(self, path: Union[str, Path],
                 command: Optional[str] = None,
                 jobs: Optional[int] = None,
                 scale: Optional[float] = None):
        self.path = Path(path)
        self.tmp_path = Path(str(self.path) + ".tmp")
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = open(self.tmp_path, "w",
                                               encoding="utf-8")
        self._origin = time.perf_counter()
        self.spans = 0
        self.emit("ledger.open", schema=LEDGER_SCHEMA_VERSION,
                  epoch=round(time.time(), 6), pid=os.getpid(),
                  command=command, jobs=jobs, scale=scale)

    def emit(self, kind: str, **fields) -> None:
        if self._handle is None:
            return                    # spans after close are dropped
        obj = {"v": LEDGER_SCHEMA_VERSION,
               "t": round(time.perf_counter() - self._origin, 6),
               "kind": kind}
        obj.update((key, value) for key, value in fields.items()
                   if value is not None)
        self._handle.write(json.dumps(obj, separators=(",", ":"),
                                      sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()
        self.spans += 1

    def close(self) -> None:
        if self._handle is None:
            return
        # +1: the close span counts itself, so ``spans`` equals the
        # final line count -- a reader can detect truncation exactly.
        self.emit("ledger.close", spans=self.spans + 1)
        handle, self._handle = self._handle, None
        handle.close()
        os.replace(self.tmp_path, self.path)


class TeeLedger(LedgerSink):
    """Fan one span stream out to several sinks (file + live progress)."""

    enabled = True

    def __init__(self, sinks: Iterable[LedgerSink]):
        self.sinks = list(sinks)

    def emit(self, kind: str, **fields) -> None:
        for sink in self.sinks:
            sink.emit(kind, **fields)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# -- reading -----------------------------------------------------------------


def iter_ledger(path: Union[str, Path],
                validate: bool = True) -> Iterator[dict]:
    """Stream spans back from a ledger file (blank lines skipped)."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError("bad ledger line %d: %s"
                                 % (lineno, exc)) from None
            if validate:
                try:
                    validate_span(obj)
                except ValueError as exc:
                    raise ValueError("ledger line %d: %s"
                                     % (lineno, exc)) from None
            yield obj


def read_ledger(path: Union[str, Path],
                validate: bool = True) -> List[dict]:
    return list(iter_ledger(path, validate=validate))


# -- summarising -------------------------------------------------------------


def summarize_ledger(source: Union[str, Path, Iterable[dict]]) -> dict:
    """Fold a span stream into one JSON-serialisable health summary."""
    if isinstance(source, (str, Path)):
        spans = iter_ledger(source)
    else:
        spans = iter(source)

    summary: Dict[str, object] = {
        "schema": None, "epoch": None, "command": None, "jobs": None,
        "spans": 0, "wall_seconds": 0.0, "finalized": False,
    }
    sweeps: List[dict] = []
    tasks: Dict[str, dict] = {}
    retries = {"total": 0, "by_kind": {}}
    failures: List[dict] = []
    points = {"completed": 0, "simulated": 0, "cached": 0, "failed": 0,
              "sim_seconds": 0.0, "energy": 0.0, "points_with_energy": 0}
    cache = {"memo_hits": 0, "cache_hits": 0, "trace_hits": 0,
             "trace_builds": 0, "trace_corrupt_misses": 0,
             "precompute_hits": 0, "precompute_builds": 0,
             "precompute_corrupt_misses": 0, "bytes_moved": 0}
    phases = {name: 0.0 for name in PHASE_NAMES}

    def task(name: str) -> dict:
        return tasks.setdefault(name, {
            "task": name, "queued_t": None, "start_t": None, "end_t": None,
            "attempts": 0, "points": 0, "status": "queued",
            "wall_seconds": None, "retries": 0, "pids": []})

    for span in spans:
        summary["spans"] += 1
        t = span["t"]
        summary["wall_seconds"] = max(summary["wall_seconds"], t)
        kind = span["kind"]
        if kind == "ledger.open":
            summary["schema"] = span["schema"]
            summary["epoch"] = span["epoch"]
            summary["command"] = span.get("command")
            summary["jobs"] = span.get("jobs")
        elif kind == "ledger.close":
            summary["finalized"] = True
        elif kind == "sweep.end":
            sweeps.append({key: value for key, value in span.items()
                           if key not in ("v", "t", "kind")})
        elif kind == "phase":
            phases[span["name"]] = (phases.get(span["name"], 0.0)
                                    + span["seconds"])
        elif kind == "task.queued":
            entry = task(span["task"])
            entry["queued_t"] = t
            entry["points"] = span["points"]
        elif kind == "task.spawned":
            entry = task(span["task"])
            entry["attempts"] = max(entry["attempts"], span["attempt"])
            entry["status"] = "running"
            entry["pids"].append(span["pid"])
            if entry["start_t"] is None:
                entry["start_t"] = t
        elif kind == "task.completed":
            entry = task(span["task"])
            entry["attempts"] = max(entry["attempts"], span["attempt"])
            entry["status"] = "completed"
            entry["end_t"] = t
            entry["wall_seconds"] = span["wall_seconds"]
        elif kind == "task.retry":
            entry = task(span["task"])
            entry["retries"] += 1
            entry["status"] = "retrying"
            retries["total"] += 1
            cause = span["cause"]
            retries["by_kind"][cause] = retries["by_kind"].get(cause, 0) + 1
        elif kind == "task.failed":
            entry = task(span["task"])
            entry["attempts"] = max(entry["attempts"], span["attempts"])
            entry["status"] = "failed"
            entry["end_t"] = t
        elif kind == "point.completed":
            points["completed"] += 1
            points["sim_seconds"] += span["seconds"]
            if span["source"] == "sim":
                points["simulated"] += 1
            else:
                points["cached"] += 1
            if "energy" in span:
                points["points_with_energy"] += 1
                points["energy"] += span["energy"]
        elif kind == "point.failed":
            points["failed"] += 1
            failures.append({"workload": span["workload"],
                             "model": span["model"],
                             "cause": span["cause"],
                             "attempts": span["attempts"]})
        elif kind.startswith("store."):
            prefix = "trace" if kind == "store.trace" else "precompute"
            event = span["event"]
            if event == "hit":
                cache["%s_hits" % prefix] += 1
            elif event == "build":
                cache["%s_builds" % prefix] += 1
            else:
                cache["%s_corrupt_misses" % prefix] += 1
            cache["bytes_moved"] += span.get("bytes", 0)

    summary.update(sweeps=sweeps, tasks=tasks, retries=retries,
                   failures=failures, points=points, cache=cache,
                   phases=phases)
    for sweep in sweeps:
        cache["memo_hits"] += sweep.get("memo_hits", 0)
        cache["cache_hits"] += sweep.get("cache_hits", 0)
    return summary


def format_ledger_report(summary: dict, width: int = 32) -> str:
    """Render a ledger summary as the sweep health report."""
    from ..harness.reporting import format_table  # deferred: avoids cycle

    lines = ["sweep ledger: %d span(s), %.2fs wall%s"
             % (summary["spans"], summary["wall_seconds"],
                "" if summary["finalized"] else "  [NOT FINALIZED]")]
    if summary.get("command"):
        lines.append("  command %s  jobs %s"
                     % (summary["command"], summary.get("jobs")))
    sweeps = summary["sweeps"]
    if sweeps:
        rows = [[s.get("sweep"), s.get("points"), s.get("simulated"),
                 s.get("memo_hits"), s.get("cache_hits"), s.get("retried"),
                 s.get("timed_out"), s.get("failed"),
                 s.get("wall_seconds"), s.get("sim_seconds")]
                for s in sweeps]
        lines.append("")
        lines.append(format_table(
            ["sweep", "points", "sims", "memo", "cache", "retries",
             "timeouts", "failed", "wall s", "sim s"], rows,
            title="Sweeps"))

    tasks = sorted(summary["tasks"].values(),
                   key=lambda e: (e["start_t"] if e["start_t"] is not None
                                  else float("inf"), e["task"]))
    if tasks:
        span_end = max((e["end_t"] for e in tasks
                        if e["end_t"] is not None), default=0.0)
        span_start = min((e["start_t"] for e in tasks
                          if e["start_t"] is not None), default=0.0)
        total = max(span_end - span_start, 1e-9)

        def bar(entry) -> str:
            if entry["start_t"] is None:
                return ""
            end = entry["end_t"] if entry["end_t"] is not None else span_end
            lo = int(round((entry["start_t"] - span_start) / total
                           * (width - 1)))
            hi = max(lo, int(round((end - span_start) / total
                                   * (width - 1))))
            cells = ["."] * width
            for i in range(lo, hi + 1):
                cells[i] = "="
            if entry["status"] == "failed":
                cells[hi] = "x"
            return "".join(cells)

        rows = [[e["task"], e["points"], e["attempts"], e["status"],
                 e["start_t"], e["end_t"], bar(e)] for e in tasks]
        lines.append("")
        lines.append(format_table(
            ["task", "points", "attempts", "status", "start s", "end s",
             "timeline"], rows, title="Task timeline"))

        done = [e for e in tasks if e["wall_seconds"] is not None]
        if len(done) >= 2:
            walls = sorted(e["wall_seconds"] for e in done)
            median = walls[len(walls) // 2]
            stragglers = [e for e in done
                          if median > 0 and e["wall_seconds"] > 2 * median]
            if stragglers:
                lines.append("")
                lines.append("stragglers (>2x median task wall %.2fs): %s"
                             % (median,
                                ", ".join("%s (%.2fs)"
                                          % (e["task"], e["wall_seconds"])
                                          for e in stragglers)))

    retries = summary["retries"]
    if retries["total"] or summary["failures"]:
        lines.append("")
        lines.append("retries   %d (%s)"
                     % (retries["total"],
                        ", ".join("%s x%d" % (kind, count) for kind, count
                                  in sorted(retries["by_kind"].items()))
                        or "none"))
        if summary["failures"]:
            rows = [[f["workload"], f["model"], f["cause"], f["attempts"]]
                    for f in summary["failures"]]
            lines.append(format_table(
                ["workload", "model", "cause", "attempts"], rows,
                title="Failed points"))

    points = summary["points"]
    cache = summary["cache"]
    lines.append("")
    lines.append("points    %d completed (%d sim, %d cached), %d failed"
                 % (points["completed"], points["simulated"],
                    points["cached"], points["failed"]))
    lines.append("cache     memo %d  result %d  trace %d hit / %d build"
                 "  precompute %d hit / %d build  (%.1f KiB moved)"
                 % (cache["memo_hits"], cache["cache_hits"],
                    cache["trace_hits"], cache["trace_builds"],
                    cache["precompute_hits"], cache["precompute_builds"],
                    cache["bytes_moved"] / 1024.0))
    corrupt = (cache["trace_corrupt_misses"]
               + cache["precompute_corrupt_misses"])
    if corrupt:
        lines.append("          %d corrupt blob(s) read as clean misses"
                     % corrupt)
    if points["points_with_energy"]:
        lines.append("energy    %.0f total over %d point(s)"
                     % (points["energy"], points["points_with_energy"]))

    phase_total = sum(summary["phases"].values())
    if phase_total > 0:
        lines.append("")
        rows = [[name, seconds,
                 100.0 * seconds / phase_total if phase_total else 0.0]
                for name, seconds in summary["phases"].items()]
        lines.append(format_table(["phase", "seconds", "%"], rows,
                                  title="Phase breakdown"))
    return "\n".join(lines)


def diff_ledgers(a: dict, b: dict) -> dict:
    """Compare two ledger summaries; returns a JSON-serialisable delta."""
    def pick(summary: dict) -> dict:
        points = summary["points"]
        cache = summary["cache"]
        return {
            "wall_seconds": summary["wall_seconds"],
            "spans": summary["spans"],
            "points_completed": points["completed"],
            "points_simulated": points["simulated"],
            "points_cached": points["cached"],
            "points_failed": points["failed"],
            "sim_seconds": round(points["sim_seconds"], 6),
            "retries": summary["retries"]["total"],
            "tasks": len(summary["tasks"]),
            "memo_hits": cache["memo_hits"],
            "cache_hits": cache["cache_hits"],
            "trace_builds": cache["trace_builds"],
            "precompute_builds": cache["precompute_builds"],
            "bytes_moved": cache["bytes_moved"],
            "phases": {name: round(seconds, 6)
                       for name, seconds in summary["phases"].items()},
        }

    left, right = pick(a), pick(b)
    delta = {}
    for key in left:
        if key == "phases":
            delta[key] = {name: round(right[key][name] - left[key][name], 6)
                          for name in left[key]}
        else:
            delta[key] = round(right[key] - left[key], 6) \
                if isinstance(left[key], float) else right[key] - left[key]
    return {"a": left, "b": right, "delta": delta}


def format_ledger_diff(diff: dict) -> str:
    """Render a :func:`diff_ledgers` result as an ASCII table."""
    from ..harness.reporting import format_table  # deferred: avoids cycle

    rows = []
    for key in diff["a"]:
        if key == "phases":
            for name in diff["a"][key]:
                rows.append(["phase: %s" % name, diff["a"][key][name],
                             diff["b"][key][name], diff["delta"][key][name]])
        else:
            rows.append([key, diff["a"][key], diff["b"][key],
                         diff["delta"][key]])
    return format_table(["metric", "a", "b", "delta"], rows,
                        title="Ledger diff (b - a)")


__all__ = [
    "LEDGER_SCHEMA_VERSION", "PHASE_NAMES", "SPAN_SCHEMA",
    "LedgerSink", "NullLedger", "NULL_LEDGER", "JsonlLedger", "TeeLedger",
    "validate_span", "iter_ledger", "read_ledger",
    "summarize_ledger", "format_ledger_report",
    "diff_ledgers", "format_ledger_diff",
]
