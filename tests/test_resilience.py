"""Fault-tolerance tests for the experiment harness.

The contract (DESIGN.md Section 11): a worker crash, a wedged task, or
an in-task exception fails only the points it owns -- after the retry
budget -- while every other point completes with byte-identical stats to
a clean serial run; completed points are checkpointed to the disk cache
as they resolve, so an interrupted sweep resumes instead of restarting.

Faults are injected deterministically through ``REPRO_FAULT_SPEC`` (see
:mod:`repro.harness.resilience`); cross-process ``once`` state lives in
``REPRO_FAULT_STATE_DIR`` so a retried task (which lands in a *fresh*
worker process) can observe that the fault already fired.
"""

import os
import pickle
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.config import ConfigSpec
from repro.harness.cache import FORMAT_VERSION, ResultCache
from repro.harness.parallel import BatchTiming, ParallelEngine, make_point
from repro.harness.reporting import format_failure_table, format_run_report
from repro.harness.resilience import (BatchFailure, FailedPoint,
                                      FaultInjector, RetryPolicy,
                                      parse_fault_spec)
from repro.harness.runner import ExperimentRunner
from repro.uarch import ModelKind

SCALE = 0.05
POINTS = [make_point(w, m) for w in ("bzip2", "tonto")
          for m in (ModelKind.NOSQ, ModelKind.DMDP)]
FAST = RetryPolicy(retries=2, backoff=0.0)


def fault_env(monkeypatch, tmp_path, spec):
    monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
    monkeypatch.setenv("REPRO_FAULT_STATE_DIR", str(tmp_path / "faults"))


def runner_with(tmp_path, jobs=2, policy=FAST, **kw):
    return ExperimentRunner(scale=SCALE, jobs=jobs, policy=policy,
                            cache=ResultCache(root=tmp_path / "cache"), **kw)


@pytest.fixture(scope="module")
def serial_reference():
    """Clean serial stats for POINTS, the byte-identity oracle."""
    runner = ExperimentRunner(scale=SCALE, jobs=1, use_cache=False)
    return {p: runner.run_batch([p])[p].stats.to_dict() for p in POINTS}


def assert_identical_to_serial(results, serial_reference, points=POINTS):
    for point in points:
        assert results[point].stats.to_dict() == serial_reference[point]


# -- fault spec parsing ------------------------------------------------------

class TestFaultSpec:
    def test_parse_directives(self):
        rules = parse_fault_spec(
            "kill:workload=bzip2,once; raise:workload=tonto;"
            "sleep:workload=mcf,seconds=2.5; nospawn")
        assert [r.kind for r in rules] == ["kill", "raise", "sleep",
                                          "nospawn"]
        assert rules[0].workload == "bzip2" and rules[0].once
        assert not rules[1].once
        assert rules[2].seconds == 2.5
        assert rules[3].workload == "*"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("explode:workload=bzip2")

    def test_bad_option_rejected(self):
        with pytest.raises(ValueError, match="bad fault option"):
            parse_fault_spec("kill:color=red")

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        assert FaultInjector.from_env() is None

    def test_once_state_persists_across_injectors(self, monkeypatch,
                                                  tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2,once")
        first = FaultInjector.from_env()
        with pytest.raises(RuntimeError, match="injected fault"):
            first.on_task("bzip2")
        # A new injector (fresh worker process) sees the marker file.
        second = FaultInjector.from_env()
        second.on_task("bzip2")      # disarmed: no raise

    def test_workload_filter(self, monkeypatch, tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        injector = FaultInjector.from_env()
        injector.on_task("tonto")    # no match, no fault
        with pytest.raises(RuntimeError):
            injector.on_task("bzip2")


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff=0.5, backoff_factor=2.0,
                             backoff_max=3.0)
        assert [policy.delay_for(n) for n in (1, 2, 3, 4, 5)] == \
            [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_zero_backoff(self):
        assert RetryPolicy(backoff=0.0).delay_for(3) == 0.0


# -- crash isolation ---------------------------------------------------------

class TestCrashIsolation:
    def test_killed_worker_batch_completes(self, monkeypatch, tmp_path,
                                           serial_reference):
        """A worker hard-killed mid-batch (the OOM-kill shape) fails only
        its task; the retry lands on a fresh process and the full result
        set comes back byte-identical to a clean serial run."""
        fault_env(monkeypatch, tmp_path, "kill:workload=bzip2,once")
        runner = runner_with(tmp_path)
        results = runner.run_batch(POINTS)
        assert set(results) == set(POINTS)
        timing = runner.batch_log[-1]
        assert timing.retried >= 1
        assert timing.failed == 0
        assert not runner.failure_log
        assert_identical_to_serial(results, serial_reference)

    def test_timed_out_task_is_killed_and_retried(self, monkeypatch,
                                                  tmp_path,
                                                  serial_reference):
        fault_env(monkeypatch, tmp_path,
                  "sleep:workload=tonto,seconds=60,once")
        runner = runner_with(
            tmp_path, policy=RetryPolicy(retries=2, backoff=0.0,
                                         timeout=3.0))
        start = time.monotonic()
        results = runner.run_batch(POINTS)
        assert time.monotonic() - start < 30.0
        assert set(results) == set(POINTS)
        timing = runner.batch_log[-1]
        assert timing.timed_out >= 1
        assert timing.retried >= 1
        assert timing.failed == 0
        assert_identical_to_serial(results, serial_reference)

    def test_persistent_crash_becomes_failed_points(self, monkeypatch,
                                                    tmp_path,
                                                    serial_reference):
        fault_env(monkeypatch, tmp_path, "kill:workload=bzip2")
        runner = runner_with(tmp_path, keep_going=True,
                             policy=RetryPolicy(retries=1, backoff=0.0))
        results = runner.run_batch(POINTS)
        survivors = [p for p in POINTS if p.workload == "tonto"]
        assert set(results) == set(survivors)
        assert len(runner.failure_log) == 2        # both bzip2 points
        for failure in runner.failure_log:
            assert failure.kind == "crash"
            assert failure.attempts == 2           # initial + 1 retry
            assert "17" in failure.detail          # KILL_EXIT_CODE
        assert runner.batch_log[-1].failed == 2
        assert_identical_to_serial(results, serial_reference, survivors)

    def test_raising_task_captures_traceback(self, monkeypatch, tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        runner = runner_with(tmp_path, keep_going=True,
                             policy=RetryPolicy(retries=1, backoff=0.0))
        runner.run_batch(POINTS)
        assert runner.failure_log
        failure = runner.failure_log[0]
        assert failure.kind == "error"
        assert "injected fault" in failure.detail
        assert "RuntimeError" in failure.detail

    def test_batch_failure_raised_without_keep_going(self, monkeypatch,
                                                     tmp_path):
        """Without --keep-going the batch still raises -- but only after
        publishing every completed point, so a re-run resumes."""
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        runner = runner_with(tmp_path,
                             policy=RetryPolicy(retries=0, backoff=0.0))
        with pytest.raises(BatchFailure) as info:
            runner.run_batch(POINTS)
        assert len(info.value.failures) == 2
        # The survivors were checkpointed: a fresh runner (same cache,
        # no faults) serves them from disk without simulating.
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        fresh = runner_with(tmp_path)
        results = fresh.run_batch(POINTS)
        assert set(results) == set(POINTS)
        assert fresh.batch_log[-1].cache_hits == 2
        assert fresh.batch_log[-1].simulated == 2

    def test_known_failed_point_not_resimulated_by_run(self, monkeypatch,
                                                       tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        runner = runner_with(tmp_path, keep_going=True,
                             policy=RetryPolicy(retries=0, backoff=0.0))
        runner.run_batch(POINTS)
        simulated = runner.points_simulated()
        with pytest.raises(BatchFailure):
            runner.run("bzip2", ModelKind.NOSQ)
        assert runner.points_simulated() == simulated   # no re-attempt

    def test_degrades_to_serial_when_workers_cannot_spawn(
            self, monkeypatch, tmp_path, serial_reference):
        fault_env(monkeypatch, tmp_path, "nospawn")
        engine = ParallelEngine(jobs=2, scale=SCALE, policy=FAST)
        results = engine.run_points(list(POINTS))
        assert engine.degraded
        assert not engine.failures
        assert set(results) == set(POINTS)
        for point in POINTS:
            assert (results[point][0].stats.to_dict()
                    == serial_reference[point])


# -- engine robustness -------------------------------------------------------

class TestEngineRobustness:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_clamped(self, jobs):
        engine = ParallelEngine(jobs=jobs, scale=SCALE, policy=FAST)
        points = POINTS[:2]
        results = engine.run_points(list(points))
        assert set(results) == set(points)
        assert not engine.failures

    def test_partial_engine_result_reported_not_keyerror(self, monkeypatch,
                                                         tmp_path):
        """A (hypothetical) engine that loses a point without recording a
        failure must yield a 'lost' FailedPoint, not a KeyError."""
        def partial_run_points(self, points):
            kept = points[0]
            runner = ExperimentRunner(scale=SCALE, jobs=1, use_cache=False)
            result = runner.run_batch([kept])[kept]
            self.on_result(kept, result, 0.0)
            return {kept: (result, 0.0)}

        monkeypatch.setattr(ParallelEngine, "run_points",
                            partial_run_points)
        runner = runner_with(tmp_path, keep_going=True)
        results = runner.run_batch(POINTS)
        assert len(results) == 1
        lost = [f for f in runner.failure_log if f.kind == "lost"]
        assert len(lost) == len(POINTS) - 1

    def test_serial_path_retries_transient_errors(self, tmp_path,
                                                  monkeypatch):
        runner = runner_with(tmp_path, jobs=1,
                             policy=RetryPolicy(retries=2, backoff=0.0))
        real = ExperimentRunner._simulate
        calls = {"n": 0}

        def flaky(self, workload, spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(self, workload, spec)

        monkeypatch.setattr(ExperimentRunner, "_simulate", flaky)
        results = runner.run_batch(POINTS[:1])
        assert set(results) == set(POINTS[:1])
        assert calls["n"] == 2

    def test_serial_path_exhausts_retries(self, tmp_path, monkeypatch):
        runner = runner_with(tmp_path, jobs=1, keep_going=True,
                             policy=RetryPolicy(retries=1, backoff=0.0))

        def broken(self, workload, spec):
            raise RuntimeError("permanent")

        monkeypatch.setattr(ExperimentRunner, "_simulate", broken)
        results = runner.run_batch(POINTS[:1])
        assert results == {}
        assert runner.failure_log[0].attempts == 2
        assert "permanent" in runner.failure_log[0].detail


# -- checkpoint / resume -----------------------------------------------------

_SWEEP_DRIVER = """
import sys
sys.path.insert(0, %(src)r)
from repro.harness.cache import ResultCache
from repro.harness.parallel import make_point
from repro.harness.runner import ExperimentRunner
from repro.uarch import ModelKind

runner = ExperimentRunner(scale=%(scale)r, jobs=2,
                          cache=ResultCache(root=%(cache)r))
points = [make_point(w, m) for w in ("bzip2", "tonto")
          for m in (ModelKind.NOSQ, ModelKind.DMDP)]
runner.run_batch(points)
"""


class TestCheckpointResume:
    def test_sigterm_mid_sweep_resumes_from_cache(self, tmp_path):
        """Kill a sweep once its first workload is checkpointed; the
        re-run simulates only the unfinished points."""
        cache_root = tmp_path / "cache"
        env = dict(os.environ)
        env.update({
            # tonto wedges forever, so only bzip2 can complete.
            "REPRO_FAULT_SPEC": "sleep:workload=tonto,seconds=120",
            "REPRO_FAULT_STATE_DIR": str(tmp_path / "faults"),
        })
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        driver = _SWEEP_DRIVER % {
            "src": src, "scale": SCALE, "cache": str(cache_root)}
        proc = subprocess.Popen([sys.executable, "-c", driver], env=env)
        try:
            cache = ResultCache(root=cache_root)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and cache.entry_count() < 2:
                time.sleep(0.1)
            # bzip2's two points were published as they resolved, while
            # tonto is still wedged: the checkpoint is on disk.
            assert cache.entry_count() >= 2
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode != 0   # died mid-flight, as intended

        resumed = ExperimentRunner(scale=SCALE, jobs=2,
                                   cache=ResultCache(root=cache_root))
        results = resumed.run_batch(POINTS)
        assert set(results) == set(POINTS)
        timing = resumed.batch_log[-1]
        assert timing.cache_hits == 2             # bzip2: resumed
        assert timing.simulated == 2              # tonto: only the rest


# -- reporting ---------------------------------------------------------------

class TestFailureReporting:
    def test_format_failure_table(self):
        failures = [FailedPoint(point=POINTS[0], kind="crash",
                                detail="worker exited with code 17",
                                attempts=3)]
        text = format_failure_table(failures)
        assert "Failed simulation points" in text
        assert "bzip2" in text and "crash" in text and "3" in text

    def test_run_report_includes_resilience_counters(self):
        from repro.harness.parallel import PointTiming
        points = [PointTiming("bzip2", ModelKind.NOSQ, 0.1, "sim")]
        batches = [BatchTiming(points=4, simulated=4, retried=2,
                               timed_out=1, failed=1, jobs=2)]
        text = format_run_report(points, batches)
        assert "task retries          2 (1 after timeout)" in text
        assert "points failed         1" in text

    def test_failed_point_reason_is_last_line(self):
        failure = FailedPoint(
            point=POINTS[0], kind="error",
            detail="Traceback (most recent call last):\n  ...\n"
                   "RuntimeError: injected fault", attempts=1)
        assert failure.reason == "RuntimeError: injected fault"


# -- shared runner guard -----------------------------------------------------

class TestSharedRunner:
    def test_conflicting_scale_raises(self, monkeypatch):
        from repro.harness import runner as runner_module
        monkeypatch.setattr(runner_module, "_SHARED", None)
        first = runner_module.shared_runner(0.25)
        assert runner_module.shared_runner(0.25) is first
        assert runner_module.shared_runner() is first   # no-arg: reuse
        with pytest.raises(ValueError, match="conflicting"):
            runner_module.shared_runner(0.5)

    def test_first_caller_fixes_scale(self, monkeypatch):
        from repro.harness import runner as runner_module
        monkeypatch.setattr(runner_module, "_SHARED", None)
        assert runner_module.shared_runner().scale is None
        with pytest.raises(ValueError):
            runner_module.shared_runner(0.25)


# -- cache robustness --------------------------------------------------------

class TestCacheRobustness:
    def entry(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", version="v1")
        key = cache.key_for_spec("bzip2", 50,
                                 ConfigSpec.from_overrides(ModelKind.DMDP))
        return cache, key

    def test_size_bytes_skips_vanished_entries(self, tmp_path,
                                               monkeypatch):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        vanished = cache.root / "ab" / ("f" * 64 + ".pkl")
        real = cache.entries()
        monkeypatch.setattr(ResultCache, "entries",
                            lambda self: real + [vanished])
        assert cache.size_bytes() > 0     # no OSError from the ghost

    def test_truncated_pickle_is_clean_miss_and_repaired(self, tmp_path):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:7])      # truncate
        assert cache.get(key) is None
        cache.put(key, {"stats": 2})                 # repair
        assert cache.get(key) == {"stats": 2}

    def test_garbage_bytes_are_clean_miss(self, tmp_path):
        cache, key = self.entry(tmp_path)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00not a pickle at all")
        assert cache.get(key) is None

    def test_unpicklable_payload_is_clean_miss(self, tmp_path):
        # GLOBAL opcode referencing a module that does not exist:
        # unpickling raises ModuleNotFoundError, which must read as a
        # miss rather than crash the sweep.
        cache, key = self.entry(tmp_path)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"cno_such_module_xyz\nMissing\n.")
        assert cache.get(key) is None
        cache.put(key, {"stats": 3})
        assert cache.get(key) == {"stats": 3}

    def test_format_version_bump_is_clean_miss(self, tmp_path,
                                               monkeypatch):
        from repro.harness import cache as cache_module
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        monkeypatch.setattr(cache_module, "FORMAT_VERSION",
                            FORMAT_VERSION + 1)
        bumped = ResultCache(root=tmp_path / "cache", version="v1")
        new_key = bumped.key_for_spec(
            "bzip2", 50, ConfigSpec.from_overrides(ModelKind.DMDP))
        assert new_key != key
        assert bumped.get(new_key) is None           # miss, no crash
        bumped.put(new_key, {"stats": 2})            # repaired going forward
        assert bumped.get(new_key) == {"stats": 2}

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        orphan_dir = cache.root / "ab"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        orphan = orphan_dir / "deadsession.tmp"
        orphan.write_bytes(b"partial write")
        assert len(cache.tmp_files()) == 1
        assert cache.gc() == 1
        assert cache.tmp_files() == []
        assert cache.get(key) == {"stats": 1}        # entries untouched

    def test_gc_respects_min_age(self, tmp_path):
        cache, _ = self.entry(tmp_path)
        orphan_dir = cache.root / "cd"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        (orphan_dir / "fresh.tmp").write_bytes(b"x")
        assert cache.gc(min_age_seconds=3600.0) == 0
        assert cache.gc() == 1

    def test_clear_sweeps_tmp_files_too(self, tmp_path):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        orphan_dir = cache.root / "ef"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        (orphan_dir / "dead.tmp").write_bytes(b"x")
        assert cache.clear() == 1                    # one .pkl entry
        assert cache.entries() == []
        assert cache.tmp_files() == []


# -- CLI surface -------------------------------------------------------------

class TestResilienceCli:
    def run_cli(self, *argv):
        import io
        from repro.cli import main
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_cache_gc_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        orphan_dir = tmp_path / "c" / "ab"
        orphan_dir.mkdir(parents=True)
        (orphan_dir / "dead.tmp").write_bytes(b"x")
        # One orphan in each other tree: the traces/ tree is shared by
        # the .trc and .pre kinds, so a .pre temp file must count once.
        bundle_dir = tmp_path / "c" / "traces" / "cd"
        bundle_dir.mkdir(parents=True)
        (bundle_dir / "dead.pre.tmp").write_bytes(b"x")
        ledger_dir = tmp_path / "c" / "ledgers"
        ledger_dir.mkdir()
        (ledger_dir / "run.jsonl.tmp").write_bytes(b"x")
        code, text = self.run_cli("cache", "info")
        assert code == 0
        assert re.search(r"orphaned tmp\s+3\b", text)
        code, text = self.run_cli("cache", "gc")
        assert code == 0
        assert "swept 3 orphaned temp file(s)" in text
        code, text = self.run_cli("cache", "info")
        assert code == 0
        assert re.search(r"orphaned tmp\s+0\b", text)

    def test_compare_recovers_from_injected_kill(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "kill:workload=tonto,once")
        code, text = self.run_cli("--scale", str(SCALE), "--jobs", "2",
                                  "--backoff", "0", "compare", "tonto")
        assert code == 0
        for model in ("baseline", "nosq", "dmdp", "perfect"):
            assert model in text
        assert "Failed simulation points" not in text

    def test_failure_table_instead_of_stack_trace(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "raise:workload=tonto")
        code, text = self.run_cli("--scale", str(SCALE), "--jobs", "2",
                                  "--retries", "1", "--backoff", "0",
                                  "compare", "tonto")
        assert code == 1
        assert "Failed simulation points" in text
        assert "re-run to resume" in text
        assert "Traceback" not in text.split("Failed simulation")[0]

    def test_keep_going_renders_partial_table(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "raise:workload=tonto")
        code, text = self.run_cli("--scale", str(SCALE), "--jobs", "2",
                                  "--retries", "0", "--backoff", "0",
                                  "--keep-going", "compare", "tonto")
        assert code == 1
        assert "under the four models" in text     # partial table rendered
        assert "Failed simulation points" in text

    def test_run_applies_retry_policy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "nospawn")   # irrelevant to run
        code, text = self.run_cli("--scale", str(SCALE), "run", "bzip2",
                                  "--model", "dmdp")
        assert code == 0 and "ipc" in text
