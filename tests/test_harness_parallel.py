"""Determinism and caching tests for the parallel experiment engine.

The contract under test (DESIGN.md Section 8): fanning a figure's point
set over worker processes must be *observationally identical* to the
serial run -- byte-identical rendered output -- and a warm persistent
cache must satisfy a repeat session without a single simulation.
"""

import pytest

from repro.config import ConfigSpec
from repro.harness.cache import ResultCache
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.parallel import SimPoint, make_point
from repro.harness.runner import ExperimentRunner
from repro.uarch import ModelKind

SCALE = 0.05
WORKLOADS = ["bzip2", "tonto"]


def runner_with(tmp_path, name, jobs=1, scale=SCALE):
    return ExperimentRunner(scale=scale, jobs=jobs,
                            cache=ResultCache(root=tmp_path / name))


def test_parallel_fig12_identical_to_serial(tmp_path):
    fig12 = ALL_EXPERIMENTS["fig12"]
    serial = runner_with(tmp_path, "serial", jobs=1)
    parallel = runner_with(tmp_path, "parallel", jobs=4)

    serial_text = fig12(serial, workloads=WORKLOADS).render()
    parallel_text = fig12(parallel, workloads=WORKLOADS).render()

    assert parallel_text == serial_text
    assert serial.points_simulated() == parallel.points_simulated() > 0
    # The parallel runner really fanned out (a batch with jobs=4 ran).
    fanout = [b for b in parallel.batch_log if b.simulated and b.jobs == 4]
    assert fanout, "expected at least one fanned-out batch"


def test_warm_cache_performs_zero_simulations(tmp_path):
    fig12 = ALL_EXPERIMENTS["fig12"]
    cold = ExperimentRunner(scale=SCALE,
                            cache=ResultCache(root=tmp_path / "shared"))
    cold_text = fig12(cold, workloads=WORKLOADS).render()
    assert cold.points_simulated() > 0

    warm = ExperimentRunner(scale=SCALE,
                            cache=ResultCache(root=tmp_path / "shared"))
    warm_text = fig12(warm, workloads=WORKLOADS).render()
    assert warm_text == cold_text
    assert warm.points_simulated() == 0
    assert warm.points_from_cache() == cold.points_simulated()


def test_parameter_change_invalidates_cache(tmp_path):
    first = runner_with(tmp_path, "shared")
    first.run("bzip2", ModelKind.DMDP, store_buffer_entries=32)
    assert first.points_simulated() == 1

    # Same point -> served from disk; changed override -> fresh simulation.
    second = runner_with(tmp_path, "shared")
    second.run("bzip2", ModelKind.DMDP, store_buffer_entries=32)
    assert second.points_simulated() == 0
    second.run("bzip2", ModelKind.DMDP, store_buffer_entries=16)
    assert second.points_simulated() == 1


def test_scale_change_invalidates_cache(tmp_path):
    first = runner_with(tmp_path, "shared", scale=0.05)
    first.run("bzip2", ModelKind.NOSQ)
    second = runner_with(tmp_path, "shared", scale=0.10)
    second.run("bzip2", ModelKind.NOSQ)
    assert second.points_simulated() == 1


def test_code_version_invalidates_cache(tmp_path):
    old = ExperimentRunner(scale=SCALE,
                           cache=ResultCache(root=tmp_path / "shared",
                                             version="deadbeef00000000"))
    old.run("bzip2", ModelKind.NOSQ)

    new = ExperimentRunner(scale=SCALE,
                           cache=ResultCache(root=tmp_path / "shared",
                                             version="cafef00d00000000"))
    new.run("bzip2", ModelKind.NOSQ)
    assert new.points_simulated() == 1

    same = ExperimentRunner(scale=SCALE,
                            cache=ResultCache(root=tmp_path / "shared",
                                              version="cafef00d00000000"))
    same.run("bzip2", ModelKind.NOSQ)
    assert same.points_simulated() == 0


def test_run_batch_deduplicates_points(tmp_path):
    runner = runner_with(tmp_path, "dedup")
    point = make_point("bzip2", ModelKind.DMDP)
    results = runner.run_batch([point, point, SimPoint("bzip2",
                                                       ModelKind.DMDP)])
    assert len(results) == 1
    assert runner.points_simulated() == 1
    assert runner.batch_log[-1].points == 1


def test_no_cache_runner_leaves_disk_untouched(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
    runner = ExperimentRunner(scale=SCALE, use_cache=False)
    runner.run("bzip2", ModelKind.DMDP)
    assert not (tmp_path / "never").exists()


def test_overrides_key_is_order_insensitive(tmp_path):
    cache = ResultCache(root=tmp_path, version="v")
    key_a = cache.key_for_spec("bzip2", 50, ConfigSpec.from_overrides(
        ModelKind.DMDP, rob_entries=128, store_buffer_entries=16))
    key_b = cache.key_for_spec("bzip2", 50, ConfigSpec.from_overrides(
        ModelKind.DMDP, store_buffer_entries=16, rob_entries=128))
    assert key_a == key_b
