"""Whole-trace precompute bundles: tables, serialisation, batching.

Four layers under test (DESIGN.md Section 14):

* the tables -- :class:`TracePrecompute` (the Simulator's only setup
  path) must reproduce exactly an independent sequential reference: a
  :class:`BranchPredictor` replay plus the global-history shift register
  over list-recorded :class:`TraceEntry` objects, and a ``_Decoded``
  template per entry;
* the golden bar -- SimStats must be byte-identical whether a point is
  simulated with a bundle the Simulator builds itself or one shared
  across configurations, on every model;
* the blob -- serialisation round-trips through bytes and through an
  mmap'd file, and every corruption (truncated, flipped byte, bad
  magic, format bump, wrong trace, wrong signature) raises
  :class:`PrecomputeDecodeError`, which the store reads as a clean miss;
* the batching -- batch submissions resolve exactly one bundle per
  distinct trace (cold: built, warm store: loaded -- never rebuilt),
  asserted through the runner counters and :class:`BatchTiming`.
"""

import random

import pytest

import repro.kernel.precompute as precompute_mod
from repro.harness.cache import PrecomputeStore, ResultCache, TraceStore
from repro.harness.parallel import make_point
from repro.harness.runner import ExperimentRunner
from repro.kernel import (FunctionalCpu, MAX_TRACE_INSTRUCTIONS,
                          TraceRecorder, pack_trace)
from repro.kernel.precompute import (PRECOMPUTE_FORMAT_VERSION,
                                     PrecomputeDecodeError, TracePrecompute,
                                     bpred_signature, load_precompute,
                                     write_precompute)
from repro.uarch import (ALL_MODELS, BranchPredictor, ModelKind,
                         PredictorParams, Simulator, model_params)
from repro.uarch.pipeline import _Decoded
from repro.workloads import get_workload

from .test_differential_oracle import SEED, build_random_program

DEFAULT_SIG = bpred_signature(model_params(ModelKind.BASELINE))

DECODED_FIELDS = ("is_load", "is_store", "is_mem", "is_control",
                  "is_cond_branch", "src_regs", "dest_reg", "fu", "latency",
                  "is_partial", "rs", "rt", "rd", "uop_estimate", "uop_kind",
                  "uop_fu", "uop_srcs", "uop_dest")


def small_workload(name="mcf", fraction=0.1):
    spec = get_workload(name)
    iterations = max(1, int(round(spec.default_scale * fraction)))
    return spec.build(iterations)


def record_entries(program, max_instructions=MAX_TRACE_INSTRUCTIONS):
    """The list ``TraceRecorder``'s entries for ``program``."""
    recorder = TraceRecorder()
    FunctionalCpu(program).run(max_instructions=max_instructions,
                               recorder=recorder)
    return recorder.entries


def packed_case(name="mcf", fraction=0.1):
    """(program, list-recorded entries, packed trace) for a workload."""
    program = small_workload(name, fraction)
    packed = FunctionalCpu(program).run_trace(
        max_instructions=MAX_TRACE_INSTRUCTIONS)
    return program, record_entries(program), packed


def random_packed(index):
    rng = random.Random(SEED + index)
    program = build_random_program(rng)
    return program, FunctionalCpu(program).run_trace(
        max_instructions=200_000)


def sequential_reference(entries, params):
    """Per-entry (mispredicted, history) the slow, obvious way: replay the
    branch predictor over every control entry in order and shift each
    conditional branch's outcome into the global-history register."""
    bpred = BranchPredictor(params.bpred_table_bits, params.btb_entries)
    mask = (1 << params.predictor.history_bits) - 1
    history = 0
    mispredicted, histories = [], []
    for entry in entries:
        histories.append(history)
        hit = True
        if entry.instr.is_control:
            hit = bpred.predict_and_update(entry.pc, entry.instr,
                                           entry.taken, entry.next_pc)
            if entry.instr.is_cond_branch:
                history = ((history << 1) | int(entry.taken)) & mask
        mispredicted.append(not hit)
    return mispredicted, histories


def long_history(model=ModelKind.BASELINE, bits=12):
    return model_params(model, predictor=PredictorParams(history_bits=bits))


class TestBundleTables:
    def test_tables_match_simulator_own_precompute(self):
        # A Simulator given no bundle builds its own; its tables must
        # match the sequential reference, also under a history length
        # other than the default.
        program, entries, packed = packed_case()
        for params in (model_params(ModelKind.DMDP),
                       long_history(ModelKind.DMDP)):
            sim = Simulator(program, packed, params)
            mispredicted, history = sequential_reference(entries, params)
            assert sim._mispredicted == mispredicted
            assert sim._history == history
            assert len(sim._dec_by_index) == len(entries)
            for dec, entry in zip(sim._dec_by_index, entries):
                want = _Decoded(entry.instr, params)
                for field in DECODED_FIELDS:
                    assert getattr(dec, field) == getattr(want, field)

    def test_random_programs_tables_match(self):
        for index in range(4):
            program, packed = random_packed(index)
            entries = record_entries(program, max_instructions=200_000)
            for params in (model_params(ModelKind.BASELINE),
                           long_history(bits=5)):
                bundle = TracePrecompute.build(packed,
                                               bpred_signature(params))
                mispredicted, history = sequential_reference(entries, params)
                assert bundle.mispredicted_list() == mispredicted
                assert bundle.history_list() == history

    def test_matches_rejects_overridden_predictor_geometry(self):
        _program, _entries, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        params = model_params(ModelKind.BASELINE)
        assert bundle.matches(packed, params)
        overridden = model_params(ModelKind.BASELINE,
                                  bpred_table_bits=DEFAULT_SIG[0] + 1)
        assert not bundle.matches(packed, overridden)

    def test_decode_index_memoised_per_latency_signature(self):
        _program, _entries, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        base = model_params(ModelKind.BASELINE)
        dmdp = model_params(ModelKind.DMDP)
        assert bundle.decode_index(base) is bundle.decode_index(dmdp)
        slow = model_params(ModelKind.BASELINE,
                            mul_latency=base.mul_latency + 1)
        assert bundle.decode_index(slow) is not bundle.decode_index(base)

    def test_entry_list_is_built_once_and_shared(self):
        program, _entries, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        entries = bundle.entry_list()
        assert bundle.entry_list() is entries   # one materialisation
        assert [e.index for e in entries[3:6]] == [3, 4, 5]
        assert entries[-1].index == len(packed) - 1
        assert len(entries) == len(packed)
        sim = Simulator(program, packed, model_params(ModelKind.DMDP),
                        precompute=bundle)
        assert sim.trace is entries             # shared, not copied

    def test_base_memory_matches_direct_segment_load(self):
        from repro.kernel.memory import SparseMemory
        program, _entries, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        direct = SparseMemory()
        direct.load_segment(program.data_base, program.data)
        copy = bundle.base_memory().copy()
        assert copy.snapshot() == direct.snapshot()
        # Writing through the copy must not leak into the shared image.
        copy.write_word(program.data_base, 0xDEADBEEF)
        assert bundle.base_memory().snapshot() == direct.snapshot()


class TestGoldenBatchedIdentity:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_stats_identical_list_packed_batched(self, model):
        # The list recorder's entries packed after the fact, the columnar
        # recorder's trace with a bundle the Simulator builds itself, and
        # the same trace with a shared bundle: one SimStats.
        program, entries, packed = packed_case()
        params = model_params(model)
        bundle = TracePrecompute.build(packed, bpred_signature(params))
        from_list = Simulator(program, pack_trace(program, entries),
                              params).run().to_dict()
        adhoc = Simulator(program, packed, params).run().to_dict()
        shared = Simulator(program, packed, params,
                           precompute=bundle).run().to_dict()
        assert adhoc == from_list
        assert shared == adhoc

    def test_bundle_reuse_across_configs_is_identical(self):
        # The whole point of batching: one bundle, many configs.
        program, _entries, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        for model in (ModelKind.BASELINE, ModelKind.DMDP):
            for overrides in ({}, {"store_buffer_entries": 8}):
                params = model_params(model, **overrides)
                adhoc = Simulator(program, packed, params).run().to_dict()
                shared = Simulator(program, packed, params,
                                   precompute=bundle).run().to_dict()
                assert shared == adhoc

    def test_overridden_geometry_falls_back_and_stays_identical(self):
        program, _entries, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        params = model_params(ModelKind.DMDP,
                              bpred_table_bits=DEFAULT_SIG[0] - 2)
        sim = Simulator(program, packed, params, precompute=bundle)
        assert sim._pre is not bundle          # built its own instead
        assert sim._pre.signature == bpred_signature(params)
        assert (sim.run().to_dict()
                == Simulator(program, packed, params).run().to_dict())

    def test_loaded_bundle_is_identical_to_built(self, tmp_path):
        program, _entries, packed = packed_case()
        params = model_params(ModelKind.DMDP)
        built = TracePrecompute.build(packed, DEFAULT_SIG)
        path = tmp_path / "mcf.pre"
        write_precompute(path, built)
        loaded = load_precompute(path, packed, DEFAULT_SIG)
        assert (Simulator(program, packed, params,
                          precompute=loaded).run().to_dict()
                == Simulator(program, packed, params).run().to_dict())

    def test_list_trace_is_rejected(self):
        program, entries, _packed = packed_case()
        with pytest.raises(TypeError, match="FunctionalCpu.run_trace"):
            Simulator(program, entries, model_params(ModelKind.DMDP))


class TestSerialization:
    def test_bytes_roundtrip(self):
        _program, packed = random_packed(1)
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        again = TracePrecompute.from_buffer(packed, bundle.to_bytes())
        assert again.signature == bundle.signature
        assert again.mispredicted_list() == bundle.mispredicted_list()
        assert again.history_list() == bundle.history_list()

    def test_file_roundtrip_via_mmap(self, tmp_path):
        _program, packed = random_packed(2)
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        path = tmp_path / "rand2.pre"
        write_precompute(path, bundle)
        loaded = load_precompute(path, packed, DEFAULT_SIG)
        assert loaded.mispredicted_list() == bundle.mispredicted_list()
        assert loaded.history_list() == bundle.history_list()

    def test_empty_trace_roundtrip(self):
        from repro.kernel import PackedTrace
        program, _entries, _packed = packed_case()
        empty = PackedTrace.from_entries(program, [])
        bundle = TracePrecompute.build(empty, DEFAULT_SIG)
        assert bundle.n == 0
        assert bundle.mispredicted_list() == []
        assert bundle.history_list() == []
        again = TracePrecompute.from_buffer(empty, bundle.to_bytes())
        assert again.n == 0

    def corrupt_cases(self, blob):
        yield blob[:len(blob) // 2]                      # truncated
        yield blob[:16]                                  # inside the header
        flipped = bytearray(blob)
        flipped[-1] ^= 0xFF                              # payload bit flip
        yield bytes(flipped)
        yield b"XXXX" + blob[4:]                         # bad magic
        bumped = bytearray(blob)
        bumped[4] ^= 0x7F                                # format version
        yield bytes(bumped)

    def test_every_corruption_raises_decode_error(self):
        _program, packed = random_packed(3)
        blob = TracePrecompute.build(packed, DEFAULT_SIG).to_bytes()
        for corrupt in self.corrupt_cases(blob):
            with pytest.raises(PrecomputeDecodeError):
                TracePrecompute.from_buffer(packed, corrupt)

    def test_wrong_trace_length_raises(self):
        _program, packed3 = random_packed(3)
        _program, packed4 = random_packed(4)
        blob = TracePrecompute.build(packed3, DEFAULT_SIG).to_bytes()
        if len(packed3) != len(packed4):
            with pytest.raises(PrecomputeDecodeError):
                TracePrecompute.from_buffer(packed4, blob)

    def test_wrong_signature_raises(self):
        _program, packed = random_packed(1)
        blob = TracePrecompute.build(packed, DEFAULT_SIG).to_bytes()
        other = (DEFAULT_SIG[0] + 1, DEFAULT_SIG[1], DEFAULT_SIG[2])
        with pytest.raises(PrecomputeDecodeError):
            TracePrecompute.from_buffer(packed, blob, other)
        # ...and without an expected signature the header's own wins.
        assert (TracePrecompute.from_buffer(packed, blob).signature
                == DEFAULT_SIG)


class TestPrecomputeStore:
    def store(self, tmp_path):
        return PrecomputeStore(root=tmp_path / "traces")

    def test_put_load_roundtrip_and_counters(self, tmp_path):
        store = self.store(tmp_path)
        _program, packed = random_packed(0)
        assert store.load("rand0", 10, packed, DEFAULT_SIG) is None
        assert store.misses == 1
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        path = store.put("rand0", 10, bundle)
        assert path.suffix == ".pre"
        loaded = store.load("rand0", 10, packed, DEFAULT_SIG)
        assert loaded is not None
        assert store.hits == 1
        assert loaded.mispredicted_list() == bundle.mispredicted_list()
        assert loaded.history_list() == bundle.history_list()

    def test_corrupt_blob_is_clean_miss(self, tmp_path):
        store = self.store(tmp_path)
        _program, packed = random_packed(0)
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        path = store.put("rand0", 10, bundle)
        path.write_bytes(path.read_bytes()[:40])
        assert store.load("rand0", 10, packed, DEFAULT_SIG) is None
        # ...and the next put repairs it.
        store.put("rand0", 10, bundle)
        assert store.load("rand0", 10, packed, DEFAULT_SIG) is not None

    def test_key_folds_signature_and_format_version(self, tmp_path,
                                                    monkeypatch):
        store = self.store(tmp_path)
        base = store.key_for("mcf", 100, DEFAULT_SIG)
        other_sig = (DEFAULT_SIG[0] + 1,) + DEFAULT_SIG[1:]
        assert store.key_for("mcf", 100, other_sig) != base
        assert store.key_for("mcf", 101, DEFAULT_SIG) != base
        assert store.key_for("lbm", 100, DEFAULT_SIG) != base
        monkeypatch.setattr(precompute_mod, "PRECOMPUTE_FORMAT_VERSION",
                            PRECOMPUTE_FORMAT_VERSION + 1)
        assert store.key_for("mcf", 100, DEFAULT_SIG) != base

    def test_blobs_live_beside_trace_blobs(self, tmp_path):
        # Same tree => cache info/clear/gc manage both blob kinds.
        runner = ExperimentRunner(
            scale=0.05, cache=ResultCache(root=tmp_path / "cache"),
            trace_store=TraceStore(root=tmp_path / "traces"))
        assert runner.precompute_store.root == tmp_path / "traces"
        runner.precompute_for("mcf")
        assert runner.precompute_store.entry_count() == 1
        assert runner.precompute_store.clear() == 1


class TestRunnerBatching:
    def runner(self, tmp_path, **kwargs):
        kwargs.setdefault("scale", 0.05)
        kwargs.setdefault("cache", ResultCache(root=tmp_path / "cache"))
        kwargs.setdefault("trace_store",
                          TraceStore(root=tmp_path / "traces"))
        return ExperimentRunner(**kwargs)

    def points(self):
        return [make_point(w, m, **o)
                for w in ("mcf", "lbm")
                for m in (ModelKind.BASELINE, ModelKind.DMDP)
                for o in ({}, {"store_buffer_entries": 8})]

    def test_cold_batch_builds_exactly_one_bundle_per_trace(self, tmp_path):
        runner = self.runner(tmp_path)
        out = runner.run_batch(self.points())
        assert len(out) == 8
        timing = runner.batch_log[-1]
        assert timing.precomputes_built == 2         # one per distinct trace
        assert timing.precomputes_loaded == 0
        assert timing.worker_precomputes_built == 0
        assert timing.precomputes == 2

    def test_warm_store_batch_loads_and_never_rebuilds(self, tmp_path):
        self.runner(tmp_path).run_batch(self.points())       # populate store
        warm = self.runner(tmp_path, cache=ResultCache(
            root=tmp_path / "cache2"))                # results cold, store warm
        out = warm.run_batch(self.points())
        assert len(out) == 8
        timing = warm.batch_log[-1]
        assert timing.precomputes_built == 0          # zero redundant builds
        assert timing.precomputes_loaded == 2
        assert warm.traces_generated == 0             # trace store warm too

    def test_warm_bundle_load_is_store_io_not_precompute(self, tmp_path):
        # Store reads and writes are "trace store I/O"; the "precompute"
        # phase is charged only for a build.
        cold = self.runner(tmp_path)
        cold.precompute_for("mcf")
        assert cold.phase_seconds["precompute"] > 0.0
        warm = self.runner(tmp_path)
        warm.trace("mcf")
        io_before = warm.phase_seconds["trace store I/O"]
        warm.precompute_for("mcf")
        assert warm.precomputes_loaded == 1
        assert warm.phase_seconds["precompute"] == 0.0
        assert warm.phase_seconds["trace store I/O"] > io_before

    def test_timing_simulation_phase_sums_batch_sim_seconds(self, tmp_path):
        # Serial and parallel batches charge each point's simulation time
        # to the "timing simulation" phase exactly once.
        runner = self.runner(tmp_path)
        runner.run_batch(self.points()[:2])
        runner.jobs = 2
        runner.run_batch(self.points()[2:6])
        want = sum(timing.sim_seconds for timing in runner.batch_log)
        assert want > 0.0
        assert runner.phase_seconds["timing simulation"] == pytest.approx(
            want, rel=1e-9)

    def test_batched_results_identical_to_unbatched(self, tmp_path):
        batched = self.runner(tmp_path)
        out = batched.run_batch(self.points())
        plain = ExperimentRunner(scale=0.05, use_cache=False)
        for point in self.points():
            want = plain.run(point.workload, point.model,
                             **dict(point.overrides)).stats.to_dict()
            assert out[point].stats.to_dict() == want

    def test_parallel_batch_workers_load_not_rebuild(self, tmp_path):
        self.runner(tmp_path).run_batch(self.points())       # populate store
        runner = self.runner(tmp_path, jobs=2, cache=ResultCache(
            root=tmp_path / "cache2"))
        out = runner.run_batch(self.points())
        assert len(out) == 8
        timing = runner.batch_log[-1]
        assert timing.worker_retraces == 0
        assert timing.worker_precomputes_built == 0
        assert timing.worker_precomputes_loaded >= 2
        assert timing.precomputes_built == 0

    def test_single_point_run_stays_precompute_free(self, tmp_path):
        # Per-point runs must not resolve a shared bundle through the
        # store (tools/speed_gates.py's warm_store leg depends on this
        # staying honest); the Simulator builds a private one instead.
        runner = self.runner(tmp_path)
        runner.run("mcf", ModelKind.DMDP)
        assert runner.precomputes_built == 0
        assert runner.precomputes_loaded == 0

    def test_attach_precompute_bad_blob_falls_back(self, tmp_path):
        runner = self.runner(tmp_path)
        path = tmp_path / "bogus.pre"
        path.write_bytes(b"not a bundle")
        assert not runner.attach_precompute("mcf", str(path))
        assert runner.precomputes_loaded == 0
        bundle = runner.precompute_for("mcf")          # falls back to build
        assert bundle is not None
        assert runner.precomputes_built == 1

    def test_ensure_precompute_populates_store(self, tmp_path):
        import os
        runner = self.runner(tmp_path)
        path = runner.ensure_precompute("mcf")
        assert path is not None and os.path.exists(path)
        fresh = self.runner(tmp_path, cache=ResultCache(
            root=tmp_path / "cache2"))
        assert fresh.attach_precompute("mcf", path)
        assert fresh.precomputes_loaded == 1
