"""Focused behavioural tests of pipeline mechanisms (front end, energy
event routing, structural limits, call/return timing)."""

import pytest

from repro.isa import ProgramBuilder
from repro.kernel import FunctionalCpu
from repro.uarch import ModelKind, Simulator, model_params


def simulate(prog, model=ModelKind.DMDP, **overrides):
    trace = FunctionalCpu(prog).run_trace()
    sim = Simulator(prog, trace, model_params(model, **overrides))
    return sim.run(), sim


def branchy_kernel(iterations=400):
    """Data-dependent branches over pseudo-random data: mispredicts."""
    b = ProgramBuilder()
    from repro.workloads import lcg_sequence
    b.data_label("data")
    b.word(*lcg_sequence(iterations, 2, seed=77))
    b.label("main")
    b.la("$s0", "data")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.sll("$t1", "$t0", 2)
    b.add("$t1", "$s0", "$t1")
    b.lw("$t2", 0, "$t1")
    b.beqz("$t2", "skip")
    b.addi("$s1", "$s1", 1)
    b.label("skip")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


def call_kernel(iterations=200):
    b = ProgramBuilder()
    b.label("main")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.jal("leaf")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    b.label("leaf")
    b.addi("$s1", "$s1", 1)
    b.jr("$ra")
    return b.build()


def straightline_kernel(iterations=300):
    b = ProgramBuilder()
    b.label("main")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.addi("$t1", "$t0", 1)
    b.addi("$t2", "$t1", 1)
    b.addi("$t3", "$t2", 1)
    b.addi("$t4", "$t3", 1)
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


class TestFrontEnd:
    def test_branch_mispredictions_counted(self):
        stats, _ = simulate(branchy_kernel())
        assert stats.branch_mispredicts > 10

    def test_mispredictions_cost_cycles(self):
        """The same instruction mix with a predictable pattern runs faster."""
        random_stats, _ = simulate(branchy_kernel())
        # All-zero data: the branch is always taken the same way.
        b = branchy_kernel.__wrapped__ if hasattr(branchy_kernel, "__wrapped__") else None
        predictable = ProgramBuilder()
        predictable.data_label("data")
        predictable.word(*([1] * 400))
        predictable.label("main")
        predictable.la("$s0", "data")
        predictable.li("$t0", 0)
        predictable.li("$t9", 400)
        predictable.label("loop")
        predictable.sll("$t1", "$t0", 2)
        predictable.add("$t1", "$s0", "$t1")
        predictable.lw("$t2", 0, "$t1")
        predictable.beqz("$t2", "skip")
        predictable.addi("$s1", "$s1", 1)
        predictable.label("skip")
        predictable.addi("$t0", "$t0", 1)
        predictable.blt("$t0", "$t9", "loop")
        predictable.halt()
        steady_stats, _ = simulate(predictable.build())
        assert steady_stats.branch_mispredicts < random_stats.branch_mispredicts
        assert steady_stats.ipc > random_stats.ipc

    def test_call_return_pairs_predict_well(self):
        stats, _ = simulate(call_kernel())
        # The RAS covers returns; only cold BTB misses remain.
        assert stats.branch_mispredicts < 0.05 * stats.branches

    def test_jal_writes_link_register(self):
        stats, sim = simulate(call_kernel(50))
        assert stats.instructions == len(sim.trace)


class TestEnergyEventRouting:
    def test_model_specific_structures(self):
        prog = _mini_mem_kernel()
        base, _ = simulate(prog, ModelKind.BASELINE)
        dmdp, _ = simulate(prog, ModelKind.DMDP)
        assert base.energy_events["sq_cam_search"] > 0
        assert base.energy_events["tssbf_access"] == 0
        assert dmdp.energy_events["tssbf_access"] > 0
        assert dmdp.energy_events["sq_cam_search"] == 0

    def test_front_end_energy_counted(self):
        stats, _ = simulate(straightline_kernel())
        assert stats.energy_events["fetch_decode"] >= stats.instructions
        assert stats.energy_events["rename"] == stats.uops


def _mini_mem_kernel(iterations=150):
    b = ProgramBuilder()
    b.data_label("buf")
    b.word(*([0] * 8))
    b.label("main")
    b.la("$s0", "buf")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.andi("$t1", "$t0", 0x1C)
    b.add("$t2", "$s0", "$t1")
    b.sw("$t0", 0, "$t2")
    b.lw("$t3", 0, "$t2")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


class TestStructuralLimits:
    def test_tiny_iq_still_completes(self):
        stats, _ = simulate(_mini_mem_kernel(), iq_entries=8)
        assert stats.instructions > 0

    def test_tiny_rob_still_completes(self):
        stats, _ = simulate(_mini_mem_kernel(), rob_entries=16)
        assert stats.instructions > 0

    def test_bigger_rob_never_slower_on_independent_work(self):
        small, _ = simulate(straightline_kernel(), rob_entries=16)
        big, _ = simulate(straightline_kernel(), rob_entries=256)
        assert big.cycles <= small.cycles

    def test_single_load_port_throttles(self):
        many, _ = simulate(_mini_mem_kernel(), load_ports=4)
        one, _ = simulate(_mini_mem_kernel(), load_ports=1)
        assert one.cycles >= many.cycles

    def test_uop_accounting(self):
        stats, _ = simulate(_mini_mem_kernel(), ModelKind.BASELINE)
        # Each iteration: 4 plain ALU/branch-ish uops + AGI+SQ for the
        # store + AGI+LOAD for the load.
        assert stats.uops > stats.instructions


class TestTimingMemoryConsistency:
    def test_final_memory_matches_functional_execution(self):
        """After the run drains, the timing memory must equal the
        functional machine's memory for every touched store address."""
        prog = _mini_mem_kernel()
        cpu = FunctionalCpu(prog)
        trace = cpu.run_trace()
        for model in (ModelKind.BASELINE, ModelKind.NOSQ, ModelKind.DMDP,
                      ModelKind.PERFECT):
            sim = Simulator(prog, trace, model_params(model))
            sim.run()
            for entry in trace:
                if entry.is_store:
                    assert sim.timing_mem.read(entry.mem_addr,
                                               entry.mem_size) == \
                        cpu.memory.read(entry.mem_addr, entry.mem_size), model


class TestTickHook:
    def test_hook_called_every_cycle(self):
        prog = straightline_kernel(50)
        from repro.kernel import FunctionalCpu
        from repro.uarch import ModelKind, Simulator, model_params
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.DMDP))
        calls = []
        sim.tick_hook = lambda s: calls.append(s.cycle)
        stats = sim.run()
        assert len(calls) == stats.cycles
        assert calls == sorted(calls)

    def test_invalidation_injection_mid_run_causes_reexecutions(self):
        """Section IV-F end to end: invalidations force silent
        re-executions of vulnerable *direct* loads (cloaked loads verify
        against their store's own younger T-SSBF entry and are immune)."""
        from repro.isa import ProgramBuilder
        b = ProgramBuilder()
        b.data_label("src")
        b.word(*range(64))
        b.label("main")
        b.la("$s0", "src")
        b.li("$t0", 0)
        b.li("$t9", 600)
        b.label("loop")
        b.andi("$t1", "$t0", 0x3F)
        b.sll("$t1", "$t1", 2)
        b.add("$t2", "$s0", "$t1")
        b.lw("$t3", 0, "$t2")        # NC direct load: vulnerable
        b.add("$s1", "$s1", "$t3")
        b.addi("$t0", "$t0", 1)
        b.blt("$t0", "$t9", "loop")
        b.halt()
        prog = b.build()
        from repro.kernel import FunctionalCpu
        from repro.uarch import ModelKind, Simulator, model_params
        trace = FunctionalCpu(prog).run_trace()

        quiet = Simulator(prog, trace, model_params(ModelKind.DMDP))
        quiet_stats = quiet.run()

        noisy = Simulator(prog, trace, model_params(ModelKind.DMDP))
        noisy.tick_hook = (lambda s: s.inject_invalidation(prog.data_base)
                           if s.cycle % 50 == 25 else None)
        noisy_stats = noisy.run()
        assert noisy_stats.reexecutions > quiet_stats.reexecutions


class TestStoreSetsSquashRecovery:
    def test_baseline_namd_drains_after_violation_squash(self):
        """After a violation squash the LFST can still name a squashed
        *younger* store instance; a re-renamed load must not wait on its
        re-renamed (younger) twin, which can never execute first."""
        from repro.uarch.stats import SquashCause
        from repro.workloads import get_workload
        prog = get_workload("namd").build(100)
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.BASELINE))
        stats = sim.run(max_cycles=50_000)
        assert stats.instructions == len(trace)
        assert stats.squash_causes[SquashCause.MEM_DEP_VIOLATION] > 0


class TestDelayedLoadWakeList:
    """NoSQ delayed loads park on a heap keyed by their predicted store's
    SSN and wake when SSN_commit reaches it, instead of being re-polled on
    every issue pass."""

    @staticmethod
    def _instrumented_run():
        from repro.obs.tracer import PipelineTracer
        from repro.workloads import get_workload

        class IssueProbe(PipelineTracer):
            enabled = True

            def __init__(self):
                self.issued = []

            def on_issue(self, uop, cycle):
                self.issued.append((uop, cycle, uop.dead))

        prog = get_workload("bzip2").build(50)
        trace = FunctionalCpu(prog).run_trace()
        probe = IssueProbe()
        sim = Simulator(prog, trace, model_params(ModelKind.NOSQ),
                        tracer=probe)
        # SSN_commit only grows: log (cycle, value) at every change.
        commits = []
        on_commit = sim.ssn.on_commit

        def logged_commit(ssn):
            before = sim.ssn.commit
            on_commit(ssn)
            if sim.ssn.commit != before:
                commits.append((sim.cycle, sim.ssn.commit))
        sim.ssn.on_commit = logged_commit
        squashes = []
        squash = sim._squash_younger

        def logged_squash(load):
            parked = len(sim.ssn_wake_heap)
            squash(load)
            squashes.append((parked, len(sim.ssn_wake_heap)))
        sim._squash_younger = logged_squash
        stats = sim.run()
        return stats, sim, probe.issued, commits, squashes

    def test_delayed_loads_issue_only_after_their_store_commits(self):
        from repro.uarch.stats import LoadKind
        from repro.uarch.uops import UopKind
        stats, sim, issued, commits, _ = self._instrumented_run()
        assert stats.delayed_loads > 0
        delayed = [(uop.instr.load.ssn_byp, cycle) for uop, cycle, _ in issued
                   if uop.kind is UopKind.LOAD
                   and uop.instr.load.mode is LoadKind.DELAYED]
        assert delayed
        for ssn_byp, cycle in delayed:
            reached = next(c for c, commit in commits if commit >= ssn_byp)
            assert cycle >= reached, (ssn_byp, cycle, reached)
        assert not sim.ssn_wake_heap

    def test_squash_empties_wake_heap_and_issues_no_dead_uop(self):
        _, _, issued, _, squashes = self._instrumented_run()
        assert any(parked for parked, _ in squashes), \
            "no squash hit while delayed loads were parked"
        assert all(after == 0 for _, after in squashes)
        assert not any(dead for _, _, dead in issued)
