"""Property-based invariants of the timing pipeline.

Hypothesis generates small occasionally-colliding kernels (random hot-set
sizes, iteration counts, access sizes) and every model must:

* complete every instruction,
* drain every in-flight structure and balance the physical-register
  books exactly after the run,
* leave the timing memory equal to the functional machine's memory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import ProgramBuilder
from repro.kernel import FunctionalCpu
from repro.uarch import ALL_MODELS, ModelKind, Simulator, model_params


def build_kernel(iterations, slots, use_half, seed):
    b = ProgramBuilder()
    b.data_label("idx")
    values = []
    state = seed or 1
    for _ in range(iterations):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        values.append((state >> 8) % slots)
    b.word(*[v * 4 for v in values])
    b.data_label("x")
    b.word(*([0] * slots))
    b.label("main")
    b.la("$s0", "idx")
    b.la("$s1", "x")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.sll("$t1", "$t0", 2)
    b.add("$t1", "$s0", "$t1")
    b.lw("$t2", 0, "$t1")
    b.add("$t3", "$s1", "$t2")
    if use_half:
        b.lhu("$t4", 0, "$t3")
        b.addi("$t4", "$t4", 1)
        b.sh("$t4", 0, "$t3")
    else:
        b.lw("$t4", 0, "$t3")
        b.addi("$t4", "$t4", 1)
        b.sw("$t4", 0, "$t3")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


@st.composite
def kernels(draw):
    iterations = draw(st.integers(20, 120))
    slots = draw(st.sampled_from([2, 4, 16, 64]))
    use_half = draw(st.booleans())
    seed = draw(st.integers(1, 10_000))
    return build_kernel(iterations, slots, use_half, seed)


class TestPipelineInvariants:
    @given(kernels(), st.sampled_from(list(ALL_MODELS)))
    @settings(max_examples=25, deadline=None)
    def test_books_balance_under_random_oc_kernels(self, prog, model):
        cpu = FunctionalCpu(prog)
        trace = cpu.run_trace()
        sim = Simulator(prog, trace, model_params(model))
        stats = sim.run()

        # Everything retired, nothing left in flight.
        assert stats.instructions == len(trace)
        assert not sim.rob and sim.sb.is_empty
        assert sim.iq_occupancy == 0
        assert not sim.blocked_loads
        assert not sim.ready_heap
        assert not sim.ssn_wake_heap
        assert sim.ssn.rename == sim.ssn.retire == sim.ssn.commit

        # Physical register books balance exactly: at drain every register
        # is either free or mapped by the committed map (a leaked register
        # is neither).
        prf = sim.prf
        live = set(sim.committed_map)
        total = prf.num_pregs + prf.aux_regs
        free = prf.free_count + prf.free_aux_count
        assert free + len(live) == total
        for preg in live:
            assert prf.producer[preg] >= 1

        # The committed memory image matches the architectural result.
        for entry in trace:
            if entry.is_store:
                assert sim.timing_mem.read(entry.mem_addr, entry.mem_size) \
                    == cpu.memory.read(entry.mem_addr, entry.mem_size)

    @given(kernels())
    @settings(max_examples=10, deadline=None)
    def test_perfect_upper_bounds_nosq(self, prog):
        """The oracle never loses to prediction-based NoSQ by more than
        a small silent-store-value-locality margin (DESIGN.md §7)."""
        trace = FunctionalCpu(prog).run_trace()
        perfect = Simulator(prog, trace,
                            model_params(ModelKind.PERFECT)).run()
        nosq = Simulator(prog, trace, model_params(ModelKind.NOSQ)).run()
        assert perfect.ipc >= 0.9 * nosq.ipc
        assert perfect.dep_mispredictions == 0
