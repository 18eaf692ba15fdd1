"""Golden-stats equivalence suite.

``tests/golden/golden_stats.json`` pins the full ``SimStats.to_dict()``
image of every model kind over a deterministic workload sample, generated
from the simulator *before* the hot-loop optimisations (event-driven cycle
skipping, decode template cache, object diet) landed.  These tests run the
current simulator directly -- no result cache, no harness memo -- and
assert byte-identical statistics, so any behavioural drift in performance
work fails loudly instead of silently changing paper numbers.  Every
point runs three ways: with a precompute bundle the Simulator builds
itself under the null and the recording tracer, and (``bundle``) against
one bundle shared by all four models of the workload, the path sweeps
take.

Regenerate (only for intentional behaviour changes):
``PYTHONPATH=src python tools/gen_golden_stats.py``.
"""

import json
from pathlib import Path

import pytest

from repro.kernel import FunctionalCpu
from repro.kernel.precompute import TracePrecompute, bpred_signature
from repro.obs import NullTracer, RecordingTracer
from repro.uarch import ModelKind, model_params
from repro.uarch.pipeline import Simulator
from repro.workloads import get_workload

# Tracers are read-only observers: the pinned statistics must hold with
# tracing off (the default NullTracer) and with full event recording on.
TRACERS = {"null": NullTracer, "recording": RecordingTracer}

# Null tracer, one TracePrecompute shared by every model of a workload.
MODES = sorted(TRACERS) + ["bundle"]

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_stats.json"

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

_TRACES = {}
_BUNDLES = {}


def _trace_for(workload):
    """Build each workload's program/trace once per test session."""
    if workload not in _TRACES:
        meta = GOLDEN["workloads"][workload]
        program = get_workload(workload).build(meta["iterations"])
        trace = FunctionalCpu(program).run_trace(max_instructions=5_000_000)
        assert len(trace) == meta["trace_length"], (
            "workload %r drifted: trace length %d != pinned %d"
            % (workload, len(trace), meta["trace_length"]))
        _TRACES[workload] = (program, trace)
    return _TRACES[workload]


def _bundle_for(workload):
    """One shared bundle per workload, as run_batch resolves it."""
    if workload not in _BUNDLES:
        _program, trace = _trace_for(workload)
        _BUNDLES[workload] = TracePrecompute.build(
            trace, bpred_signature(model_params(ModelKind.BASELINE)))
    return _BUNDLES[workload]


def _points():
    for key in sorted(GOLDEN["points"]):
        workload, model = key.split("/")
        yield pytest.param(workload, ModelKind(model), id=key)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload, model", _points())
def test_stats_match_pinned_golden(workload, model, mode):
    program, trace = _trace_for(workload)
    if mode == "bundle":
        bundle = _bundle_for(workload)
        sim = Simulator(program, trace, model_params(model),
                        precompute=bundle)
        assert sim._pre is bundle
    else:
        sim = Simulator(program, trace, model_params(model),
                        tracer=TRACERS[mode]())
    got = sim.run().to_dict()
    want = GOLDEN["points"]["%s/%s" % (workload, model.value)]
    if got != want:
        diff = {k: (want.get(k), got.get(k))
                for k in set(want) | set(got) if want.get(k) != got.get(k)}
        pytest.fail("SimStats diverged from golden for %s/%s (mode=%s): %r"
                    % (workload, model.value, mode, diff))


def test_golden_covers_every_model():
    models = {key.split("/")[1] for key in GOLDEN["points"]}
    assert models == {m.value for m in ModelKind}
