"""Experiment harness: runner, cache, parallel engine, reproductions."""

from .cache import (LedgerDir, NullCache, PrecomputeStore, ResultCache,
                    TraceStore, code_version, default_cache_dir,
                    default_ledger_dir, functional_version,
                    precompute_version)
from .resilience import (BatchFailure, FailedPoint, FaultInjector,
                         RetryPolicy, parse_fault_spec)
from .parallel import (BatchTiming, ParallelEngine, PointTiming, SimPoint,
                       make_point, spec_point)
from .runner import ExperimentRunner, SimResult, shared_runner
from .reporting import (format_failure_table, format_point_log,
                        format_run_report, format_table, geomean, percent,
                        shape_check, speedup)
from .experiments import ALL_EXPERIMENTS, ExperimentResult
from . import hotloop, paper_data, sweepbench

__all__ = [
    "ExperimentRunner", "SimResult", "shared_runner",
    "LedgerDir", "NullCache", "PrecomputeStore", "ResultCache", "TraceStore",
    "code_version", "default_cache_dir", "default_ledger_dir",
    "functional_version", "precompute_version",
    "BatchFailure", "FailedPoint", "FaultInjector", "RetryPolicy",
    "parse_fault_spec",
    "BatchTiming", "ParallelEngine", "PointTiming", "SimPoint", "make_point",
    "spec_point",
    "format_failure_table", "format_point_log", "format_run_report",
    "format_table", "geomean", "percent", "shape_check", "speedup",
    "ALL_EXPERIMENTS", "ExperimentResult", "hotloop", "paper_data",
    "sweepbench",
]
