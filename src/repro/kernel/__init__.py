"""Functional simulation substrate: memory, interpreter CPU, dynamic traces."""

from .memory import SparseMemory
from .cpu import (ExecutionError, FunctionalCpu, alu_result, run_program,
                  run_trace_packed, sign_extend, to_signed, to_unsigned)
from .trace import (MAX_TRACE_INSTRUCTIONS, TraceEntry, TraceRecorder,
                    trace_summary)
from .tracestore import (TRACE_FORMAT_VERSION, ColumnarTraceRecorder,
                         PackedTrace, TraceDecodeError, TraceEncodeError,
                         load_trace, pack_trace, write_trace)

__all__ = [
    "SparseMemory", "ExecutionError", "FunctionalCpu", "alu_result",
    "run_program", "sign_extend", "to_signed", "to_unsigned",
    "MAX_TRACE_INSTRUCTIONS", "TraceEntry", "TraceRecorder", "trace_summary",
    "TRACE_FORMAT_VERSION", "ColumnarTraceRecorder", "PackedTrace",
    "TraceDecodeError", "TraceEncodeError", "load_trace", "pack_trace",
    "run_trace_packed", "write_trace",
]
