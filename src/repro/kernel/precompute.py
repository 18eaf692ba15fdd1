"""Vectorized whole-trace precompute bundles (DESIGN.md section 14).

Every timing simulation starts from per-trace tables -- which trace
entries the front end mispredicts, the global branch history seen at
rename, the decode template per entry, the materialised entries -- and
an architectural memory image.  None of that depends on the sweep
configuration (only on the trace content and the branch-predictor
geometry).

:class:`TracePrecompute` is the only place those tables are built.  It
works directly on :class:`~repro.kernel.tracestore.PackedTrace` columns
(``np.frombuffer``, zero-copy) and is shared by every configuration and
worker that simulates the trace; a ``Simulator`` given no bundle (or
one that does not :meth:`~TracePrecompute.matches` its configuration)
builds its own through the same :meth:`~TracePrecompute.build`:

* ``mispredicted`` -- per-entry branch-outcome bitmap from a sequential
  :class:`~repro.uarch.branch.BranchPredictor` replay (the only pass
  that cannot be vectorized; it loops over control entries only);
* ``history`` -- the global-history shift register value at rename,
  vectorized as a windowed OR over the taken bits of conditional
  branches plus one ``repeat`` fill;
* a decode-template index (``_Decoded`` per trace entry), memoised per
  latency signature so every config with default latencies shares one
  table;
* the :class:`TraceEntry` list (:meth:`entry_list`) and the base memory
  image (:meth:`base_memory`), each built once per bundle.

Bundles serialise to a small CRC'd blob (the sequential parts only:
bitmap + history; everything else re-derives in microseconds from the
trace columns) so the harness can persist them next to the trace blob
and mmap-share them read-only across sweep workers -- see
``PrecomputeStore`` in :mod:`repro.harness.cache`.

The bundle is keyed by the branch-predictor *signature* (table bits,
BTB entries, history bits): a configuration that overrides any of those
fails :meth:`matches`, so sharing can never change results.  The tables
are checked against a sequential reference, and SimStats of ad-hoc vs.
shared bundles are golden-pinned, in ``tests/test_precompute.py``.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from .memory import SparseMemory
from .tracestore import F_TAKEN, _pad

# Bump whenever the blob layout or the meaning of any precomputed table
# changes; folded into the persistent store's keys (harness/cache.py) so
# a format change invalidates stale blobs instead of mis-decoding them.
PRECOMPUTE_FORMAT_VERSION = 1

_MAGIC = b"RPPC"

# magic, version, count, bpred table bits, btb entries, history bits,
# reserved, payload crc32 -- 32 bytes, keeping the u32 payload aligned.
_HEADER = struct.Struct("<4s7I")

_U32_MAX = 0xFFFFFFFF


class PrecomputeDecodeError(ValueError):
    """A blob is truncated, corrupt, or from a different format/trace."""


def bpred_signature(params) -> Tuple[int, int, int]:
    """The branch-predictor geometry a bundle's tables depend on."""
    return (params.bpred_table_bits, params.btb_entries,
            params.predictor.history_bits)


def _as_u32_array(column, n: int):
    """Numpy u32 view of a packed column (zero-copy where possible)."""
    return np.frombuffer(column, dtype=np.uint32, count=n)


def _as_u8_array(column, n: int):
    return np.frombuffer(column, dtype=np.uint8, count=n)


class TracePrecompute:
    """Whole-trace analysis shared by every run of one packed trace."""

    def __init__(self, trace, signature: Tuple[int, int, int],
                 mispredicted, history):
        self.trace = trace
        self.signature = tuple(signature)
        self.n = len(trace)
        # Raw numpy tables (vectorized build or mmap load).
        self._mispredicted = mispredicted
        self._history = history
        # Lazily materialised shared state.
        self._mis_list: Optional[List[bool]] = None
        self._hist_list: Optional[List[int]] = None
        self._static_list: Optional[List[int]] = None
        self._dec_memo: Dict[Tuple[int, int, int, int], list] = {}
        self._entries: Optional[list] = None
        self._base_mem: Optional[SparseMemory] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, trace, signature: Tuple[int, int, int]
              ) -> "TracePrecompute":
        """Analyse one packed trace under one predictor geometry.

        The branch-predictor replay is inherently sequential (table and
        BTB state), but it only visits control entries; everything else
        is vectorized.
        """
        # Deferred import: the uarch layer imports repro.kernel, so a
        # module-level import here would be circular.  The bundle is the
        # one kernel-level structure that replays timing-layer front-end
        # state (the paper's predictor is deterministic on the committed
        # path, which is what makes the replay a pure trace property).
        from ..uarch.branch import BranchPredictor

        table_bits, btb_entries, history_bits = signature
        program = trace.program
        instrs = program.instructions
        bpred = BranchPredictor(table_bits, btb_entries)
        predict = bpred.predict_and_update
        n = len(trace)
        static = _as_u32_array(trace.static_column(), n)
        flags = _as_u8_array(trace.flags_column(), n)
        next_pc = _as_u32_array(trace.next_pc_column(), n)
        is_control = np.fromiter((i.is_control for i in instrs),
                                  dtype=bool, count=len(instrs))
        is_cond = np.fromiter((i.is_cond_branch for i in instrs),
                               dtype=bool, count=len(instrs))

        mispredicted = np.zeros(n, dtype=np.uint8)
        if n:
            ctrl = np.nonzero(is_control[static])[0]
        else:
            ctrl = np.zeros(0, dtype=np.intp)
        if len(ctrl):
            si_ctrl = static[ctrl]
            taken_ctrl = (flags[ctrl] & F_TAKEN) != 0
            pcs = program.text_base + 4 * si_ctrl.astype(np.int64)
            mis_ctrl = np.zeros(len(ctrl), dtype=np.uint8)
            rows = zip(si_ctrl.tolist(), pcs.tolist(),
                       taken_ctrl.tolist(), next_pc[ctrl].tolist())
            for j, (si, pc, taken, npc) in enumerate(rows):
                if not predict(pc, instrs[si], taken, npc):
                    mis_ctrl[j] = 1
            mispredicted[ctrl] = mis_ctrl
            cond = ctrl[is_cond[si_ctrl]]
        else:
            cond = ctrl

        # history[i] = shift-register state after every conditional
        # branch with index < i.  The recurrence s_j = ((s_{j-1} << 1)
        # | t_j) & mask keeps the last ``history_bits`` taken bits, so
        # the state after cond branch j is a windowed OR of shifted
        # taken bits -- history_bits vector ops instead of an n-loop.
        m = len(cond)
        states = np.zeros(m, dtype=np.uint32)
        if m:
            t = ((flags[cond] & F_TAKEN) != 0).astype(np.uint32)
            for k in range(history_bits):
                if k >= m:
                    break
                states[k:] |= t[:m - k] << np.uint32(k)
        values = np.concatenate((np.zeros(1, dtype=np.uint32), states))
        bounds = np.concatenate((np.zeros(1, dtype=np.int64),
                                  cond.astype(np.int64) + 1,
                                  np.asarray([n], dtype=np.int64)))
        history = np.repeat(values, np.diff(bounds))
        return cls(trace, signature, mispredicted, history)

    # -- validity ------------------------------------------------------------

    def matches(self, trace, params) -> bool:
        """Usable for this (trace, configuration) pair?

        A config that overrides the predictor geometry gets ``False``
        and the Simulator builds its own bundle instead, so sharing a
        bundle can never change a result.
        """
        return (len(trace) == self.n
                and bpred_signature(params) == self.signature)

    # -- Simulator-facing tables (materialised once, shared) -----------------

    def mispredicted_list(self) -> List[bool]:
        """Per-entry mispredict flags as plain Python bools (hot-loop
        indexing and golden byte-identity both want native types)."""
        if self._mis_list is None:
            self._mis_list = (self._mispredicted != 0).tolist()
        return self._mis_list

    def history_list(self) -> List[int]:
        """Per-entry rename-time global history as plain Python ints."""
        if self._hist_list is None:
            self._hist_list = self._history.tolist()
        return self._hist_list

    def _statics(self) -> List[int]:
        if self._static_list is None:
            self._static_list = _as_u32_array(self.trace.static_column(),
                                              self.n).tolist()
        return self._static_list

    def decode_index(self, params) -> list:
        """``_Decoded`` template per trace entry, memoised per latency
        signature (every default-latency config shares one table)."""
        key = (params.mul_latency, params.fp_latency,
               params.branch_latency, params.alu_latency)
        index = self._dec_memo.get(key)
        if index is None:
            from ..uarch.pipeline import _Decoded  # deferred: layering
            instrs = self.trace.program.instructions
            dec_static = [None] * len(instrs)
            index = [None] * self.n
            for i, si in enumerate(self._statics()):
                dec = dec_static[si]
                if dec is None:
                    dec = dec_static[si] = _Decoded(instrs[si], params)
                index[i] = dec
            self._dec_memo[key] = index
        return index

    def entry_list(self) -> list:
        """Every entry materialised into a plain list, once per bundle.

        Fetch walks the whole trace anyway, so every Simulator sharing
        the bundle indexes this one list -- C-speed ``list[i]`` on the
        hot path instead of a per-access :class:`PackedTrace` view."""
        if self._entries is None:
            self._entries = list(self.trace)
        return self._entries

    def base_memory(self) -> SparseMemory:
        """The pre-execution architectural memory image, built once;
        each Simulator takes a page-level ``copy()`` instead of a
        per-byte ``load_segment`` of the data segment."""
        if self._base_mem is None:
            program = self.trace.program
            mem = SparseMemory()
            mem.load_segment(program.data_base, program.data)
            self._base_mem = mem
        return self._base_mem

    # -- binary encoding ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the sequential tables (bitmap + history).

        The derived columns re-vectorize from the trace blob in
        microseconds, so persisting them would only bloat the store.
        """
        n = self.n
        packed_len = _pad((n + 7) // 8)
        mis_bytes = np.packbits(self._mispredicted != 0,
                                bitorder="little").tobytes()
        mis_bytes = mis_bytes + b"\x00" * (packed_len - len(mis_bytes))
        hist_bytes = self._history.astype("<u4").tobytes()
        payload = mis_bytes + hist_bytes
        table_bits, btb_entries, history_bits = self.signature
        header = _HEADER.pack(_MAGIC, PRECOMPUTE_FORMAT_VERSION, n,
                              table_bits, btb_entries, history_bits, 0,
                              zlib.crc32(payload) & _U32_MAX)
        return header + payload

    @classmethod
    def from_buffer(cls, trace, buf,
                    signature: Optional[Tuple[int, int, int]] = None
                    ) -> "TracePrecompute":
        """Decode a blob against its trace; raises
        :class:`PrecomputeDecodeError` on any mismatch (callers treat
        that as a clean cache miss)."""
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise PrecomputeDecodeError("blob shorter than the header")
        (magic, version, n, table_bits, btb_entries, history_bits,
         _reserved, crc) = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise PrecomputeDecodeError("bad magic %r" % magic)
        if version != PRECOMPUTE_FORMAT_VERSION:
            raise PrecomputeDecodeError(
                "format version %d != %d"
                % (version, PRECOMPUTE_FORMAT_VERSION))
        if n != len(trace):
            raise PrecomputeDecodeError(
                "bundle is for a %d-entry trace, not %d" % (n, len(trace)))
        found = (table_bits, btb_entries, history_bits)
        if signature is not None and tuple(signature) != found:
            raise PrecomputeDecodeError(
                "bundle predictor signature %r != expected %r"
                % (found, tuple(signature)))
        packed_len = _pad((n + 7) // 8)
        expected = _HEADER.size + packed_len + 4 * n
        if len(view) != expected:
            raise PrecomputeDecodeError("blob is %d bytes, expected %d"
                                        % (len(view), expected))
        payload = view[_HEADER.size:]
        if zlib.crc32(payload) & _U32_MAX != crc:
            raise PrecomputeDecodeError("payload checksum mismatch")
        mis_view = payload[:packed_len]
        hist_view = payload[packed_len:]
        mis = np.unpackbits(np.frombuffer(mis_view, dtype=np.uint8),
                            count=n, bitorder="little")
        history = np.frombuffer(hist_view, dtype="<u4", count=n)
        return cls(trace, found, mis, history)


def write_precompute(path, bundle: TracePrecompute) -> None:
    """Serialise to ``path`` (callers wanting atomicity write-and-rename)."""
    with open(path, "wb") as handle:
        handle.write(bundle.to_bytes())


def load_precompute(path, trace,
                    signature: Optional[Tuple[int, int, int]] = None
                    ) -> TracePrecompute:
    """Load a bundle read-only against its trace.

    The history column is a zero-copy view into an ``mmap`` when the
    platform allows, so concurrent workers share one page-cache copy.
    Raises :class:`PrecomputeDecodeError` (or ``OSError``) on any
    problem -- callers treat that as a cache miss.
    """
    import mmap

    path = str(path)
    with open(path, "rb") as handle:
        try:
            mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):   # empty file / no mmap support
            mm = None
        if mm is not None:
            try:
                bundle = TracePrecompute.from_buffer(trace, mm, signature)
            except Exception:
                mm.close()
                raise
            bundle._mmap = mm           # keep the mapping alive
            return bundle
        data = handle.read()
    return TracePrecompute.from_buffer(trace, data, signature)
