"""Persistent on-disk stores: results, traces, precompute bundles, ledgers.

One store base (:class:`_BlobStore`) owns the atomic-publish writer, the
reader that turns any decode error into a clean miss, and the
maintenance sweeps; four kinds differ only in key material, suffix and
codec (see DESIGN.md Section 8):

* :class:`ResultCache` -- every (workload, iteration count, ConfigSpec,
  code version) point maps to a content-hash key; the :class:`SimResult`
  for that point is pickled under ``<cache_dir>/<key[:2]>/<key>.pkl``.
  A warm run therefore skips tracing *and* simulation entirely.
* :class:`TraceStore` / :class:`PrecomputeStore` -- packed functional
  traces (``.trc``) and their precompute bundles (``.pre``) under
  ``<cache_dir>/traces/``.
* :class:`LedgerDir` -- maintenance over ``<cache_dir>/ledgers/``.

The code version folded into every result key is a hash over the
simulator's own source tree (isa, kernel, uarch, workloads, energy), so
editing anything that could change simulation results silently
invalidates old entries -- no manual cache management needed.
Harness/CLI files are deliberately excluded: they orchestrate runs but
cannot change a point's outcome.

Cache location: ``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` under
the current working directory (:func:`default_cache_dir`; every store
takes its root explicitly, and a store with ``root=None`` is disabled).
Writes are atomic (tempfile + rename), so concurrent pytest sessions can
safely share one cache.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..kernel import precompute as precompute_mod
from ..kernel import tracestore

# Bump when the pickled payload layout changes incompatibly.
FORMAT_VERSION = 1

# Bump when the ConfigSpec canonical encoding (dotted keys, scalar
# coercion, default-dropping) changes incompatibly: every result key
# embeds the spec's canonical dict, so this versions the key vocabulary.
CONFIG_FORMAT_VERSION = 1

# Source packages whose content determines simulation results.
_VERSIONED_PACKAGES = ("isa", "kernel", "uarch", "workloads", "energy")

# The subset that determines the *functional* trace (no timing model):
# a uarch-only edit keeps every packed trace valid.
_FUNCTIONAL_PACKAGES = ("isa", "kernel", "workloads")

# The files whose content determines a precompute bundle (given a valid
# trace): the bundle builder itself and the branch predictor it replays.
_PRECOMPUTE_FILES = ("kernel/precompute.py", "uarch/branch.py")

_CODE_VERSION: Optional[str] = None
_FUNCTIONAL_VERSION: Optional[str] = None
_PRECOMPUTE_VERSION: Optional[str] = None


def _hash_packages(packages) -> str:
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parent.parent
    for package in packages:
        for path in sorted((package_root / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _hash_files(relative_paths) -> str:
    digest = hashlib.sha256()
    package_root = Path(__file__).resolve().parent.parent
    for rel in relative_paths:
        path = package_root / rel
        digest.update(rel.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Hash of every source file that can affect a simulation result."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        _CODE_VERSION = _hash_packages(_VERSIONED_PACKAGES)
    return _CODE_VERSION


def functional_version() -> str:
    """Hash of every source file that can affect a *functional trace*."""
    global _FUNCTIONAL_VERSION
    if _FUNCTIONAL_VERSION is None:
        _FUNCTIONAL_VERSION = _hash_packages(_FUNCTIONAL_PACKAGES)
    return _FUNCTIONAL_VERSION


def precompute_version() -> str:
    """Hash of the sources that can change a precompute bundle's tables."""
    global _PRECOMPUTE_VERSION
    if _PRECOMPUTE_VERSION is None:
        _PRECOMPUTE_VERSION = _hash_files(_PRECOMPUTE_FILES)
    return _PRECOMPUTE_VERSION


def canonical(value):
    """JSON-serialisable canonical form of a parameter override value.

    Handles the value types experiments actually pass: enums, (frozen)
    dataclasses such as :class:`PredictorParams`, containers, and scalars.
    """
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__,
                {f.name: canonical(getattr(value, f.name))
                 for f in dataclasses.fields(value)}]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError("cannot canonicalise override of type %s"
                    % type(value).__name__)


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def default_ledger_dir() -> Path:
    """Where ``--ledger`` (no path) drops sweep ledgers: beside the
    result/trace entries they narrate, so one cache dir is the whole
    story of a machine's runs."""
    return default_cache_dir() / "ledgers"


class _BlobStore:
    """One directory of content-addressed blobs: the base of every store.

    A store kind supplies its key material, its entry suffix and layout,
    and its codec; this base owns everything else, once:

    * the atomic-publish writer (tempfile + rename, so concurrent
      sessions never observe a partial blob),
    * the reader that turns *any* decode error into a clean miss (the
      next put overwrites, i.e. repairs, the entry),
    * maintenance: ``entries``/``entry_count``/``size_bytes``,
      ``tmp_files`` and the ``gc``/``clear`` sweeps.

    Entries live at ``<root>/<key[:2]>/<key><suffix>``.  A store whose
    ``root`` is None is *disabled* (``--no-cache``): reads miss, writes
    persist nothing, paths are None and maintenance reports an empty
    store.
    """

    suffix = ""
    entry_glob = "??/*"          # the <key[:2]>/ fan-out
    tmp_glob = "??/*.tmp"        # the writer's in-flight temp files

    def __init__(self, root: Optional[Path]):
        self.root = Path(root) if root is not None else None
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _digest(material: dict) -> str:
        encoded = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(encoded).hexdigest()

    def _path(self, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / key[:2] / (key + self.suffix)

    def _read(self, path: Optional[Path], decode, *args):
        """``decode(path, *args)``, or None on a miss -- never raises."""
        if path is None:
            return None
        try:
            value = decode(path, *args)
        except Exception:
            # Missing, truncated, garbage bytes, format-bumped, decoded
            # for a different program/trace, or a pickle whose class no
            # longer exists: a clean miss; the next put repairs it.
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _write(self, path: Optional[Path], encode, *args) -> Optional[Path]:
        """Atomically publish ``encode(*args)`` at ``path``; returns it."""
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(encode(*args))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance ---------------------------------------------------------

    def _glob(self, pattern: str):
        return [] if self.root is None else sorted(self.root.glob(pattern))

    def entries(self):
        return self._glob(self.entry_glob + self.suffix)

    def entry_count(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass    # deleted by a concurrent session between glob+stat
        return total

    def tmp_files(self):
        """In-flight (or orphaned) atomic-write temp files."""
        return self._glob(self.tmp_glob)

    def gc(self, min_age_seconds: float = 0.0) -> int:
        """Sweep temp files orphaned by killed sessions.

        A live writer holds its temp file only for the duration of one
        write + rename, so anything older than ``min_age_seconds``
        (default: everything) is an orphan from a session that died
        mid-put.  Returns the number removed.
        """
        removed = 0
        now = time.time()
        for path in self.tmp_files():
            try:
                if now - path.stat().st_mtime >= min_age_seconds:
                    path.unlink()
                    removed += 1
            except OSError:
                pass    # vanished (or swept by a concurrent gc)
        return removed

    def clear(self) -> int:
        """Delete every entry (and sweep orphaned temp files); returns
        the number of entries removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.gc()
        return removed


def _unpickle(path: Path):
    with open(path, "rb") as handle:
        return pickle.load(handle)


class ResultCache(_BlobStore):
    """Content-addressed pickle store for :class:`SimResult` objects."""

    suffix = ".pkl"

    def __init__(self, root: Optional[Path], version: Optional[str] = None):
        super().__init__(root)
        self.version = version if version is not None else code_version()

    def key_for_spec(self, workload: str, iterations: int, spec) -> str:
        """Key for a :class:`~repro.config.ConfigSpec`-described point.

        The spec's canonical dict (model + default-dropped settings) is
        the sole configuration material, so any two constructions of the
        same parameters -- bare overrides, dotted ``--set`` flags, a grid
        expansion -- hit one entry.  ``config_format`` versions the spec
        vocabulary itself: bump it alongside CONFIG_FORMAT_VERSION when
        the canonical settings encoding changes incompatibly.
        """
        return self._digest({
            "format": FORMAT_VERSION,
            "config_format": CONFIG_FORMAT_VERSION,
            # Results are simulated *from* an encoded trace, so a trace
            # format bump conservatively invalidates them too (instead of
            # ever trusting stats derived from a mis-decoded blob).
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "code": self.version,
            "workload": workload,
            "iterations": iterations,
            "spec": spec.to_dict(),
        })

    def get(self, key: str):
        return self._read(self._path(key), _unpickle)

    def put(self, key: str, result) -> None:
        self._write(self._path(key), pickle.dumps, result,
                    pickle.HIGHEST_PROTOCOL)


def NullCache() -> ResultCache:
    """A disabled result cache (``--no-cache``)."""
    return ResultCache(None)


class TraceStore(_BlobStore):
    """Persistent store of packed functional traces (DESIGN.md section 12).

    One blob per (workload, iterations, functional-semantics version,
    trace format version) under ``<cache_root>/traces/<key[:2]>/<key>.trc``.
    The key hashes only the *functional* sources (isa, kernel, workloads):
    timing-model edits keep traces valid, while any edit that could change
    what the functional CPU retires silently invalidates them.  Blobs are
    loaded read-only via ``mmap``, so every sweep worker shares one
    page-cache copy.
    """

    suffix = ".trc"

    def __init__(self, root: Optional[Path], version: Optional[str] = None):
        super().__init__(root)
        self.version = (version if version is not None
                        else functional_version())

    def key_for(self, workload: str, iterations: int) -> str:
        return self._digest({
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "functional": self.version,
            "workload": workload,
            "iterations": iterations,
        })

    def path_for(self, workload: str, iterations: int) -> Optional[Path]:
        return self._path(self.key_for(workload, iterations))

    def load(self, workload: str, iterations: int, program):
        """The packed trace for a point, or None (miss) -- never raises."""
        return self._read(self.path_for(workload, iterations),
                          tracestore.load_trace, program)

    def put(self, workload: str, iterations: int, packed) -> Optional[Path]:
        """Atomically persist a packed trace; returns its path."""
        return self._write(self.path_for(workload, iterations),
                           packed.to_bytes)


class PrecomputeStore(_BlobStore):
    """Persistent store of whole-trace precompute bundles (DESIGN.md §14).

    One ``.pre`` blob per (workload, iterations, predictor signature,
    functional/trace-format/precompute versions) living in the *same*
    ``traces/`` tree as the ``.trc`` blobs it annotates.  The key folds
    everything that can change the tables: the trace identity material
    (a bundle is meaningless without its trace) plus
    ``PRECOMPUTE_FORMAT_VERSION`` and a hash of the precompute/branch
    sources, so editing the predictor silently invalidates stale
    bundles.  Blobs are CRC'd and loaded read-only via ``mmap``.
    """

    suffix = ".pre"

    def __init__(self, root: Optional[Path], version: Optional[str] = None):
        super().__init__(root)
        self.functional = (version if version is not None
                           else functional_version())
        self.version = precompute_version()

    def key_for(self, workload: str, iterations: int, signature) -> str:
        return self._digest({
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "precompute_format": precompute_mod.PRECOMPUTE_FORMAT_VERSION,
            "functional": self.functional,
            "precompute": self.version,
            "workload": workload,
            "iterations": iterations,
            "signature": list(signature),
        })

    def path_for(self, workload: str, iterations: int,
                 signature) -> Optional[Path]:
        return self._path(self.key_for(workload, iterations, signature))

    def load(self, workload: str, iterations: int, trace, signature):
        """The bundle for a (point, trace) pair, or None -- never raises."""
        return self._read(self.path_for(workload, iterations, signature),
                          precompute_mod.load_precompute, trace, signature)

    def put(self, workload: str, iterations: int, bundle) -> Optional[Path]:
        """Atomically persist a bundle; returns its path."""
        return self._write(
            self.path_for(workload, iterations, bundle.signature),
            bundle.to_bytes)


class LedgerDir(_BlobStore):
    """Maintenance view over the sweep-ledger directory.

    Ledgers are not content-addressed (each run writes a fresh file, see
    :class:`~repro.obs.ledger.JsonlLedger`), so this kind only borrows
    the store maintenance: finalised ``*.jsonl`` files are the entries,
    and ``*.jsonl.tmp`` orphans -- left by runs killed before the ledger
    was renamed into place -- are what :meth:`gc` sweeps.
    """

    suffix = ".jsonl"
    entry_glob = "*"
    tmp_glob = "*.jsonl.tmp"
