"""What the shared store base must not move.

* Key and path pins: every store kind keeps its key material, suffix
  and ``<key[:2]>/<key><suffix>`` layout, so a cache directory filled by
  an earlier build keeps serving hits.
* Disabled stores: a store whose ``root`` is None reads as a miss,
  persists nothing and reports empty maintenance.
* The benchmark's layer wrappers: ``perfbench/layers.py`` replaces store
  methods through ``owner.__dict__[attr]``, so each wrapped method must
  stay defined in its own class body.  Installing and uninstalling the
  wrappers here turns a method moved into a base class into a test
  failure instead of a broken ``--trace 1`` benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from repro.config import ConfigSpec
from repro.harness.cache import (NullCache, PrecomputeStore, ResultCache,
                                 TraceStore, precompute_version)
from repro.kernel import precompute as precompute_mod
from repro.kernel import tracestore
from repro.uarch import ModelKind

LAYERS_PY = (Path(__file__).resolve().parent.parent / "perfbench"
             / "layers.py")


def assert_sharded_path(path, root, key, suffix):
    assert path == root / key[:2] / (key + suffix)


class TestKeyPins:
    def test_result_key_and_path(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        spec = ConfigSpec.from_overrides(ModelKind.DMDP,
                                         store_buffer_entries=8)
        key = cache.key_for_spec("bzip2", 50, spec)
        assert key == ("97af4afd905d8c332f6311724eb162ef"
                       "115be09465877cb98e3ef09db22ea874")
        assert_sharded_path(cache._path(key), tmp_path, key, ".pkl")

    def test_trace_key_and_path(self, tmp_path):
        store = TraceStore(tmp_path, version="v1")
        key = store.key_for("bzip2", 50)
        assert key == ("9ee9b3ede320355edd3d66cb4891c40d"
                       "870ed7f14d76372f9e3ede9559422c57")
        assert_sharded_path(store.path_for("bzip2", 50), tmp_path, key,
                            ".trc")

    def test_precompute_key_and_path(self, tmp_path):
        # The material includes a hash of the precompute sources, so the
        # pin is the SHA-256 of the documented material, not a literal.
        store = PrecomputeStore(tmp_path, version="v1")
        signature = (10, 4, 14)
        material = json.dumps({
            "trace_format": tracestore.TRACE_FORMAT_VERSION,
            "precompute_format": precompute_mod.PRECOMPUTE_FORMAT_VERSION,
            "functional": "v1",
            "precompute": precompute_version(),
            "workload": "bzip2",
            "iterations": 50,
            "signature": [10, 4, 14],
        }, sort_keys=True)
        key = hashlib.sha256(material.encode()).hexdigest()
        assert store.key_for("bzip2", 50, signature) == key
        assert_sharded_path(store.path_for("bzip2", 50, signature),
                            tmp_path, key, ".pre")


class TestDisabledStore:
    def test_null_cache_is_a_disabled_result_cache(self):
        cache = NullCache()
        assert isinstance(cache, ResultCache)
        assert cache.root is None

    def test_disabled_result_cache_is_inert(self):
        cache = ResultCache(None, version="v1")
        key = cache.key_for_spec("bzip2", 50,
                                 ConfigSpec.from_overrides(ModelKind.DMDP))
        cache.put(key, {"stats": 1})
        assert cache.get(key) is None
        assert cache._path(key) is None
        assert (cache.entries(), cache.entry_count(), cache.size_bytes(),
                cache.tmp_files(), cache.gc(), cache.clear()) \
            == ([], 0, 0, [], 0, 0)

    def test_disabled_precompute_store_is_inert(self):
        store = PrecomputeStore(None)
        assert store.path_for("bzip2", 50, (10, 4, 14)) is None
        assert store.load("bzip2", 50, None, (10, 4, 14)) is None
        assert store.entry_count() == 0


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layer_wrappers_install_and_uninstall(tmp_path):
    from repro.harness import cache, runner
    layers = load_layers()
    wrapped = [(cache.ResultCache, "get"), (cache.ResultCache, "put"),
               (cache.ResultCache, "key_for_spec"),
               (cache.TraceStore, "load"), (cache.TraceStore, "put"),
               (cache.PrecomputeStore, "load"),
               (cache.PrecomputeStore, "put"),
               (runner.ExperimentRunner, "trace"),
               (runner.ExperimentRunner, "precompute_for")]
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr in wrapped}
    tracer = layers.SpanTracer(tmp_path)
    try:
        layers.install(tracer)
        for owner, attr in wrapped:
            assert owner.__dict__[attr] is not before[owner, attr]
        # A wrapped store method still reaches the store, and counts.
        tracer.active = True
        store = cache.TraceStore(tmp_path / "traces", version="v1")
        assert store.load("bzip2", 50, None) is None
        assert tracer.counters["harness.cache.trace_misses"] == 1
    finally:
        tracer.active = False
        tracer.uninstall()
    for owner, attr in wrapped:
        assert owner.__dict__[attr] is before[owner, attr]
