"""The benchmark's tracer wraps engine entry points named as strings
(``Engine._file_rows``, ``txn.decode_data_file``, ``Catalog.get``, ...), so a
rename in the engine breaks traced benchmark runs. This runs the tracer
against the engine as it is."""

import importlib.util
from pathlib import Path

from lstx import Engine, catalog, dcp, maintenance, manifest, object_store, txn

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# every object the tracer may wrap an attribute of
_OWNERS = (
    catalog.Catalog,
    object_store.LocalObjectStore,
    txn,
    maintenance,
    manifest.SnapshotManager,
    dcp.DcpSimulator,
    txn.Engine,
    maintenance.Maintenance,
)


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_engine_names(tmp_path):
    before = [dict(vars(owner)) for owner in _OWNERS]
    tracer = _load_layers().Tracer()
    try:
        tracer.install()  # an AttributeError here names the renamed entry point
        assert {id(owner) for owner, _, _ in tracer._undo} <= {id(o) for o in _OWNERS}
        with Engine(str(tmp_path / "root")) as eng:
            t = eng.create_table("t", [("k", "int64")])
            x = eng.begin_transaction("si")
            x.insert(t, [(1,), (2,)])
            x.insert(t, [(3,)])  # a second statement writes a second file
            x.commit()
            y = eng.begin_transaction("si")
            tasks = tracer.counts["dcp.tasks"]
            assert sorted(y.scan(t)) == [(1,), (2,), (3,)]
            assert sorted(y.scan(t)) == [(1,), (2,), (3,)]
            # one read worker: each scan is one read task over both files
            assert tracer.counts["dcp.tasks"] - tasks == 2
            y.abort()
    finally:
        tracer.uninstall()
    # engine.row_cache.miss_ratio is codec decodes per file visit: two visits
    # of each file, the second served from the cache
    assert tracer.counts["engine.file_visit.calls"] == 4
    assert tracer.counts["codec.decode.calls"] == 2
    for name in ("catalog.commit.calls", "engine.scan.calls", "engine.insert.calls",
                 "catalog.read.calls", "engine.file_visit.calls", "codec.decode.calls",
                 "codec.encode.calls", "snapshot.load_manifest.calls",
                 "dcp.run_tasks.calls", "store.put.calls"):
        assert tracer.counts[name] >= 1, name
    for owner, saved in zip(_OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is saved[k] for k in saved), owner
