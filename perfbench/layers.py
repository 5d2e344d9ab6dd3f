"""Per-layer timing and counting for traced benchmark runs.

The engine carries no instrumentation of its own. ``Tracer`` wraps, from the
benchmark's side, the entry points of each lstx module (catalog, object store,
column codec, snapshot manager, DCP pool, transaction engine, maintenance),
accumulates inclusive milliseconds and counts, and restores the originals on
``uninstall``. Untraced runs never install it.

``meter_store`` is the one wrapper every run uses, traced or not: it counts
the bytes an engine's object store is asked to write, which ``write_amp``
and the ``store.*.bytes`` figures need.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _object_size(store, path) -> int:
    return os.path.getsize(os.path.join(store.root, *str(path).split("/")))


class Tracer:
    """Inclusive wall time (``ms``) and counters (``counts``) per layer name."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self.enabled = True
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        """Keep the benchmark's own oracle reads out of the figures."""
        saved, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = saved

    def _wrap(self, owner, attr, name, after=None, on_error=None):
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer.ms[name] += (time.perf_counter() - t0) * 1e3
                tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _add(self, name, amount) -> None:
        self.counts[name] += amount

    def install(self) -> None:
        from lstx import catalog, dcp, errors, maintenance, manifest, object_store, txn

        add = self._add

        def count_conflict(exc):
            if isinstance(exc, errors.WWConflictError):
                add("catalog.ww_conflicts", 1)
            elif isinstance(exc, errors.SerializationFailureError):
                add("catalog.serialization_failures", 1)

        cat = catalog.Catalog
        self._wrap(cat, "__init__", "catalog.open")
        self._wrap(cat, "commit", "catalog.commit", on_error=count_conflict)
        self._wrap(cat, "read", "catalog.read")
        self._wrap(cat, "get", "catalog.read")

        store = object_store.LocalObjectStore
        # the bytes these write are counted by meter_store, on every run
        self._wrap(store, "put_object", "store.put")
        self._wrap(store, "stage_block", "store.stage")
        self._wrap(store, "commit_block_list", "store.commit_block_list")
        self._wrap(store, "get_object", "store.get",
                   after=lambda a, k, r: add("store.get.bytes", len(r)))
        self._wrap(store, "list_prefix", "store.list")
        self._wrap(store, "list_staged", "store.list")
        self._wrap(store, "delete_object", "store.delete")

        # the codec functions are bound by name into the modules that call them
        for mod in (txn, maintenance):
            self._wrap(mod, "encode_data_file", "codec.encode",
                       after=lambda a, k, r: add("codec.encode.rows", len(_arg(a, k, 1, "rows"))))
        self._wrap(txn, "decode_data_file", "codec.decode",
                   after=lambda a, k, r: add("codec.decode.rows", len(r[1])))
        self._wrap(txn, "encode_delete_vector", "codec.dv")
        self._wrap(txn, "decode_delete_vector", "codec.dv")

        snaps = manifest.SnapshotManager
        self._wrap(snaps, "load_manifest", "snapshot.load_manifest",
                   after=lambda a, k, r: add("snapshot.manifests_loaded", 1))
        state = snaps.state
        counts = self.counts

        def state_counting_hits(*args, **kwargs):
            before = counts["snapshot.manifests_loaded"]
            result = state(*args, **kwargs)
            if self.enabled and counts["snapshot.manifests_loaded"] == before:
                counts["snapshot.cache_hits"] += 1
            return result

        snaps.state = state_counting_hits
        self._undo.append((snaps, "state", state))
        self._wrap(snaps, "state", "snapshot.state")

        self._wrap(dcp.DcpSimulator, "run_tasks", "dcp.run_tasks",
                   after=lambda a, k, r: add("dcp.tasks", len(r)))

        eng = txn.Engine
        for verb in ("insert", "delete", "update", "scan", "commit"):
            self._wrap(eng, verb, f"engine.{verb}")
        # every read of a data file's rows, cached or not
        self._wrap(eng, "_file_rows", "engine.file_visit")

        maint = maintenance.Maintenance
        self._wrap(maint, "compact", "maint.compact",
                   after=lambda a, k, r: add("maint.compact.rows_rewritten",
                                             r.rows_rewritten if r else 0))
        self._wrap(maint, "checkpoint", "maint.checkpoint")
        self._wrap(maint, "publish", "maint.publish")
        self._wrap(maint, "garbage_collect", "maint.gc",
                   after=lambda a, k, r: add("maint.gc.deleted", len(r.deleted)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def meter_store(store, counter) -> None:
    """Count, in ``counter``, every byte the store is asked to write, by call
    kind: ``put`` (whole-object puts other than published log documents),
    ``put_log`` (published log documents, which carry commit wallclocks as
    JSON floats, so their length varies run to run), ``stage`` (staged
    blocks) and ``commit_block_list`` (the objects block-list commits make)."""
    put, stage, commit = store.put_object, store.stage_block, store.commit_block_list

    def put_object(path, payload):
        counter["put_log" if "/publish/_log/" in str(path) else "put"] += len(payload)
        return put(path, payload)

    def stage_block(path, block, payload):
        counter["stage"] += len(payload)
        return stage(path, block, payload)

    def commit_block_list(path, blocks):
        result = commit(path, blocks)
        counter["commit_block_list"] += _object_size(store, path)
        return result

    store.put_object = put_object
    store.stage_block = stage_block
    store.commit_block_list = commit_block_list
