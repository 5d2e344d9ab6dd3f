"""Maintenance jobs: health probes, compaction, checkpoints, publishing,
garbage collection, and the background upkeep worker."""

import shutil
import time

import pytest

from lstx import (
    Engine,
    Isolation,
    OutOfRetentionError,
    UnknownTableError,
    WWConflictError,
)
from lstx.object_store import BlockId

from conftest import fast_config, record_reads

COLS = [("k", "int64"), ("v", "int64"), ("tag", "utf8")]


def seed_rows(n, start=0):
    return [(i, i * 10, f"tag{i % 3}") for i in range(start, start + n)]


def put_rows(engine, table, rows):
    x = engine.begin_transaction("si")
    x.insert(table, rows)
    return x.commit()


def delete_where(engine, table, predicate):
    x = engine.begin_transaction("si")
    n = x.delete(table, predicate)
    x.commit()
    return n


def full_scan(engine, table):
    x = engine.begin_transaction("si")
    try:
        return sorted(x.scan(table))
    finally:
        x.abort()


def committed_state(engine, table_id):
    ctx = engine.catalog.begin(Isolation.SI)
    try:
        return engine.snapshots.state(ctx, table_id)
    finally:
        engine.catalog.abort(ctx)


# ---------------------------------------------------------------------------
# health

def test_health_counts_small_files_and_deletes(engine):
    t = engine.create_table("t", COLS)
    for i in range(3):
        put_rows(engine, t, seed_rows(2, start=10 * i))  # 2 < min_rows_per_file
    h = engine.maintenance.health(t)
    assert h.live_files == 3 and h.small_files == 3
    assert h.total_rows == 6 and h.visible_rows == 6 and h.deleted_rows == 0
    assert not h.needs_compaction  # 3 < small_file_trigger of 4

    put_rows(engine, t, seed_rows(2, start=50))
    h = engine.maintenance.health(t)
    assert h.small_files == 4 and h.needs_compaction

    big = engine.create_table("big", COLS)
    put_rows(engine, big, seed_rows(10))
    delete_where(engine, big, [("k", "<", 3)])
    h = engine.maintenance.health(big)
    assert h.deleted_rows == 3
    assert h.deleted_fraction == pytest.approx(0.3)
    assert h.needs_compaction  # 0.3 >= delete_fraction_trigger


def test_health_tracks_checkpoint_lag(engine):
    t = engine.create_table("t", COLS)
    for i in range(5):
        put_rows(engine, t, seed_rows(1, start=i))
    h = engine.maintenance.health(t)
    assert h.manifests_since_checkpoint == 5 and h.needs_checkpoint
    engine.maintenance.checkpoint(t)
    h = engine.maintenance.health(t)
    assert h.checkpoint_upto == h.last_sequence
    assert h.manifests_since_checkpoint == 0 and not h.needs_checkpoint


# ---------------------------------------------------------------------------
# compaction

def test_compaction_merges_small_files(engine):
    t = engine.create_table("t", COLS)
    for i in range(5):
        put_rows(engine, t, seed_rows(2, start=10 * i))
    before = full_scan(engine, t)
    report = engine.maintenance.compact(t)
    assert report is not None
    assert len(report.removed_files) == 5 and len(report.added_files) == 1
    assert report.rows_rewritten == 10
    assert full_scan(engine, t) == before
    assert engine.maintenance.health(t).live_files == 1
    for path in report.removed_files:  # originals linger until GC
        assert engine.store.object_exists(path)


def test_compaction_rewrites_delete_heavy_files(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(10))
    delete_where(engine, t, [("k", "<", 3)])
    before = full_scan(engine, t)
    report = engine.maintenance.compact(t)
    assert report is not None and len(report.removed_dvs) == 1
    assert report.rows_rewritten == 7
    assert full_scan(engine, t) == before
    state = committed_state(engine, t.table_id)
    assert all(lf.dv is None for lf in state.live.values())


def test_compaction_declines_healthy_tables(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(10))
    assert engine.maintenance.compact(t) is None
    put_rows(engine, t, seed_rows(2, start=50))  # one small file
    assert engine.maintenance.compact(t) is None        # below trigger
    assert engine.maintenance.compact(t, force=True) is None  # nothing to merge with
    put_rows(engine, t, seed_rows(2, start=60))
    report = engine.maintenance.compact(t, force=True)  # two smalls merge
    assert report is not None and len(report.removed_files) == 2


def test_maintenance_jobs_leave_no_live_transaction(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(10))
    assert engine.maintenance.compact(t) is None
    assert engine.maintenance.checkpoint(t) is not None
    assert engine.maintenance.checkpoint(t) is None  # already checkpointed
    for job in (engine.maintenance.compact, engine.maintenance.checkpoint,
                engine.maintenance.health):
        with pytest.raises(UnknownTableError):
            job("missing")
    assert engine.catalog.min_live_begin() is None


def test_txn_with_block_aborts_unless_committed(engine):
    t = engine.create_table("t", COLS)
    with engine.begin_transaction("si") as x:
        x.insert(t, seed_rows(2))
    assert x.status == "aborted"
    with engine.begin_transaction("si") as y:
        y.insert(t, seed_rows(3))
        y.commit()
    assert y.status == "committed"
    assert full_scan(engine, t) == seed_rows(3)
    assert engine.catalog.min_live_begin() is None


def test_compaction_loses_to_concurrent_delete(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(10))
    delete_where(engine, t, [("k", "<", 3)])  # make it delete-heavy

    user = engine.begin_transaction("si", granularity="file")
    assert user.delete(t, [("k", "=", 5)]) == 1
    report = engine.maintenance.compact(t)  # commits first, rewrites the file
    assert report is not None
    with pytest.raises(WWConflictError):
        user.commit()
    rows = full_scan(engine, t)
    assert sorted(r[0] for r in rows) == [3, 4, 5, 6, 7, 8, 9]  # delete rolled back


def test_compaction_chunked_by_target_rows(make_engine):
    engine = make_engine(config=fast_config(compaction_target_rows=6,
                                            small_file_trigger=2))
    t = engine.create_table("t", COLS)
    for i in range(4):
        put_rows(engine, t, seed_rows(3, start=10 * i))
    report = engine.maintenance.compact(t)
    assert report is not None
    assert len(report.added_files) == 2  # 12 surviving rows / 6 per file
    assert engine.maintenance.health(t).live_files == 2


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_writes_once_per_sequence(engine):
    t = engine.create_table("t", COLS)
    for i in range(5):
        put_rows(engine, t, seed_rows(1, start=i))
    path = engine.maintenance.checkpoint(t)
    assert path is not None and engine.store.object_exists(path)
    assert engine.maintenance.checkpoint(t) is None  # already current
    put_rows(engine, t, seed_rows(1, start=99))
    second = engine.maintenance.checkpoint(t)
    assert second is not None and second != path


def test_checkpoint_state_survives_restart(tmp_path):
    from lstx import Engine

    root = str(tmp_path / "r")
    with Engine(root, config=fast_config()) as eng:
        t = eng.create_table("t", COLS)
        for i in range(6):
            put_rows(eng, t, seed_rows(2, start=10 * i))
        delete_where(eng, t, [("k", "=", 20)])
        eng.maintenance.checkpoint(t)
        put_rows(eng, t, seed_rows(1, start=500))  # tail beyond the checkpoint
        expected = full_scan(eng, t)
    with Engine(root, config=fast_config()) as eng:
        assert full_scan(eng, eng.table("t")) == expected


def test_checkpoint_never_aborts_writers(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(6))
    writer = engine.begin_transaction("serializable", granularity="file")
    assert writer.scan(t, aggregate=("count",)) == 6
    writer.delete(t, [("k", "=", 0)])
    assert engine.maintenance.checkpoint(t) is not None
    writer.commit()  # checkpoint holds no conflict keys and moves no table data
    assert full_scan(engine, t) == [r for r in sorted(seed_rows(6)) if r[0] != 0]


# ---------------------------------------------------------------------------
# publishing

def published_live_set(engine, table_id):
    state = engine.maintenance.published_state(table_id)
    return {(path, lf.dv.path if lf.dv else None) for path, lf in state.live.items()}


def engine_live_set(engine, table_id):
    state = committed_state(engine, table_id)
    return {(path, lf.dv.path if lf.dv else None) for path, lf in state.live.items()}


def test_publish_mirrors_the_manifest_log(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))
    put_rows(engine, t, seed_rows(4, start=10))
    delete_where(engine, t, [("k", "=", 1)])
    written = engine.maintenance.publish(t)
    assert len(written) == 3
    assert all(p.startswith(f"main/t{t.table_id}/publish/_log/") for p in written)
    assert published_live_set(engine, t.table_id) == engine_live_set(engine, t.table_id)

    assert engine.maintenance.publish(t) == []  # idempotent
    put_rows(engine, t, seed_rows(2, start=50))
    assert len(engine.maintenance.publish(t)) == 1  # only the new sequence
    assert published_live_set(engine, t.table_id) == engine_live_set(engine, t.table_id)


# ---------------------------------------------------------------------------
# garbage collection

def data_files(engine, table_id):
    return engine.store.list_prefix(f"main/t{table_id}/data")


def test_gc_collects_aborted_transaction_leftovers(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(2))
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(2, start=10))
    x.abort()
    assert len(data_files(engine, t.table_id)) == 2  # live + abandoned
    report = engine.maintenance.garbage_collect()
    assert len(report.deleted) == 2  # the data file and its manifest object
    assert len(data_files(engine, t.table_id)) == 1
    assert full_scan(engine, t) == sorted(seed_rows(2))


def test_gc_keeps_open_transactions_work(engine):
    t = engine.create_table("t", COLS)
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(2))
    report = engine.maintenance.garbage_collect(now=time.time() + 10_000)
    assert report.deleted == []
    x.commit()
    assert full_scan(engine, t) == sorted(seed_rows(2))


def test_gc_retention_on_removed_files(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))
    put_rows(engine, t, seed_rows(4, start=10))
    delete_where(engine, t, [("k", "<", 4)])  # first file fully removed

    report = engine.maintenance.garbage_collect()
    assert report.deleted == [] and report.kept_recent >= 1  # within retention

    report = engine.maintenance.garbage_collect(now=time.time() + 4000)
    assert len(report.deleted) == 1  # the removed data file aged out
    assert len(data_files(engine, t.table_id)) == 1
    assert full_scan(engine, t) == sorted(seed_rows(4, start=10))


def test_gc_extra_live_begins_protect_detached_sessions(engine):
    t = engine.create_table("t", COLS)
    x = engine.begin_transaction("si")
    begin = x.ctx.begin_version
    x.insert(t, seed_rows(2))
    x.abort()
    report = engine.maintenance.garbage_collect(extra_live_begins=[begin])
    assert report.deleted == []  # a detached session might still read these
    report = engine.maintenance.garbage_collect()
    assert len(report.deleted) == 2


def test_gc_sweeps_abandoned_staged_blocks(engine):
    engine.create_table("t", COLS)
    path = "main/t1/manifests/x99r1.m"
    engine.store.stage_block(path, BlockId.derive("dead-writer"), b"left behind")
    report = engine.maintenance.garbage_collect()
    assert report.swept_staged == [path]
    assert engine.store.list_staged("main") == []


def test_gc_honors_clone_references(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))
    clone = engine.clone_table(t, "keeper")
    engine.drop_table(t)
    report = engine.maintenance.garbage_collect(now=time.time() + 10_000)
    assert report.deleted == []  # the clone still reads the shared objects
    assert full_scan(engine, clone) == sorted(seed_rows(4))
    engine.drop_table(clone)
    report = engine.maintenance.garbage_collect(now=time.time() + 10_000)
    assert len(data_files(engine, t.table_id)) == 0


def test_gc_on_a_warm_engine_reads_no_manifest(engine, monkeypatch):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))
    put_rows(engine, t, seed_rows(4, start=10))
    delete_where(engine, t, [("k", "<", 4)])   # removes the first file
    delete_where(engine, t, [("k", "=", 10)])  # adds a delete vector
    delete_where(engine, t, [("k", "=", 11)])  # supersedes it
    expected = sorted(seed_rows(2, start=12))
    assert full_scan(engine, t) == expected
    removed = set(committed_state(engine, t.table_id).removed)
    assert len(removed) == 2  # the first file and the superseded delete vector

    reads = record_reads(monkeypatch, engine)
    report = engine.maintenance.garbage_collect()
    assert report.deleted == [] and report.kept_recent == len(removed)
    report = engine.maintenance.garbage_collect(now=time.time() + 4000)
    assert set(report.deleted) == removed  # each removal aged out of retention
    assert [p for p in reads if "/manifests/" in p] == []
    assert full_scan(engine, t) == expected


def test_gc_prunes_aged_history_behind_a_checkpoint(engine):
    t = engine.create_table("t", COLS)
    for i in range(5):
        put_rows(engine, t, seed_rows(1, start=i))
    engine.maintenance.checkpoint(t)
    expected = full_scan(engine, t)
    floor = committed_state(engine, t.table_id).sequence

    report = engine.maintenance.garbage_collect(now=time.time() + 4000)
    assert len(report.pruned_manifest_rows) == 5
    assert full_scan(engine, t) == expected  # state now comes from the checkpoint

    x = engine.begin_transaction("si")
    assert sorted(x.scan(t, as_of=floor)) == expected
    with pytest.raises(OutOfRetentionError):
        x.scan(t, as_of=floor - 1)
    x.abort()
    # the pruned manifest objects become garbage; the checkpoint stays
    rows = engine.catalog.read(
        engine.catalog.begin(Isolation.SI), "manifests", where={"table_id": t.table_id}
    )
    assert rows == []
    assert not engine.store.list_prefix(f"main/t{t.table_id}/manifests")


def test_gc_partial_pruning_stops_at_checkpoint_boundary(make_engine):
    engine = make_engine(config=fast_config(retention_seconds=0.2))
    t = engine.create_table("t", COLS)
    for i in range(3):
        put_rows(engine, t, seed_rows(1, start=i))
    engine.maintenance.checkpoint(t)
    mid_floor = committed_state(engine, t.table_id).sequence
    time.sleep(0.35)
    for i in range(3, 6):
        put_rows(engine, t, seed_rows(1, start=i))
    engine.maintenance.checkpoint(t)
    expected = full_scan(engine, t)

    report = engine.maintenance.garbage_collect()
    assert len(report.pruned_manifest_rows) == 3  # only the aged prefix
    assert report.pruned_checkpoint_rows == []    # the boundary checkpoint stays
    assert full_scan(engine, t) == expected
    x = engine.begin_transaction("si")
    assert sorted(x.scan(t, as_of=mid_floor)) == sorted(seed_rows(3))
    with pytest.raises(OutOfRetentionError):
        x.scan(t, as_of=mid_floor - 1)
    x.abort()


def test_gc_drops_superseded_checkpoints_with_their_history(engine):
    t = engine.create_table("t", COLS)
    for i in range(3):
        put_rows(engine, t, seed_rows(1, start=i))
    engine.maintenance.checkpoint(t)
    for i in range(3, 6):
        put_rows(engine, t, seed_rows(1, start=i))
    engine.maintenance.checkpoint(t)
    expected = full_scan(engine, t)

    report = engine.maintenance.garbage_collect(now=time.time() + 4000)
    assert len(report.pruned_manifest_rows) == 6
    assert len(report.pruned_checkpoint_rows) == 1  # the older checkpoint
    assert full_scan(engine, t) == expected
    ctx = engine.catalog.begin(Isolation.SI)
    remaining = engine.catalog.read(ctx, "checkpoints", where={"table_id": t.table_id})
    engine.catalog.abort(ctx)
    assert len(remaining) == 1


def test_gc_never_touches_the_published_log(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(2))
    written = engine.maintenance.publish(t)
    engine.drop_table(t)
    engine.maintenance.garbage_collect(now=time.time() + 10_000)
    for path in written:
        assert engine.store.object_exists(path)


def test_gc_report_counts_are_consistent(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))
    report = engine.maintenance.garbage_collect()
    listed = len(engine.store.list_prefix(engine.workspace))
    assert report.kept_active + report.kept_recent == listed
    assert report.deleted == []


def test_import_after_pruning_continues_sequences(engine, tmp_path):
    t = engine.create_table("t", COLS)
    for i in range(3):
        put_rows(engine, t, seed_rows(1, start=i))
    engine.maintenance.checkpoint(t)
    report = engine.maintenance.garbage_collect(retention_seconds=0)
    assert len(report.pruned_manifest_rows) == 3  # every row that implied next_seq
    blob = engine.catalog.export_snapshot()

    root = tmp_path / "imported"
    shutil.copytree(engine.store.root, root / "objects")
    with Engine(str(root), config=fast_config()) as fresh:
        fresh.catalog.import_snapshot(blob)
    with Engine(str(root), config=fast_config()) as reopened:
        outcome = put_rows(reopened, "t", seed_rows(1, start=3))
        assert outcome.sequences[t.table_id] == 4  # above the imported checkpoint
        x = reopened.begin_transaction("si")
        assert x.scan("t", aggregate="count") == 4
        x.abort()


# ---------------------------------------------------------------------------
# background upkeep

def test_background_worker_checkpoints_and_compacts(make_engine):
    engine = make_engine(config=fast_config(auto_maintenance=True,
                                            checkpoint_trigger=3,
                                            small_file_trigger=3))
    t = engine.create_table("t", COLS)
    for i in range(4):
        put_rows(engine, t, seed_rows(2, start=10 * i))
    engine.sto.drain()
    h = engine.maintenance.health(t)
    assert h.checkpoint_upto > 0
    assert h.live_files < 4  # small files were merged behind the scenes


def test_background_worker_counts_the_errors_it_drops(make_engine):
    engine = make_engine(config=fast_config(auto_maintenance=True))
    t = engine.create_table("t", COLS)
    engine.drop_table("t")
    engine.sto.notify(t.table_id)
    engine.sto.drain()
    assert engine.sto.failures == 1
    assert "UnknownTableError" in engine.sto.last_error
