"""Catalog MVCC: snapshot visibility, first-committer-wins, serializable
read validation, journal durability, gap-free sequence assignment."""

import json
import os
import struct
import threading
import zlib

import pytest

import lstx.catalog

from lstx.catalog import (
    CHECKPOINTS,
    MANIFESTS,
    TABLES,
    WHOLE_TABLE,
    Catalog,
    CheckpointsRow,
    Isolation,
    ManifestsRow,
    TablesRow,
    WriteSetsRow,
)
from lstx.errors import (
    DuplicateKeyError,
    NotFoundError,
    SerializationFailureError,
    TxnClosedError,
    WWConflictError,
)


@pytest.fixture
def cat(tmp_path):
    c = Catalog(str(tmp_path / "catalog.journal"))
    yield c
    c.close()


def trow(tid: int, name: str) -> TablesRow:
    return TablesRow(table_id=tid, name=name, columns=(("k", "int64"),))


def mrow(tid: int, path: str) -> ManifestsRow:
    return ManifestsRow(table_id=tid, manifest_path=path)


def rewrite(cat, txn, row: TablesRow) -> None:
    """Overwrite a TABLES row as the engine does: delete the key, insert it."""
    cat.delete(txn, TABLES, (row.table_id,))
    cat.insert(txn, TABLES, row)


# ---------------------------------------------------------------------------
# basic visibility

def test_insert_commit_read(cat):
    t = cat.begin()
    cat.insert(t, TABLES, trow(1, "a"))
    res = cat.commit(t)
    assert res.version == 1
    r = cat.begin()
    assert cat.get(r, TABLES, (1,)).name == "a"
    assert [x.name for x in cat.read(r, TABLES)] == ["a"]
    cat.abort(r)


def test_si_snapshot_is_stable(cat):
    w0 = cat.begin()
    cat.insert(w0, TABLES, trow(1, "a"))
    cat.commit(w0)

    reader = cat.begin(Isolation.SI)
    w = cat.begin()
    cat.insert(w, TABLES, trow(2, "b"))
    cat.commit(w)
    # SI: the reader keeps seeing its begin-version state
    assert [x.name for x in cat.read(reader, TABLES)] == ["a"]
    assert cat.get(reader, TABLES, (2,)) is None
    cat.abort(reader)


def test_rcsi_sees_per_statement_current_state(cat):
    reader = cat.begin(Isolation.RCSI)
    w = cat.begin()
    cat.insert(w, TABLES, trow(1, "a"))
    cat.commit(w)
    assert [x.name for x in cat.read(reader, TABLES)] == ["a"]
    cat.abort(reader)


def test_read_your_own_writes_and_deletes(cat):
    t = cat.begin()
    cat.insert(t, TABLES, trow(1, "a"))
    assert cat.get(t, TABLES, (1,)).name == "a"
    cat.delete(t, TABLES, (1,))
    assert cat.get(t, TABLES, (1,)) is None
    assert cat.read(t, TABLES) == []
    cat.abort(t)


def test_duplicate_insert_and_missing_delete(cat):
    t = cat.begin()
    cat.insert(t, TABLES, trow(1, "a"))
    cat.commit(t)
    t2 = cat.begin()
    with pytest.raises(DuplicateKeyError):
        cat.insert(t2, TABLES, trow(1, "again"))
    with pytest.raises(NotFoundError):
        cat.delete(t2, TABLES, (99,))
    cat.abort(t2)


def test_closed_txn_rejected(cat):
    t = cat.begin()
    cat.commit(t)
    with pytest.raises(TxnClosedError):
        cat.insert(t, TABLES, trow(1, "a"))
    with pytest.raises(TxnClosedError):
        cat.commit(t)
    a = cat.begin()
    cat.abort(a)
    cat.abort(a)  # idempotent


def test_where_filter_and_sort(cat):
    t = cat.begin()
    for i in (3, 1, 2):
        cat.insert(t, MANIFESTS, mrow(7, f"m{i}"))
    cat.insert(t, MANIFESTS, mrow(8, "other"))
    cat.commit(t)
    r = cat.begin()
    rows = cat.read(r, MANIFESTS, where={"table_id": 7})
    assert [x.manifest_path for x in rows] == ["m1", "m2", "m3"]
    cat.abort(r)


# ---------------------------------------------------------------------------
# write-write conflicts

def test_first_committer_wins_on_writesets(cat):
    t1 = cat.begin()
    t2 = cat.begin()
    cat.upsert_writeset(t1, 5, "fileA")
    cat.upsert_writeset(t2, 5, "fileA")
    cat.commit(t1)
    with pytest.raises(WWConflictError):
        cat.commit(t2)
    assert t2.status == "aborted"


def test_disjoint_writesets_both_commit(cat):
    t1 = cat.begin()
    t2 = cat.begin()
    cat.upsert_writeset(t1, 5, "fileA")
    cat.upsert_writeset(t2, 5, "fileB")
    cat.commit(t1)
    cat.commit(t2)


def test_whole_table_subsumes_file_keys(cat):
    t1 = cat.begin()
    t2 = cat.begin()
    cat.upsert_writeset(t1, 5, WHOLE_TABLE)
    cat.upsert_writeset(t2, 5, "fileB")
    cat.commit(t1)
    with pytest.raises(WWConflictError):
        cat.commit(t2)
    # ... but not across tables
    t3 = cat.begin()
    t4 = cat.begin()
    cat.upsert_writeset(t3, 6, WHOLE_TABLE)
    cat.upsert_writeset(t4, 7, WHOLE_TABLE)
    cat.commit(t3)
    cat.commit(t4)


def test_insert_insert_same_key_conflicts(cat):
    t1 = cat.begin()
    t2 = cat.begin()
    cat.insert(t1, TABLES, trow(1, "a"))
    cat.insert(t2, TABLES, trow(1, "b"))
    cat.commit(t1)
    with pytest.raises(WWConflictError):
        cat.commit(t2)


def test_conflict_rolls_back_everything(cat):
    t0 = cat.begin()
    cat.insert(t0, TABLES, trow(1, "a"))
    cat.commit(t0)

    t1 = cat.begin()
    t2 = cat.begin()
    cat.upsert_writeset(t1, 1, "f")
    cat.insert(t1, MANIFESTS, mrow(1, "m1"))
    cat.upsert_writeset(t2, 1, "f")
    cat.insert(t2, MANIFESTS, mrow(1, "m2"))
    cat.insert(t2, TABLES, trow(3, "c"))
    cat.commit(t1)
    with pytest.raises(WWConflictError):
        cat.commit(t2)
    r = cat.begin()
    assert cat.get(r, TABLES, (3,)) is None
    assert [x.manifest_path for x in cat.read(r, MANIFESTS)] == ["m1"]
    cat.abort(r)


def test_writeset_counter_moves_once_per_txn(cat):
    t1 = cat.begin()
    cat.upsert_writeset(t1, 1, "f")
    cat.upsert_writeset(t1, 1, "f")  # idempotent within the txn
    cat.commit(t1)
    t2 = cat.begin()
    cat.upsert_writeset(t2, 1, "f")
    assert cat.get(t2, WRITESETS := "writesets", (1, "f")).updated == 2  # own pending view
    cat.commit(t2)
    r = cat.begin()
    assert cat.get(r, "writesets", (1, "f")).updated == 2
    cat.abort(r)


# ---------------------------------------------------------------------------
# read-only commits and versions

def test_read_only_commit_skips_validation_and_version(cat):
    w = cat.begin()
    cat.insert(w, TABLES, trow(1, "a"))
    cat.commit(w)
    v = cat.version
    r = cat.begin()
    cat.read(r, TABLES)
    res = cat.commit(r)
    assert res.version == v
    assert res.wallclock is None
    assert cat.version == v


def test_wallclocks_strictly_increase(cat):
    stamps = []
    for i in range(5):
        t = cat.begin()
        cat.insert(t, TABLES, trow(i + 1, f"t{i}"))
        stamps.append(cat.commit(t).wallclock)
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


# ---------------------------------------------------------------------------
# sequences

def test_sequences_are_gap_free_across_tables(cat):
    seqs = []
    for i in range(6):
        t = cat.begin()
        row = mrow(i % 2, f"m{i}")
        cat.insert(t, MANIFESTS, row)
        res = cat.commit(t)
        seqs.append(res.sequences[(i % 2, f"m{i}")])
    assert seqs == [1, 2, 3, 4, 5, 6]


def test_sequences_under_concurrent_commits(tmp_path, cat):
    won = []
    lock = threading.Lock()

    def worker(n):
        t = cat.begin()
        cat.insert(t, MANIFESTS, mrow(1, f"m{n}"))
        res = cat.commit(t)
        with lock:
            won.append(res.sequences[(1, f"m{n}")])

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(20)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert sorted(won) == list(range(1, 21))
    # journal order equals apply order: a reopened catalog replays to the
    # same rows and counters
    live = cat.export_snapshot()
    cat.close()
    reopened = Catalog(str(tmp_path / "catalog.journal"))
    assert reopened.export_snapshot() == live
    reopened.close()


# ---------------------------------------------------------------------------
# serializable

def test_serializable_write_skew_aborts_one(cat):
    t0 = cat.begin()
    cat.insert(t0, TABLES, trow(1, "a"))
    cat.insert(t0, TABLES, trow(2, "b"))
    cat.commit(t0)

    t1 = cat.begin(Isolation.SERIALIZABLE)
    t2 = cat.begin(Isolation.SERIALIZABLE)
    # each reads the row the other rewrites
    cat.get(t1, TABLES, (2,))
    cat.get(t2, TABLES, (1,))
    rewrite(cat, t1, trow(1, "a2"))
    rewrite(cat, t2, trow(2, "b2"))
    cat.commit(t1)
    with pytest.raises(SerializationFailureError):
        cat.commit(t2)


def test_same_interleaving_commits_under_si(cat):
    t0 = cat.begin()
    cat.insert(t0, TABLES, trow(1, "a"))
    cat.insert(t0, TABLES, trow(2, "b"))
    cat.commit(t0)

    t1 = cat.begin(Isolation.SI)
    t2 = cat.begin(Isolation.SI)
    cat.get(t1, TABLES, (2,))
    cat.get(t2, TABLES, (1,))
    rewrite(cat, t1, trow(1, "a2"))
    rewrite(cat, t2, trow(2, "b2"))
    cat.commit(t1)
    cat.commit(t2)  # SI permits the skew
    r = cat.begin()
    assert [x.name for x in cat.read(r, TABLES)] == ["a2", "b2"]
    cat.abort(r)


def test_serializable_where_scan_invalidated_by_new_row(cat):
    t1 = cat.begin(Isolation.SERIALIZABLE)
    assert cat.read(t1, MANIFESTS, where={"table_id": 3}) == []
    w = cat.begin()
    cat.insert(w, MANIFESTS, mrow(3, "m1"))
    cat.commit(w)
    cat.insert(t1, TABLES, trow(9, "t9"))
    with pytest.raises(SerializationFailureError):
        cat.commit(t1)


def test_serializable_unrecorded_reads_do_not_conflict(cat):
    t1 = cat.begin(Isolation.SERIALIZABLE)
    cat.read(t1, CHECKPOINTS, where={"table_id": 3}, record=False)
    w = cat.begin()
    cat.insert(w, CHECKPOINTS, CheckpointsRow(3, 5, "c1"))
    cat.commit(w)
    cat.insert(t1, TABLES, trow(9, "t9"))
    cat.commit(t1)  # bookkeeping read was not recorded


def test_serializable_read_only_never_fails(cat):
    t1 = cat.begin(Isolation.SERIALIZABLE)
    cat.read(t1, TABLES)
    w = cat.begin()
    cat.insert(w, TABLES, trow(1, "a"))
    cat.commit(w)
    res = cat.commit(t1)
    assert res.wallclock is None


# ---------------------------------------------------------------------------
# durability

def test_journal_replay_restores_state(tmp_path):
    path = str(tmp_path / "cat.journal")
    c1 = Catalog(path)
    t = c1.begin()
    c1.insert(t, TABLES, trow(1, "a"))
    c1.insert(t, MANIFESTS, mrow(1, "m1"))
    c1.insert(t, CHECKPOINTS, CheckpointsRow(1, 1, "ck"))
    c1.upsert_writeset(t, 1, "f")
    c1.commit(t)
    t2 = c1.begin()
    c1.insert(t2, MANIFESTS, mrow(1, "m2"))
    c1.commit(t2)
    exported = c1.export_snapshot()
    version, next_seq = c1.version, None
    c1.close()

    c2 = Catalog(path)
    assert c2.export_snapshot() == exported
    assert c2.version == version
    # sequence assignment continues without gaps
    t3 = c2.begin()
    c2.insert(t3, MANIFESTS, mrow(1, "m3"))
    res = c2.commit(t3)
    assert res.sequences[(1, "m3")] == 3
    c2.close()


def test_reserved_txn_id_survives_restart(tmp_path):
    # An id handed to a plain begin is forgotten on restart (only commits are
    # journaled), but a reserved id must never be handed out again: ids name
    # the txn's pending manifest objects, so reuse by a later process would
    # let two live transactions clobber each other's state.
    path = str(tmp_path / "cat.journal")
    c1 = Catalog(path)
    seed = c1.begin()
    c1.insert(seed, TABLES, trow(1, "a"))
    c1.commit(seed)
    held = c1.begin()
    c1.reserve(held)
    c1.close()  # process exits with the transaction still open

    c2 = Catalog(path)
    fresh = c2.begin()
    assert fresh.txn_id > held.txn_id
    # the reservation record carries no mutations and moves no state
    assert c2.version == 1
    assert [r.name for r in c2.read(fresh, TABLES)] == ["a"]
    c2.close()


def test_reserve_requires_active_txn(cat):
    t = cat.begin()
    cat.abort(t)
    with pytest.raises(TxnClosedError):
        cat.reserve(t)


def test_journal_tolerates_truncated_tail(tmp_path):
    path = str(tmp_path / "cat.journal")
    c1 = Catalog(path)
    t = c1.begin()
    c1.insert(t, TABLES, trow(1, "a"))
    c1.commit(t)
    exported = c1.export_snapshot()
    c1.close()

    size = os.path.getsize(path)
    with open(path, "ab") as fh:
        fh.write(b"\x99\x00\x00\x00partial-record-without-")
    c2 = Catalog(path)
    assert c2.export_snapshot() == exported
    t2 = c2.begin()
    c2.insert(t2, TABLES, trow(2, "b"))
    c2.commit(t2)
    c2.close()
    # the torn tail was truncated before appending new records
    c3 = Catalog(path)
    names = [r.name for r in c3.read(c3.begin(), TABLES)]
    assert names == ["a", "b"]
    c3.close()
    assert os.path.getsize(path) > size - 1


# Journal records of the tables, manifests, writesets and checkpoints rows
# and of a reservation, as the engine has always written them: each row
# object is its fields in declaration order.
_PINNED_RECORDS = (
    '{"v":1,"txn":1,"wc":1700000000.0,"m":[["tables",[1],{"table_id":1,"name":"t",'
    '"columns":[["k","int64"],["tag","utf8"]],"distribution_count":2,'
    '"partition_key":["tag"],"distribution_key":["k"]}]]}',
    '{"v":2,"txn":2,"wc":1700000000.000001,"m":[["manifests",[1,"main/t1/manifests/x2r1.m"],'
    '{"table_id":1,"manifest_path":"main/t1/manifests/x2r1.m","sequence_id":1,'
    '"transaction_id":2,"commit_wallclock":1700000000.000001}],'
    '["writesets",[1,"main/t1/data/a.col"],'
    '{"table_id":1,"file_name":"main/t1/data/a.col","updated":1}]]}',
    '{"v":3,"txn":3,"wc":1700000000.000002,"m":[["checkpoints",[1,1],'
    '{"table_id":1,"upto_sequence":1,"path":"main/t1/checkpoints/000000000001.ckpt",'
    '"commit_wallclock":1700000000.000002}]]}',
    '{"v":3,"txn":4,"m":[]}',
)


def test_journal_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(lstx.catalog.time, "time", lambda: 1_700_000_000.0)
    path = str(tmp_path / "cat.journal")
    c1 = Catalog(path)
    t = c1.begin()
    c1.insert(t, TABLES, TablesRow(1, "t", (("k", "int64"), ("tag", "utf8")), 2,
                                   ("tag",), ("k",)))
    c1.commit(t)
    t = c1.begin()
    c1.insert(t, MANIFESTS, ManifestsRow(1, "main/t1/manifests/x2r1.m", transaction_id=2))
    c1.upsert_writeset(t, 1, "main/t1/data/a.col")
    c1.commit(t)
    t = c1.begin()
    c1.insert(t, CHECKPOINTS, CheckpointsRow(1, 1, "main/t1/checkpoints/000000000001.ckpt"))
    c1.commit(t)
    t = c1.begin()
    c1.reserve(t)
    c1.abort(t)
    exported = c1.export_snapshot()
    c1.close()

    expected = b""
    for record in _PINNED_RECORDS:
        payload = record.encode()
        expected += (struct.pack("<I", len(payload)) + payload
                     + struct.pack("<I", zlib.crc32(payload)))
    with open(path, "rb") as fh:
        assert fh.read() == expected
    c2 = Catalog(path)
    assert c2.export_snapshot() == exported
    c2.close()


def test_tables_row_normalises_lists():
    # a row decoded from JSON carries lists; it equals the row built in code
    from_lists = TablesRow(1, "t", [["k", "int64"], ["tag", "utf8"]], 2, ["tag"], [])
    from_tuples = TablesRow(1, "t", (("k", "int64"), ("tag", "utf8")), 2, ("tag",), None)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)


def test_export_import_roundtrip(tmp_path, cat):
    t = cat.begin()
    cat.insert(t, TABLES, trow(1, "a"))
    cat.insert(t, MANIFESTS, mrow(1, "m1"))
    cat.commit(t)
    blob = cat.export_snapshot()

    other = Catalog(str(tmp_path / "other.journal"))
    other.import_snapshot(blob)
    assert other.export_snapshot() == blob
    t2 = other.begin()
    res = other.commit(t2)
    other.close()

    with pytest.raises(DuplicateKeyError):
        cat.import_snapshot(blob)  # not empty


def test_import_keeps_next_sequence_past_deleted_rows(tmp_path, cat):
    # once the newest manifest row is gone (pruned history, a dropped table)
    # the rows no longer imply next_seq; replay of the import must keep it
    t = cat.begin()
    cat.insert(t, MANIFESTS, mrow(1, "m1"))
    cat.insert(t, MANIFESTS, mrow(1, "m2"))
    cat.commit(t)
    t2 = cat.begin()
    cat.delete(t2, MANIFESTS, (1, "m2"))
    cat.commit(t2)
    blob = cat.export_snapshot()

    path = str(tmp_path / "other.journal")
    other = Catalog(path)
    other.import_snapshot(blob)
    other.close()
    reopened = Catalog(path)
    assert reopened.export_snapshot() == blob
    t3 = reopened.begin()
    reopened.insert(t3, MANIFESTS, mrow(1, "m3"))
    res = reopened.commit(t3)
    assert res.sequences[(1, "m3")] == json.loads(blob)["next_seq"] == 3
    reopened.close()


def test_adopt_attaches_foreign_txn(cat):
    t = cat.begin()
    cat.insert(t, TABLES, trow(1, "a"))
    cat.commit(t)
    ghost = cat.adopt(txn_id=500, begin_version=1, isolation="si")
    assert cat.get(ghost, TABLES, (1,)).name == "a"
    cat.insert(ghost, MANIFESTS, mrow(1, "m"))
    cat.commit(ghost)
    with pytest.raises(ValueError):
        cat.adopt(txn_id=501, begin_version=99, isolation="si")
    nxt = cat.begin()
    assert nxt.txn_id > 500  # ids never reused after adoption
    cat.abort(nxt)


def test_min_live_begin_tracks_active_txns(cat):
    assert cat.min_live_begin() is None
    a = cat.begin()
    w = cat.begin()
    cat.insert(w, TABLES, trow(1, "x"))
    cat.commit(w)
    b = cat.begin()
    assert cat.min_live_begin() == a.begin_version
    cat.abort(a)
    assert cat.min_live_begin() == b.begin_version
    cat.abort(b)
    assert cat.min_live_begin() is None


def test_transaction_scope_leaves_no_live_txn(cat):
    with cat.transaction() as t:
        cat.insert(t, TABLES, trow(1, "a"))
        cat.commit(t)
    assert t.status == "committed"
    with cat.transaction() as t:
        assert cat.min_live_begin() == t.begin_version
    assert t.status == "aborted"
    with pytest.raises(DuplicateKeyError):
        with cat.transaction() as t:
            cat.insert(t, TABLES, trow(1, "again"))
    assert t.status == "aborted"
    assert cat.min_live_begin() is None
