"""Engine-level transaction behavior: statements, snapshots, conflicts,
time travel, clones, and fault-tolerant statement execution."""

import hashlib
import random
import sys
import threading
import time

import pytest

from lstx import (
    Engine,
    EngineError,
    FaultPolicy,
    OutOfRetentionError,
    RetryableError,
    SchemaError,
    SerializationFailureError,
    StatementError,
    TxnClosedError,
    UnknownTableError,
    WWConflictError,
)
from lstx import manifest as mf
from lstx import txn as txn_module
from lstx.catalog import WHOLE_TABLE
from lstx.cli import golden_walkthrough
from lstx.errors import SequenceGapError
from lstx.datafile import DataFileMeta, Schema
from lstx.manifest import LiveFile
from lstx.txn import FILE, TABLE, Engine as _Engine, _prune, normalize_predicate

from conftest import fast_config, record_reads

COLS = [("k", "int64"), ("v", "int64"), ("tag", "utf8")]


def seed_rows(n, start=0):
    return [(i, i * 10, f"tag{i % 3}") for i in range(start, start + n)]


def put_rows(engine, table, rows):
    x = engine.begin_transaction("si")
    x.insert(table, rows)
    return x.commit()


# ---------------------------------------------------------------------------
# walkthrough + basics

def test_four_transaction_walkthrough(engine):
    result = golden_walkthrough(engine)
    assert result["sum_snapshot"] == 6
    assert result["conflicted"] is True
    assert result["sum_final"] == 14
    assert result["sequences"] == [1, 2]


def test_insert_scan_roundtrip(engine):
    t = engine.create_table("t", COLS, distribution_count=3)
    rows = seed_rows(25)
    put_rows(engine, t, rows)
    x = engine.begin_transaction("si")
    assert sorted(x.scan(t)) == sorted(rows)
    assert sorted(x.scan(t, columns=["v"])) == sorted((r[1],) for r in rows)
    assert x.scan(t, aggregate=("count",)) == 25
    assert x.scan(t, aggregate=("sum", "v")) == sum(r[1] for r in rows)
    out = x.commit()
    assert out.read_only and out.wallclock is None and out.sequences == {}


# the predicate oracle: plain comparisons, independent of the engine's
OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
TYPED = [("k", "int64"), ("x", "float64"), ("s", "utf8"), ("b", "bool")]
TYPED_NAMES = [name for name, _ in TYPED]


def matches(pred, row):
    return all(OPS[op](row[TYPED_NAMES.index(col)], value) for col, op, value in pred)


def test_predicate_scan_matches_row_oracle(engine, monkeypatch):
    """Scans, deletes and updates under every operator on every column type
    equal a model, over files that carry delete vectors; a file whose k is
    single-valued is pruned by k != that value."""
    t = engine.create_table("t", TYPED, distribution_count=1)  # a file per statement
    rng = random.Random(7)

    def rand_row(k=None):
        return (rng.randrange(12) if k is None else k,
                rng.choice([-2.5, 0.0, 1.0, 2.25, 7.5]),
                rng.choice(["", "a", "ab", "b", "zé"]),
                rng.random() < 0.5)

    model = []
    for _ in range(5):
        rows = [rand_row() for _ in range(12)]
        put_rows(engine, t, rows)
        model += rows
    data_dir = f"{engine.table_dir(t.table_id)}/data"
    before = set(engine.store.list_prefix(data_dir))
    single = [rand_row(k=5) for _ in range(4)]
    put_rows(engine, t, single)
    model += single
    (single_path,) = set(engine.store.list_prefix(data_dir)) - before
    x = engine.begin_transaction("si")
    assert x.delete(t, [("k", "<", 3)]) == sum(r[0] < 3 for r in model)
    x.commit()
    model = [r for r in model if not r[0] < 3]
    assert engine.store.list_prefix(f"{engine.table_dir(t.table_id)}/dv")

    predicates = [[(col, op, value)]
                  for col, value in (("k", 5), ("x", 1.0), ("s", "ab"), ("b", True))
                  for op in OPS]
    predicates += [
        [("b", "!=", False)],
        [("x", "<=", 2)],  # an int against a float64 column
        [("k", ">=", 4), ("x", "<", 3.0), ("s", "!=", "")],
        [("k", "!=", 5), ("k", "<=", 9)],
        [("k", ">", 100)],
    ]
    visited = []
    real = _Engine._file_rows
    monkeypatch.setattr(_Engine, "_file_rows",
                        lambda self, path: visited.append(path) or real(self, path))
    for pred in predicates:
        want = [r for r in model if matches(pred, r)]
        x = engine.begin_transaction("si")
        visited.clear()
        assert sorted(x.scan(t, predicate=pred)) == sorted(want), pred
        if pred == [("k", "!=", 5)]:
            assert single_path not in visited
        if pred == [("k", "=", 5)]:
            assert single_path in visited
        assert x.delete(t, pred) == len(want), pred
        assert sorted(x.scan(t)) == sorted(r for r in model if not matches(pred, r)), pred
        x.abort()
        x = engine.begin_transaction("si")
        assert x.update(t, {"s": "u", "x": 9.5}, pred) == len(want), pred
        assert sorted(x.scan(t)) == sorted(
            (r[0], 9.5, "u", r[3]) if matches(pred, r) else r for r in model), pred
        x.abort()


def test_pruning_keeps_exactly_the_files_whose_stats_can_match():
    """Hand-built metas: stats in and out of schema order, a missing column,
    no stats, and an empty file. A file is kept exactly when some integer
    between its min and max satisfies every condition on its columns."""
    schema = Schema.of(("a", "int64"), ("b", "int64"))
    metas = [
        DataFileMeta("in-order", 3, 0, 1, (("a", 0, 4), ("b", 2, 2))),
        DataFileMeta("reversed", 3, 0, 1, (("b", 1, 3), ("a", 5, 9))),
        DataFileMeta("no-b", 3, 0, 1, (("a", 3, 3),)),
        DataFileMeta("only-b", 3, 0, 1, (("b", 6, 6),)),
        DataFileMeta("no-stats", 3, 0, 1, ()),
        DataFileMeta("empty", 0, 0, 1, (("a", 0, 9), ("b", 0, 9))),
        DataFileMeta("single", 1, 0, 1, (("a", 2, 2), ("b", 7, 9))),
    ]
    live = [LiveFile(m) for m in metas]

    def can_match(meta, pred):
        if meta.row_count == 0:
            return False
        for col, op, value in pred:
            bounds = [(lo, hi) for name, lo, hi in meta.stats if name == col]
            if bounds and not any(OPS[op](v, value) for v in range(bounds[0][0],
                                                                  bounds[0][1] + 1)):
                return False
        return True

    terms = [(col, op, value) for col in ("a", "b") for op in OPS for value in range(-1, 11)]
    predicates = [[term] for term in terms] + [[]]
    rng = random.Random(3)
    predicates += [rng.sample(terms, 2) for _ in range(300)]
    for pred in predicates:
        kept = [lf.meta.path for lf in _prune(live, normalize_predicate(schema, pred))]
        assert kept == [m.path for m in metas if can_match(m, pred)], pred


def test_read_your_writes_and_isolation_from_others(engine):
    t = engine.create_table("t", COLS)
    writer = engine.begin_transaction("si")
    writer.insert(t, seed_rows(5))
    assert sorted(writer.scan(t)) == sorted(seed_rows(5))

    other = engine.begin_transaction("si")
    assert other.scan(t) == []
    writer.commit()
    assert other.scan(t) == []  # snapshot pinned at begin
    other.abort()

    late = engine.begin_transaction("si")
    assert sorted(late.scan(t)) == sorted(seed_rows(5))
    late.abort()


def test_multi_statement_delete_update_in_one_txn(engine):
    t = engine.create_table("t", COLS, distribution_count=2)
    put_rows(engine, t, seed_rows(10))
    x = engine.begin_transaction("si")
    assert x.delete(t, [("k", "<", 3)]) == 3
    assert x.update(t, {"v": 999}, [("k", ">=", 8)]) == 2
    rows = x.scan(t)
    assert sorted(r[0] for r in rows) == list(range(3, 10))
    assert sorted(r[1] for r in rows if r[0] >= 8) == [999, 999]
    x.commit()
    check = engine.begin_transaction("si")
    assert sorted(check.scan(t)) == sorted(rows)
    check.abort()


def test_inserting_then_deleting_own_rows_leaves_orphans(engine):
    t = engine.create_table("t", COLS)
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(4))
    data_prefix = f"{engine.table_dir(t.table_id)}/data"
    inserted = engine.store.list_prefix(data_prefix)
    assert inserted
    assert x.delete(t, [("k", ">=", 0)]) == 4
    # the add/remove pair cancelled out: nothing to commit, and the
    # retracted file stays on storage for garbage collection
    assert engine.store.list_prefix(data_prefix) == inserted
    out = x.commit()
    assert out.read_only
    check = engine.begin_transaction("si")
    assert check.scan(t) == []
    check.abort()


def test_partial_delete_of_own_insert_commits_dv(engine):
    t = engine.create_table("t", COLS)
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(4))
    assert x.delete(t, [("k", "<", 2)]) == 2
    out = x.commit()
    assert not out.read_only
    check = engine.begin_transaction("si")
    assert sorted(r[0] for r in check.scan(t)) == [2, 3]
    check.abort()


def test_update_preserves_untouched_columns(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(6))
    x = engine.begin_transaction("si")
    x.update(t, {"tag": "flipped"}, [("k", "=", 4)])
    x.commit()
    check = engine.begin_transaction("si")
    (row,) = check.scan(t, predicate=[("k", "=", 4)])
    assert row == (4, 40, "flipped")
    assert check.scan(t, aggregate=("count",)) == 6
    check.abort()


def test_empty_statements_are_cheap(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(3))
    x = engine.begin_transaction("si")
    assert x.insert(t, []) == 0
    assert x.delete(t, [("k", ">", 100)]) == 0
    assert x.update(t, {"v": 1}, [("k", ">", 100)]) == 0
    out = x.commit()
    assert out.read_only  # nothing actually changed


def record_block_calls(store):
    """Lists of the (path, block origin) of each stage_block call and of the
    path of each commit_block_list call on store."""
    stage, commit = store.stage_block, store.commit_block_list
    staged, committed = [], []

    def stage_block(path, block, payload):
        staged.append((path, block.origin))
        return stage(path, block, payload)

    def commit_block_list(path, blocks):
        committed.append(path)
        return commit(path, blocks)

    store.stage_block = stage_block
    store.commit_block_list = commit_block_list
    return staged, committed


def test_manifest_written_once_per_statement(engine):
    t = engine.create_table("t", COLS, distribution_count=4)
    store = engine.store
    staged, committed = record_block_calls(store)
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(40))
    tid = t.table_id
    mpath = x.manifest_paths[tid]
    # the first statement's task blocks, committed in task order, are the manifest
    assert committed == [mpath]
    assert not [o for _, o in staged if o.endswith(".fe")]
    assert len(staged) == len(x.manifests[tid]) == 4
    assert store.get_object(mpath) == mf.encode_actions(x.manifests[tid])

    # a later statement's tasks stage nothing; only the reconciled block is
    staged.clear()
    committed.clear()
    x.insert(t, seed_rows(8, start=40))
    assert committed == [mpath]
    assert staged == [(mpath, f"{x.guid}s2.fe")]
    assert store.get_object(mpath) == mf.encode_actions(x.manifests[tid])
    assert store.staged_blocks(mpath) == []
    x.commit()
    assert sorted(engine.begin_transaction("si").scan(t)) == seed_rows(48)


def test_update_stages_task_blocks_on_its_first_statement_only(engine):
    t = engine.create_table("t", COLS, distribution_count=4)
    put_rows(engine, t, seed_rows(48))
    store = engine.store
    staged, committed = record_block_calls(store)
    y = engine.begin_transaction("si")
    assert y.update(t, {"tag": "u"}, [("k", "<", 10)]) == 10
    ypath = y.manifest_paths[t.table_id]
    # mask and insert task blocks, one per task that changed something
    assert committed == [ypath]
    assert {p for p, _ in staged} == {ypath}
    assert not [o for _, o in staged if o.endswith(".fe")]
    assert {o.split(".")[0] for _, o in staged} == {f"{y.guid}s1"}
    assert len(staged) == len({o for _, o in staged}) >= 2
    assert store.get_object(ypath) == mf.encode_actions(y.manifests[t.table_id])

    staged.clear()
    committed.clear()
    assert y.update(t, {"tag": "w"}, [("k", ">=", 40)]) == 8
    assert committed == [ypath]
    assert staged == [(ypath, f"{y.guid}s2.fe")]
    assert store.get_object(ypath) == mf.encode_actions(y.manifests[t.table_id])
    assert store.staged_blocks(ypath) == []
    y.commit()
    tags = {k: tag for k, _, tag in engine.begin_transaction("si").scan(t)}
    assert tags == {k: "u" if k < 10 else "w" if k >= 40 else f"tag{k % 3}"
                    for k in range(48)}


# ---------------------------------------------------------------------------
# conflicts

def test_first_committer_wins_table_granularity(engine):
    t = engine.create_table("t", COLS, distribution_count=2)
    put_rows(engine, t, seed_rows(8))
    a = engine.begin_transaction("si", granularity=TABLE)
    b = engine.begin_transaction("si", granularity=TABLE)
    a.delete(t, [("k", "=", 0)])
    b.delete(t, [("k", "=", 7)])  # different rows, same table
    a.commit()
    with pytest.raises(WWConflictError):
        b.commit()
    assert b.status == "aborted"


def test_file_granularity_allows_disjoint_files(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))          # file 1: k 0..3
    put_rows(engine, t, seed_rows(4, start=4))  # file 2: k 4..7
    a = engine.begin_transaction("si", granularity=FILE)
    b = engine.begin_transaction("si", granularity=FILE)
    a.delete(t, [("k", "=", 1)])
    b.delete(t, [("k", "=", 6)])
    a.commit()
    b.commit()  # disjoint data files: both allowed
    check = engine.begin_transaction("si")
    assert sorted(r[0] for r in check.scan(t)) == [0, 2, 3, 4, 5, 7]
    check.abort()


def test_file_granularity_conflicts_on_same_file(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))
    a = engine.begin_transaction("si", granularity=FILE)
    b = engine.begin_transaction("si", granularity=FILE)
    a.delete(t, [("k", "=", 0)])
    b.delete(t, [("k", "=", 3)])  # same data file
    a.commit()
    with pytest.raises(WWConflictError):
        b.commit()


def test_insert_only_transactions_never_conflict(engine):
    t = engine.create_table("t", COLS)
    txns = [engine.begin_transaction("si", granularity=TABLE) for _ in range(4)]
    for i, x in enumerate(txns):
        x.insert(t, seed_rows(2, start=10 * i))
    for x in txns:
        x.commit()
    check = engine.begin_transaction("si")
    assert check.scan(t, aggregate=("count",)) == 8
    check.abort()


def test_conflict_rolls_back_every_table(engine):
    ta = engine.create_table("a", COLS)
    tb = engine.create_table("b", COLS)
    put_rows(engine, ta, seed_rows(4))
    loser = engine.begin_transaction("si", granularity=TABLE)
    loser.delete(ta, [("k", "=", 0)])
    loser.insert(tb, seed_rows(3))
    winner = engine.begin_transaction("si", granularity=TABLE)
    winner.delete(ta, [("k", "=", 1)])
    winner.commit()
    with pytest.raises(RetryableError):
        loser.commit()
    check = engine.begin_transaction("si")
    assert check.scan(tb) == []  # the insert half rolled back too
    assert sorted(r[0] for r in check.scan(ta)) == [0, 2, 3]
    check.abort()


def test_writeset_keys_from_manifest_actions(engine):
    from lstx.datafile import DataFileMeta

    def meta(path):
        return DataFileMeta(path=path, row_count=4, size_bytes=10, created_rev=1,
                            stats=(("k", 0, 3),))

    def dv_meta(target):
        return mf.DvMeta(target=target, cardinality=1, target_row_count=9,
                         created_rev=1, size_bytes=8)

    add = mf.add_file(meta("d/own.col"))
    add_dv_own = mf.add_dv("d/own.dv", dv_meta("d/own.col"))
    remove_foreign = mf.remove_file("d/old.col")
    dv_foreign = mf.add_dv("d/old2.dv", dv_meta("d/old2.col"))
    rm_dv_foreign = mf.remove_dv("d/old3.dv", dv_meta("d/old3.col"))

    assert _Engine.writeset_keys([add, add_dv_own], FILE) == []
    assert _Engine.writeset_keys([add, add_dv_own], TABLE) == []
    keys = _Engine.writeset_keys([add, remove_foreign, dv_foreign, rm_dv_foreign], FILE)
    assert keys == sorted(["d/old.col", "d/old2.col", "d/old3.col"])
    assert _Engine.writeset_keys([remove_foreign], TABLE) == [WHOLE_TABLE]


# ---------------------------------------------------------------------------
# isolation levels

def test_rcsi_sees_commits_between_statements(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(2))
    rcsi = engine.begin_transaction("rcsi")
    si = engine.begin_transaction("si")
    assert rcsi.scan(t, aggregate=("count",)) == 2
    assert si.scan(t, aggregate=("count",)) == 2
    put_rows(engine, t, seed_rows(2, start=10))
    assert rcsi.scan(t, aggregate=("count",)) == 4  # fresh statement snapshot
    assert si.scan(t, aggregate=("count",)) == 2    # pinned at first read
    rcsi.abort()
    si.abort()


def test_serializable_write_skew_one_aborts(engine):
    t = engine.create_table("oncall", [("doc", "int64"), ("on", "bool")])
    x = engine.begin_transaction("si")
    x.insert(t, [(1, True)])
    x.insert(t, [(2, True)])  # second statement -> second data file
    x.commit()

    a = engine.begin_transaction("serializable", granularity=FILE)
    b = engine.begin_transaction("serializable", granularity=FILE)
    assert a.scan(t, predicate=[("on", "=", True)], aggregate=("count",)) == 2
    assert b.scan(t, predicate=[("on", "=", True)], aggregate=("count",)) == 2
    a.update(t, {"on": False}, [("doc", "=", 1)])
    b.update(t, {"on": False}, [("doc", "=", 2)])
    a.commit()
    with pytest.raises(SerializationFailureError):
        b.commit()
    check = engine.begin_transaction("si")
    assert check.scan(t, predicate=[("on", "=", True)], aggregate=("count",)) == 1
    check.abort()


def test_snapshot_isolation_admits_write_skew(engine):
    t = engine.create_table("oncall", [("doc", "int64"), ("on", "bool")])
    x = engine.begin_transaction("si")
    x.insert(t, [(1, True)])
    x.insert(t, [(2, True)])
    x.commit()

    a = engine.begin_transaction("si", granularity=FILE)
    b = engine.begin_transaction("si", granularity=FILE)
    assert a.scan(t, predicate=[("on", "=", True)], aggregate=("count",)) == 2
    assert b.scan(t, predicate=[("on", "=", True)], aggregate=("count",)) == 2
    a.update(t, {"on": False}, [("doc", "=", 1)])
    b.update(t, {"on": False}, [("doc", "=", 2)])
    a.commit()
    b.commit()  # disjoint files, SI does not recheck reads
    check = engine.begin_transaction("si")
    assert check.scan(t, predicate=[("on", "=", True)], aggregate=("count",)) == 0
    check.abort()


# ---------------------------------------------------------------------------
# lifecycle errors

def test_closed_transactions_reject_everything(engine):
    t = engine.create_table("t", COLS)
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(1))
    x.commit()
    for op in (lambda: x.insert(t, seed_rows(1)),
               lambda: x.delete(t, [("k", "=", 0)]),
               lambda: x.scan(t),
               lambda: x.commit()):
        with pytest.raises(TxnClosedError):
            op()
    y = engine.begin_transaction("si")
    y.abort()
    y.abort()  # idempotent
    with pytest.raises(TxnClosedError):
        y.commit()


def test_ddl_errors(engine):
    engine.create_table("t", COLS)
    from lstx import DuplicateKeyError
    with pytest.raises(DuplicateKeyError):
        engine.create_table("t", COLS)
    with pytest.raises(UnknownTableError):
        engine.table("missing")
    with pytest.raises(SchemaError):
        engine.create_table("bad", COLS, partition_key=("nope",))
    for count in (0, -2, 1.5, True, "2"):
        with pytest.raises(SchemaError):
            engine.create_table("bad", COLS, distribution_count=count)
    assert [t.name for t in engine.list_tables()] == ["t"]  # nothing committed
    engine.drop_table("t")
    with pytest.raises(UnknownTableError):
        engine.table("t")
    engine.create_table("t", COLS)  # name reusable after drop


def test_bad_rows_and_predicates(engine):
    t = engine.create_table("t", COLS)
    x = engine.begin_transaction("si")
    with pytest.raises(SchemaError):
        x.insert(t, [(1, 2)])  # arity
    with pytest.raises(SchemaError):
        x.insert(t, [("one", 2, "t")])  # type
    with pytest.raises(SchemaError):
        x.scan(t, predicate=[("missing", "=", 1)])
    with pytest.raises(SchemaError):
        x.scan(t, predicate=[("k", "~", 1)])  # unknown operator
    for malformed in (("k", "=", 1), [("k", "=")], [("k", "=", 1, 2)], ["k=1"],
                      [("k", ["="], 1)]):
        with pytest.raises(SchemaError):
            x.scan(t, predicate=malformed)
        with pytest.raises(SchemaError):
            x.delete(t, malformed)
    assert x.stmt == 0
    with pytest.raises(SchemaError):
        x.scan(t, aggregate=("sum", "tag"))
    x.abort()


@pytest.mark.parametrize("call", [
    lambda eng, t: eng.begin_transaction("si").scan(t, predicate=5),
    lambda eng, t: eng.begin_transaction("si").scan(t, as_of="x"),
    lambda eng, t: eng.begin_transaction("foo"),
    lambda eng, t: eng.begin_transaction(granularity="row"),
], ids=["predicate=5", "as_of='x'", "isolation='foo'", "granularity='row'"])
def test_malformed_public_arguments_raise_schema_error(engine, call):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(2))
    with pytest.raises(SchemaError):
        call(engine, t)


def test_bad_aggregate_fails_before_reading_any_file(engine, monkeypatch):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(3))
    visits = []
    real = _Engine._file_rows
    monkeypatch.setattr(_Engine, "_file_rows",
                        lambda self, path: visits.append(path) or real(self, path))
    x = engine.begin_transaction("si")
    for bad in ("avg", ("sum", "tag"), ("sum", "nope"), ("sum",), "sum",
                ("count", "k"), ()):
        with pytest.raises(SchemaError):
            x.scan(t, aggregate=bad)
    assert visits == [] and x.stmt == 0
    assert x.scan(t, aggregate=["sum", "v"]) == 30 and x.stmt == 1
    assert len(visits) == 1
    x.abort()


# ---------------------------------------------------------------------------
# time travel & clones

def test_as_of_sequence_and_wallclock(engine):
    t = engine.create_table("t", COLS)
    o1 = put_rows(engine, t, seed_rows(2))            # sum v = 0+10
    o2 = put_rows(engine, t, seed_rows(2, start=5))   # +50+60
    x = engine.begin_transaction("si")
    x.delete(t, [("k", "=", 0)])
    o3 = x.commit()
    seqs = [o.sequences[t.table_id] for o in (o1, o2, o3)]
    assert seqs == [1, 2, 3]

    r = engine.begin_transaction("si")
    assert r.scan(t, aggregate=("sum", "v"), as_of=0) == 0
    assert r.scan(t, aggregate=("sum", "v"), as_of=1) == 10
    assert r.scan(t, aggregate=("sum", "v"), as_of=2) == 120
    assert r.scan(t, aggregate=("sum", "v"), as_of=3) == 120 - 0
    assert r.scan(t, aggregate=("sum", "v"), as_of=o1.wallclock) == 10
    assert r.scan(t, aggregate=("sum", "v"), as_of=(o1.wallclock + o2.wallclock) / 2) == 10
    assert r.scan(t, aggregate=("sum", "v"), as_of=o2.wallclock) == 120
    assert r.scan(t, aggregate=("sum", "v"), as_of=o1.wallclock - 0.001) == 0
    r.abort()


def test_as_of_rejected_with_uncommitted_writes(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(2))
    x = engine.begin_transaction("si")
    assert x.scan(t, as_of=1) is not None  # fine before writing
    x.insert(t, seed_rows(1, start=9))
    with pytest.raises(EngineError):
        x.scan(t, as_of=1)
    x.abort()


def test_as_of_outside_retention(make_engine):
    engine = make_engine(config=fast_config(retention_seconds=0.05))
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(2))
    time.sleep(0.12)
    put_rows(engine, t, seed_rows(2, start=5))
    x = engine.begin_transaction("si")
    assert x.scan(t, aggregate=("count",), as_of=2) == 4  # recent point is fine
    with pytest.raises(OutOfRetentionError):
        x.scan(t, as_of=1)
    with pytest.raises(OutOfRetentionError):
        x.scan(t, as_of=time.time() - 10.0)
    x.abort()


def test_clone_is_zero_copy_and_diverges(engine):
    t = engine.create_table("t", COLS, distribution_count=2)
    put_rows(engine, t, seed_rows(8))
    before = set(engine.store.list_prefix(engine.workspace))
    clone = engine.clone_table(t, "t2")
    after = set(engine.store.list_prefix(engine.workspace))
    assert before == after  # no objects written at all
    assert not engine.store.list_prefix(f"main/t{clone.table_id}")

    x = engine.begin_transaction("si")
    assert sorted(x.scan(clone)) == sorted(seed_rows(8))
    x.abort()

    y = engine.begin_transaction("si")
    y.delete(t, [("k", "<", 4)])
    y.insert(clone, seed_rows(2, start=100))
    y.commit()
    z = engine.begin_transaction("si")
    assert z.scan(t, aggregate=("count",)) == 4
    assert z.scan(clone, aggregate=("count",)) == 10
    z.abort()


def test_clone_as_of_historical_point(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(3))
    put_rows(engine, t, seed_rows(3, start=10))
    snap = engine.clone_table(t, "past", as_of=1)
    x = engine.begin_transaction("si")
    assert sorted(r[0] for r in x.scan(snap)) == [0, 1, 2]
    assert x.scan(t, aggregate=("count",)) == 6
    x.abort()


# ---------------------------------------------------------------------------
# durability & concurrency

def test_committed_state_survives_restart(tmp_path):
    root = str(tmp_path / "r")
    with Engine(root, config=fast_config()) as eng:
        t = eng.create_table("t", COLS)
        put_rows(eng, t, seed_rows(6))
        x = eng.begin_transaction("si")
        x.delete(t, [("k", "=", 0)])
        x.commit()
    with Engine(root, config=fast_config()) as eng:
        t = eng.table("t")
        x = eng.begin_transaction("si")
        assert sorted(r[0] for r in x.scan(t)) == [1, 2, 3, 4, 5]
        x.commit()


def test_closed_engine_refuses_commit_and_reserve(tmp_path):
    root = str(tmp_path / "r")
    eng = Engine(root, config=fast_config())
    t = eng.create_table("t", COLS)
    x = eng.begin_transaction("si")
    x.insert(t, seed_rows(1))
    pinned = eng.begin_transaction("si")
    eng.close()
    with pytest.raises(EngineError, match="closed"):
        x.commit()
    with pytest.raises(EngineError, match="closed"):
        eng.catalog.reserve(pinned.ctx)
    with Engine(root, config=fast_config()) as eng:
        y = eng.begin_transaction("si")
        assert y.scan(eng.table("t")) == []
        y.abort()


def test_parallel_writers_get_gap_free_sequences(engine):
    t = engine.create_table("t", COLS, distribution_count=2)
    outcomes = []
    mutex = threading.Lock()

    def worker(w):
        for i in range(5):
            x = engine.begin_transaction("si")
            x.insert(t, [(w * 100 + i, i, "w")])
            out = x.commit()
            with mutex:
                outcomes.append(out.sequences[t.table_id])

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert sorted(outcomes) == list(range(1, 21))
    check = engine.begin_transaction("si")
    assert check.scan(t, aggregate=("count",)) == 20
    check.abort()


# ---------------------------------------------------------------------------
# fault injection

def trace_write_task_ids(engine):
    return [e.task_id for e in engine.dcp.trace if e.kind == "write"]


def run_mixed_workload(engine):
    t = engine.create_table("t", COLS, distribution_count=2)
    x = engine.begin_transaction("si", granularity=FILE)
    x.insert(t, seed_rows(8))
    x.insert(t, seed_rows(8, start=8))
    x.delete(t, [("k", "<", 2)])
    x.commit()
    y = engine.begin_transaction("si", granularity=FILE)
    y.update(t, {"v": -1}, [("k", ">=", 14)])
    y.commit()
    z = engine.begin_transaction("si")
    rows = sorted(z.scan(t))
    z.abort()
    return t, rows


def storage_picture(engine):
    return sorted(
        (path, hashlib.sha256(engine.store.get_object(path)).hexdigest())
        for path in engine.store.list_prefix(engine.workspace)
    )


def test_statement_survives_retries_and_storage_matches_clean_run(make_engine):
    clean = make_engine()
    t_clean, rows_clean = run_mixed_workload(clean)
    task_ids = trace_write_task_ids(clean)
    assert task_ids, "expected write tasks in the trace"
    schedule = []
    for i, task in enumerate(dict.fromkeys(task_ids)):
        point = ("before", "mid", "after")[i % 3]
        schedule.append({"task": task, "attempt": 1, "point": point})
        if i % 2 == 0:
            schedule.append({"task": task, "attempt": 2, "point": "mid"})

    faulty = make_engine(fault_policy=FaultPolicy.from_config(schedule))
    t_faulty, rows_faulty = run_mixed_workload(faulty)
    assert rows_faulty == rows_clean
    retried = [e for e in faulty.dcp.trace if not e.ok]
    assert len(retried) == len(schedule)  # every scheduled fault actually fired
    assert storage_picture(faulty) == storage_picture(clean)
    assert faulty.store.list_staged(faulty.workspace) == []


def test_exhausted_statement_leaves_transaction_usable(make_engine):
    probe = make_engine()
    t = probe.create_table("t", COLS)
    x = probe.begin_transaction("si")
    x.insert(t, seed_rows(2))
    x.insert(t, seed_rows(2, start=5))
    doomed = trace_write_task_ids(probe)[1]  # second statement's task

    engine = make_engine(fault_policy=FaultPolicy.from_config(
        [{"task": doomed, "attempt": a, "point": "mid"} for a in (1, 2, 3)]
    ))
    t = engine.create_table("t", COLS)
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(2))
    with pytest.raises(StatementError):
        x.insert(t, seed_rows(2, start=5))
    assert x.status == "active"
    assert sorted(r[0] for r in x.scan(t)) == [0, 1]  # first statement intact
    x.insert(t, seed_rows(2, start=8))
    x.commit()
    check = engine.begin_transaction("si")
    assert sorted(r[0] for r in check.scan(t)) == [0, 1, 8, 9]
    check.abort()


# ---------------------------------------------------------------------------
# decoded-object cache

def count_decodes(monkeypatch):
    """Count txn.decode_data_file calls; the engine looks it up per call."""
    calls = []
    real = txn_module.decode_data_file

    def counting(payload, *args, **kwargs):
        calls.append(1)
        return real(payload, *args, **kwargs)

    monkeypatch.setattr(txn_module, "decode_data_file", counting)
    return calls


def live_paths(engine, table):
    x = engine.begin_transaction("si")
    paths = [lf.meta.path for lf in engine._table_state(x, table).live.values()]
    x.abort()
    return paths


def committed_manifest_paths(engine, table):
    with engine.catalog.transaction() as ctx:
        rows = engine.snapshots.visible_manifests(ctx, table.table_id)
    return [r.manifest_path for r in rows]


def check_cache_bound(engine):
    assert engine._cached_bytes == sum(size for _, size in engine._cache.values())
    assert engine._cached_bytes <= engine._CACHE_BYTES


def test_warm_scan_of_more_than_512_files_decodes_nothing(engine, monkeypatch):
    t = engine.create_table("t", COLS)
    for i in range(520):
        put_rows(engine, t, seed_rows(1, start=i))
    assert len(live_paths(engine, t)) == 520
    decodes = count_decodes(monkeypatch)
    x = engine.begin_transaction("si")
    assert x.scan(t, aggregate=("count",)) == 520
    assert len(decodes) == 520
    assert sorted(x.scan(t)) == seed_rows(520)
    assert len(decodes) == 520  # the second scan is served from the cache
    x.abort()


def test_cache_evicts_least_recently_used_within_its_byte_bound(engine, monkeypatch):
    t = engine.create_table("t", COLS)
    for i in range(3):
        put_rows(engine, t, seed_rows(1, start=i))
    a, b, c = live_paths(engine, t)
    # any two files fit, all three do not
    total = sum(len(engine.store.get_object(p)) for p in (a, b, c))
    monkeypatch.setattr(_Engine, "_CACHE_BYTES", total - 1)
    engine._file_rows(a)
    engine._file_rows(b)
    engine._file_rows(a)  # a is now the most recently used
    engine._file_rows(c)  # evicts b, the least recently used
    assert list(engine._cache) == [a, c]
    check_cache_bound(engine)
    decodes = count_decodes(monkeypatch)
    engine._file_rows(a)
    engine._file_rows(c)
    assert decodes == []
    engine._file_rows(b)
    assert decodes == [1]
    assert list(engine._cache) == [c, b]  # a was touched before c, so it went


def test_object_larger_than_the_cache_bound_is_not_kept(engine, monkeypatch):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(1))
    put_rows(engine, t, seed_rows(200, start=1))
    small, big = sorted(live_paths(engine, t), key=lambda p: len(engine.store.get_object(p)))
    monkeypatch.setattr(_Engine, "_CACHE_BYTES", len(engine.store.get_object(big)) - 1)
    x = engine.begin_transaction("si")
    assert sorted(x.scan(t)) == seed_rows(201)
    x.abort()
    # the committed manifests share the cache with the data files
    assert [p for p in engine._cache if "/data/" in p] == [small]
    manifests = committed_manifest_paths(engine, t)
    assert len(manifests) == 2 and all(p in engine._cache for p in manifests)
    check_cache_bound(engine)


def test_scans_under_a_small_cache_bound_match_a_model(engine, monkeypatch):
    rng = random.Random(7)
    t = engine.create_table("t", COLS, distribution_count=3)
    put_rows(engine, t, seed_rows(30))
    model = {r[0]: r for r in seed_rows(30)}
    paths = live_paths(engine, t)
    monkeypatch.setattr(_Engine, "_CACHE_BYTES",
                        2 * max(len(engine.store.get_object(p)) for p in paths))
    next_key = 30
    for _ in range(40):
        x = engine.begin_transaction("si", granularity=FILE)
        op = rng.random()
        if op < 0.4:
            rows = seed_rows(rng.randint(1, 4), start=next_key)
            next_key += len(rows)
            x.insert(t, rows)
            model.update((r[0], r) for r in rows)
        elif op < 0.7 and model:
            k = rng.choice(sorted(model))
            assert x.delete(t, [("k", "=", k)]) == 1
            del model[k]
        elif model:
            k = rng.choice(sorted(model))
            x.update(t, {"v": -k}, [("k", "=", k)])
            model[k] = (k, -k, model[k][2])
        x.commit()
        check = engine.begin_transaction("si")
        assert sorted(check.scan(t)) == sorted(model.values())
        assert check.scan(t, aggregate=("sum", "v")) == sum(r[1] for r in model.values())
        check.abort()
        check_cache_bound(engine)


def test_cache_stays_consistent_under_concurrent_readers(engine, monkeypatch):
    t = engine.create_table("t", COLS)
    for i in range(12):
        put_rows(engine, t, seed_rows(1, start=i))
    paths = live_paths(engine, t)
    payloads = {p: engine.store.get_object(p) for p in paths}
    expected = {p: tuple(txn_module.decode_data_file(b)[1]) for p, b in payloads.items()}
    monkeypatch.setattr(_Engine, "_CACHE_BYTES", sum(map(len, payloads.values())) // 2)
    wrong = []

    def reader(w):
        rng = random.Random(w)
        for _ in range(300):
            path = rng.choice(paths)
            if engine._file_rows(path) != expected[path]:
                wrong.append(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(w,)) for w in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    check_cache_bound(engine)  # a lost update would break the byte total


def test_scan_sees_the_new_delete_vector_of_a_cached_file(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(5))
    (path,) = live_paths(engine, t)
    x = engine.begin_transaction("si")
    assert sorted(x.scan(t)) == seed_rows(5)
    x.abort()
    assert path in engine._cache
    for gone, left in ((1, [0, 2, 3, 4]), (3, [0, 2, 4])):
        x = engine.begin_transaction("si")
        assert x.delete(t, [("k", "=", gone)]) == 1
        assert sorted(r[0] for r in x.scan(t)) == left  # own uncommitted delete vector
        x.commit()
        y = engine.begin_transaction("si")
        assert sorted(r[0] for r in y.scan(t)) == left
        y.abort()
    assert live_paths(engine, t) == [path]


# ---------------------------------------------------------------------------
# committed manifests and checkpoints share the decoded-object cache

def history_with_model(engine, t, checkpoint_at=None):
    """Six commits of inserts, deletes and an update, checkpointing after
    sequence checkpoint_at; the sorted rows after each, indexed by sequence."""
    steps = [
        ("insert", seed_rows(4)),
        ("insert", seed_rows(3, start=10)),
        ("delete", [("k", "=", 1)]),
        ("update", [("k", "=", 11)]),
        ("insert", seed_rows(2, start=20)),
        ("delete", [("k", ">=", 20)]),
    ]
    model = {}
    states = [[]]
    for op, arg in steps:
        x = engine.begin_transaction("si", granularity=FILE)
        if op == "insert":
            x.insert(t, arg)
            model.update((r[0], r) for r in arg)
        elif op == "delete":
            x.delete(t, arg)
            model = {k: r for k, r in model.items() if not key_matches(k, arg)}
        else:
            x.update(t, {"v": -1}, arg)
            model.update((k, (k, -1, r[2])) for k, r in model.items() if key_matches(k, arg))
        assert x.commit().sequences[t.table_id] == len(states)
        states.append(sorted(model.values()))
        if len(states) - 1 == checkpoint_at:
            assert engine.maintenance.checkpoint(t) is not None
    return states


def key_matches(k, predicate):
    ops = {"=": lambda a, b: a == b, ">=": lambda a, b: a >= b}
    return all(ops[op](k, value) for _, op, value in predicate)


@pytest.mark.parametrize("checkpoint_at", [None, 2])
def test_as_of_scans_after_a_head_scan_read_no_manifest(tmp_path, monkeypatch,
                                                         checkpoint_at):
    root = str(tmp_path / "r")
    with Engine(root, config=fast_config()) as eng:
        states = history_with_model(eng, eng.create_table("t", COLS), checkpoint_at)
    with Engine(root, config=fast_config()) as eng:
        t = eng.table("t")
        x = eng.begin_transaction("si")
        # the fresh engine's head scan decodes the checkpoint and every
        # manifest after it; no as-of read below decodes one again
        assert sorted(x.scan(t)) == states[-1]
        reads = record_reads(monkeypatch, eng)
        for seq in (3, 4, 5):
            assert sorted(x.scan(t, as_of=seq)) == states[seq]
        x.abort()
    assert [p for p in reads if "/manifests/" in p or "/checkpoints/" in p] == []


def test_open_transactions_manifest_stays_out_of_the_cache(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(4))
    x = engine.begin_transaction("si", granularity=FILE)
    x.insert(t, seed_rows(2, start=10))
    mpath = x.manifest_paths[t.table_id]
    x.delete(t, [("k", "=", 0)])  # the second statement rewrites the manifest
    assert x.manifest_paths[t.table_id] == mpath
    own = [p for p in engine._cache
           if p.rsplit("/", 1)[-1].startswith((x.guid + "s", x.guid + "."))]
    assert own == []
    seq = x.commit().sequences[t.table_id]
    expected = sorted(seed_rows(3, start=1) + seed_rows(2, start=10))
    y = engine.begin_transaction("si")
    assert sorted(y.scan(t)) == expected
    assert sorted(y.scan(t, as_of=seq)) == expected
    assert sorted(y.scan(t, as_of=seq - 1)) == seed_rows(4)
    y.abort()
    assert mpath in engine._cache


def test_missing_manifest_object_is_a_sequence_gap(tmp_path):
    root = str(tmp_path / "r")
    with Engine(root, config=fast_config()) as eng:
        t = eng.create_table("t", COLS)
        put_rows(eng, t, seed_rows(2))
        put_rows(eng, t, seed_rows(2, start=5))
        eng.store.delete_object(committed_manifest_paths(eng, t)[0])
    with Engine(root, config=fast_config()) as eng:
        x = eng.begin_transaction("si")
        with pytest.raises(SequenceGapError, match="manifest missing"):
            x.scan(eng.table("t"))
        x.abort()


def test_close_releases_the_caches(tmp_path):
    eng = Engine(str(tmp_path / "r"), config=fast_config())
    t = eng.create_table("t", COLS)
    put_rows(eng, t, seed_rows(4))
    x = eng.begin_transaction("si")
    assert sorted(x.scan(t)) == seed_rows(4)
    x.abort()
    assert eng._cache and eng._cached_bytes and eng.snapshots._cache
    eng.close()
    assert len(eng._cache) == 0 and eng._cached_bytes == 0
    assert eng.snapshots._cache == {}


# ---------------------------------------------------------------------------
# read tasks: one contiguous slice of live files per read worker

def read_attempts(engine, txn):
    """Trace entries of the read tasks of txn's latest statement."""
    prefix = f"{txn.guid}s{txn.stmt}.r"
    return [e for e in engine.dcp.trace if e.task_id.startswith(prefix)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_scan_runs_one_read_task_per_worker(make_engine, workers):
    engine = make_engine(fast_config(read_workers=workers))
    t = engine.create_table("t", COLS)
    for i in range(5):
        put_rows(engine, t, seed_rows(2, start=2 * i))  # file i holds k = 2i, 2i+1
    x = engine.begin_transaction("si")
    assert sorted(x.scan(t)) == seed_rows(10)
    assert sorted(e.task_id for e in read_attempts(engine, x)) == [
        f"{x.guid}s{x.stmt}.r{i:03d}" for i in range(workers)]
    assert sorted(x.scan(t, predicate=[("k", "<", 4)])) == seed_rows(4)  # two files
    assert len(read_attempts(engine, x)) == min(workers, 2)
    x.abort()


def grouped_scans(engine):
    """Scans of a table with delete vectors, under a predicate and a
    projection, through the txn's own uncommitted writes; also the rows in
    live-file order, read file by file."""
    t = engine.create_table("t", COLS, distribution_count=2)
    for i in range(4):
        put_rows(engine, t, seed_rows(6, start=6 * i))
    x = engine.begin_transaction("si")
    assert x.delete(t, [("tag", "=", "tag1")]) == 8
    x.commit()
    x = engine.begin_transaction("si")
    x.insert(t, seed_rows(5, start=100))
    x.update(t, {"v": -1}, [("k", "=", 3)])
    x.delete(t, [("k", "=", 101)])
    state = engine._table_state(x, t)
    file_order = [row for lf in state.live.values()
                  for i, row in enumerate(engine._file_rows(lf.meta.path))
                  if i not in engine._dv_bits(lf.dv)]
    scans = (x.scan(t),
             x.scan(t, columns=["tag", "k"], predicate=[("v", ">=", 50)]),
             x.scan(t, predicate=[("tag", "!=", "tag0")], aggregate=("sum", "v")))
    x.abort()
    return file_order, scans


def test_scan_rows_keep_file_order_for_every_worker_count(make_engine):
    pictures = [grouped_scans(make_engine(fast_config(read_workers=w))) for w in (1, 2, 3)]
    file_order, (full, projected, total) = pictures[0]
    assert full == file_order
    expected = {r[0]: r for r in seed_rows(24) if r[0] % 3 != 1}
    expected.update((r[0], r) for r in seed_rows(5, start=100))
    expected[3] = (3, -1, "tag0")
    del expected[101]
    assert sorted(full) == sorted(expected.values())
    assert projected == [(r[2], r[0]) for r in full if r[1] >= 50]
    assert total == sum(r[1] for r in full if r[2] != "tag0")
    assert all(p == pictures[0] for p in pictures[1:])


def test_scan_that_prunes_every_file_runs_no_read_task(engine):
    t = engine.create_table("t", COLS)
    put_rows(engine, t, seed_rows(3))
    put_rows(engine, t, seed_rows(3, start=3))
    x = engine.begin_transaction("si")
    trace = list(engine.dcp.trace)
    assert x.scan(t, predicate=[("k", ">", 99)]) == []
    assert x.scan(t, predicate=[("k", ">", 99)], aggregate="count") == 0
    assert list(engine.dcp.trace) == trace
    x.abort()


@pytest.mark.parametrize("point", ["before", "mid", "after"])
def test_faulted_read_slice_is_retried(make_engine, point):
    engine = make_engine(fast_config(read_workers=2))
    t = engine.create_table("t", COLS)
    for i in range(5):
        put_rows(engine, t, seed_rows(2, start=2 * i))
    x = engine.begin_transaction("si")
    clean = x.scan(t)
    second = f"{x.guid}s{x.stmt + 1}.r001"
    engine.dcp.fault_policy = FaultPolicy(((second, 1, point),))
    assert x.scan(t) == clean
    assert [(e.attempt, e.ok) for e in engine.dcp.trace if e.task_id == second] == [
        (1, False), (2, True)]
    x.abort()
