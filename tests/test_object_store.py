"""Object store contract: write-once objects, block staging, atomic lists."""

import os
import threading
import tracemalloc

import pytest

from lstx.errors import (
    AlreadyExistsError,
    InvalidPathError,
    NotFoundError,
    UnknownBlockError,
)
from lstx import object_store
from lstx.object_store import BlockId, LocalObjectStore, ObjectPath


@pytest.fixture
def store(tmp_path):
    return LocalObjectStore(str(tmp_path / "objects"))


def bid(n: int) -> BlockId:
    return BlockId.derive(f"block-{n}")


# ---------------------------------------------------------------------------
# paths

def test_path_parse_roundtrip():
    p = ObjectPath.parse("ws/t1/data/f.col")
    assert p.segments == ("ws", "t1", "data", "f.col")
    assert str(p) == "ws/t1/data/f.col"


@pytest.mark.parametrize("bad", [
    "", "/abs", "a//b", "a/../b", "a/./b", "a/.tmpstage/b", "a/b.staged",
    "a/" + "x" * 1025,
])
def test_path_rejects_malformed(bad):
    with pytest.raises(InvalidPathError):
        ObjectPath.parse(bad)


def test_block_id_is_derived_and_stable():
    a = BlockId.derive("writer-key")
    b = BlockId.derive("writer-key")
    assert a == b
    assert len(a.id) == 32
    assert a.id == a.id.lower()
    assert int(a.id, 16) >= 0
    assert BlockId.derive("other").id != a.id


# ---------------------------------------------------------------------------
# objects

def test_put_get_roundtrip(store):
    store.put_object("a/b/c.bin", b"payload")
    assert store.get_object("a/b/c.bin") == b"payload"
    assert store.object_exists("a/b/c.bin")
    assert not store.object_exists("a/b/missing")


def test_put_is_write_once(store):
    store.put_object("a/x", b"1")
    with pytest.raises(AlreadyExistsError):
        store.put_object("a/x", b"2")
    assert store.get_object("a/x") == b"1"


def test_get_missing_raises(store):
    with pytest.raises(NotFoundError):
        store.get_object("nope/nothing")


def test_delete_is_idempotent(store):
    store.put_object("a/x", b"1")
    store.delete_object("a/x")
    store.delete_object("a/x")
    assert not store.object_exists("a/x")


def test_list_prefix_sorted_and_scoped(store):
    for name in ("w/t1/b", "w/t1/a", "w/t2/c", "other/z"):
        store.put_object(name, b".")
    assert store.list_prefix("w") == ["w/t1/a", "w/t1/b", "w/t2/c"]
    assert store.list_prefix("w/t1") == ["w/t1/a", "w/t1/b"]
    assert store.list_prefix("w/t9") == []


def test_rewrite_via_blocks_replaces_content(store):
    store.stage_block("v/obj", bid(1), b"one")
    store.commit_block_list("v/obj", [bid(1)])
    assert store.get_object("v/obj") == b"one"
    store.stage_block("v/obj", bid(2), b"two")
    store.commit_block_list("v/obj", [bid(2)])
    assert store.get_object("v/obj") == b"two"
    assert store.staged_blocks("v/obj") == []


# ---------------------------------------------------------------------------
# block staging

def test_commit_concatenates_in_list_order(store):
    # oracle: expected image assembled independently of the store
    payloads = {1: b"alpha|", 2: b"beta|", 3: b"gamma"}
    for n, body in payloads.items():
        store.stage_block("m/obj", bid(n), body)
    order = [3, 1, 2]
    expected = b"".join(payloads[n] for n in order)
    store.commit_block_list("m/obj", [bid(n) for n in order])
    assert store.get_object("m/obj") == expected


def test_unlisted_staged_blocks_are_discarded(store):
    store.stage_block("m/obj", bid(1), b"keep")
    store.stage_block("m/obj", bid(2), b"drop")
    store.commit_block_list("m/obj", [bid(1)])
    assert store.get_object("m/obj") == b"keep"
    assert store.staged_blocks("m/obj") == []


def test_commit_unknown_block_changes_nothing(store):
    store.stage_block("m/obj", bid(1), b"data")
    with pytest.raises(UnknownBlockError):
        store.commit_block_list("m/obj", [bid(1), bid(9)])
    # staged blocks must survive a failed commit
    assert store.staged_blocks("m/obj") == [bid(1).id]
    assert not store.object_exists("m/obj")
    store.commit_block_list("m/obj", [bid(1)])
    assert store.get_object("m/obj") == b"data"


def test_restage_replaces_payload(store):
    store.stage_block("m/obj", bid(1), b"first")
    store.stage_block("m/obj", bid(1), b"second")
    store.commit_block_list("m/obj", [bid(1)])
    assert store.get_object("m/obj") == b"second"


def test_stage_empty_payload_rejected(store):
    with pytest.raises(InvalidPathError):
        store.stage_block("m/obj", bid(1), b"")
    store.stage_block("m/obj", bid(1), b"data")
    with pytest.raises(InvalidPathError):
        store.commit_block_list("m/obj", [])
    assert store.staged_blocks("m/obj") == [bid(1).id]
    assert not store.object_exists("m/obj")


def test_staged_blocks_invisible_until_commit(store):
    store.stage_block("m/obj", bid(1), b"data")
    assert not store.object_exists("m/obj")
    assert store.list_prefix("m") == []
    assert store.list_staged("m") == ["m/obj"]


def test_commit_replaces_existing_object(store):
    store.put_object("m/obj", b"old")
    store.stage_block("m/obj", bid(1), b"new")
    store.commit_block_list("m/obj", [bid(1)])
    assert store.get_object("m/obj") == b"new"


def test_discard_staged_keeps_object(store):
    store.put_object("m/obj", b"keep")
    store.stage_block("m/obj", bid(1), b"junk")
    store.discard_staged("m/obj")
    assert store.staged_blocks("m/obj") == []
    assert store.get_object("m/obj") == b"keep"


def test_delete_object_drops_staged_blocks(store):
    store.stage_block("m/obj", bid(1), b"junk")
    store.delete_object("m/obj")
    assert store.staged_blocks("m/obj") == []
    assert store.list_staged("m") == []


def test_concurrent_staging_then_single_commit(store):
    errors = []

    def worker(n):
        try:
            store.stage_block("c/obj", bid(n), f"part{n:02d};".encode())
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    order = list(range(16))
    store.commit_block_list("c/obj", [bid(n) for n in order])
    expected = b"".join(f"part{n:02d};".encode() for n in order)
    assert store.get_object("c/obj") == expected


def test_store_memory_does_not_grow_with_paths_written(store):
    def cycles(start, n):
        for i in range(start, start + n):
            store.put_object(f"p/{i}", b"x")
            store.delete_object(f"p/{i}")
            store.stage_block(f"s/{i}", bid(i), b"y")
            store.commit_block_list(f"s/{i}", [bid(i)])
            store.delete_object(f"s/{i}")

    cycles(0, 100)  # warm up allocator pools and interned strings
    module = os.path.abspath(object_store.__file__)
    only_store = [tracemalloc.Filter(True, module)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_store)
        cycles(100, 1000)
        after = tracemalloc.take_snapshot().filter_traces(only_store)
    finally:
        tracemalloc.stop()
    growth = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert growth < 32 * 1024, f"store bookkeeping grew by {growth} bytes"
    assert store.list_prefix("p") == [] and store.list_prefix("s") == []


# ---------------------------------------------------------------------------
# staging layout: one staging directory per object directory

def test_blocks_of_a_name_and_its_dotted_sibling_stay_apart(store):
    store.stage_block("m/obj", bid(1), b"obj-1")
    store.stage_block("m/obj", bid(2), b"obj-2")
    store.stage_block("m/obj.1", bid(1), b"dot-1")
    store.stage_block("m/obj.1", bid(3), b"dot-3")
    store.commit_block_list("m/obj", [bid(1)])
    assert store.get_object("m/obj") == b"obj-1"
    assert store.staged_blocks("m/obj") == []
    assert store.staged_blocks("m/obj.1") == sorted([bid(1).id, bid(3).id])

    store.stage_block("m/obj", bid(4), b"obj-4")
    store.discard_staged("m/obj.1")
    assert store.staged_blocks("m/obj.1") == []
    assert store.staged_blocks("m/obj") == [bid(4).id]
    store.stage_block("m/obj.1", bid(5), b"dot-5")
    store.delete_object("m/obj")
    assert store.staged_blocks("m/obj") == []
    assert store.staged_blocks("m/obj.1") == [bid(5).id]
    store.commit_block_list("m/obj.1", [bid(5)])
    assert store.get_object("m/obj.1") == b"dot-5"
    store.stage_block("m/obj", bid(6), b"obj-6")
    store.delete_object("m/obj.1")
    assert store.staged_blocks("m/obj") == [bid(6).id]
    assert store.list_prefix("m") == []


def test_list_staged_reports_each_path_once(store):
    for n in range(3):
        store.stage_block("m/obj", bid(n), b"x")
        store.stage_block("m/obj.1", bid(n), b"x")
        store.stage_block("m/sub/obj", bid(n), b"x")
    assert store.list_staged("m") == ["m/obj", "m/obj.1", "m/sub/obj"]
    assert store.list_staged("m/sub") == ["m/sub/obj"]
    assert store.list_staged("none") == []


def test_list_naming_one_id_twice_concatenates(store):
    store.stage_block("m/obj", bid(1), b"one|")
    store.stage_block("m/obj", bid(2), b"two|")
    store.commit_block_list("m/obj", [bid(1), bid(2), bid(1), bid(1)])
    assert store.get_object("m/obj") == b"one|two|one|one|"
    store.stage_block("m/obj", bid(1), b"one|")
    store.stage_block("m/obj", bid(2), b"two|")
    store.commit_block_list("m/obj", [bid(2), bid(1), bid(2)])
    assert store.get_object("m/obj") == b"two|one|two|"
    assert store.staged_blocks("m/obj") == []


def test_failing_append_leaves_head_block_and_no_object(store, monkeypatch):
    store.stage_block("m/obj", bid(1), b"head")
    store.stage_block("m/obj", bid(2), b"tail-block")
    real_open = open

    class HalfWriter:
        """Appends half of what it is given, then fails as a full disk does."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "a" in mode else fh

    monkeypatch.setattr(object_store, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        store.commit_block_list("m/obj", [bid(1), bid(2)])
    monkeypatch.undo()
    assert not store.object_exists("m/obj")
    assert store.staged_blocks("m/obj") == sorted([bid(1).id, bid(2).id])
    staged_dir = os.path.join(store.root, "m", ".staged")
    with real_open(os.path.join(staged_dir, f"obj.{bid(1).id}"), "rb") as fh:
        assert fh.read() == b"head"
    store.commit_block_list("m/obj", [bid(1), bid(2)])
    assert store.get_object("m/obj") == b"headtail-block"


def directories(root):
    return {dirpath for dirpath, _, _ in os.walk(root)}


def test_second_transaction_neither_makes_nor_removes_a_directory(engine, monkeypatch):
    t = engine.create_table("t", [("k", "int64"), ("v", "int64")], distribution_count=2)

    def transaction(base):
        x = engine.begin_transaction("si")
        x.insert(t, [(k, k) for k in range(base, base + 8)])
        x.delete(t, [("k", "=", base + 1)])
        x.update(t, {"v": 0}, [("k", ">", base + 5)])
        x.commit()

    transaction(0)
    before = directories(engine.store.root)
    made, removed = [], []
    real_mkdir, real_rmdir = os.mkdir, os.rmdir

    def mkdir(path, *args, **kwargs):
        real_mkdir(path, *args, **kwargs)
        made.append(path)  # only directories that did not exist yet

    def rmdir(path, *args, **kwargs):
        real_rmdir(path, *args, **kwargs)
        removed.append(path)

    monkeypatch.setattr(os, "mkdir", mkdir)
    monkeypatch.setattr(os, "rmdir", rmdir)
    transaction(8)
    monkeypatch.undo()
    assert made == [] and removed == []
    assert directories(engine.store.root) == before
    assert engine.store.list_staged(engine.workspace) == []
