"""Hash distribution and the pool/fault simulator.

FNV-1a reference values below are the published test vectors for the 64-bit
variant (offset basis 14695981039346656037, prime 1099511628211).
"""

import collections
import sys
import threading
import time

import pytest

from lstx.datafile import Schema
from lstx.dcp import (
    TRACE_LIMIT,
    DcpSimulator,
    FaultContext,
    FaultPolicy,
    InjectedFault,
    Task,
    TaskResult,
    distribute,
    fnv1a64,
    hash_key_bytes,
    stable_hash64,
)
from lstx.errors import StatementError

SCHEMA = Schema.of(("k", "int64"), ("v", "utf8"))


# ---------------------------------------------------------------------------
# hashing

def test_fnv1a64_reference_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_matches_direct_fold():
    # independent reimplementation of the fold
    def oracle(data: bytes) -> int:
        h = 14695981039346656037
        for byte in data:
            h ^= byte
            h = (h * 1099511628211) % (1 << 64)
        return h

    for sample in (b"", b"x", b"hello world", bytes(range(256))):
        assert fnv1a64(sample) == oracle(sample)


def test_key_bytes_distinguish_types():
    samples = [1, 1.0, True, "1", False, 0, 0.0, ""]
    encodings = [hash_key_bytes((s,)) for s in samples]
    assert len(set(encodings)) == len(encodings)
    # concatenation is not ambiguous either: ("a", "b") != ("ab",)
    assert hash_key_bytes(("a", "b")) != hash_key_bytes(("ab",))
    with pytest.raises(TypeError):
        hash_key_bytes((None,))
    with pytest.raises(TypeError):
        hash_key_bytes((b"raw",))


def test_stable_hash_is_deterministic():
    assert stable_hash64((1, "a")) == stable_hash64((1, "a"))
    assert stable_hash64((1, "a")) != stable_hash64(("a", 1))


# ---------------------------------------------------------------------------
# distribution

def test_distribute_is_dense_and_preserves_rows():
    rows = [(i, f"v{i}") for i in range(100)]
    buckets = distribute(SCHEMA, rows, 8)
    assert len(buckets) == 8
    flat = [r for b in buckets for r in b]
    assert sorted(flat) == sorted(rows)
    again = distribute(SCHEMA, rows, 8)
    assert buckets == again


def test_distribute_by_key_groups_equal_keys():
    rows = [(i % 5, f"v{i}") for i in range(50)]
    buckets = distribute(SCHEMA, rows, 4, distribution_key=("k",))
    homes = {}
    for b, rows_b in enumerate(buckets):
        for row in rows_b:
            homes.setdefault(row[0], set()).add(b)
    assert all(len(bs) == 1 for bs in homes.values())


def test_distribute_single_bucket():
    rows = [(1, "a"), (2, "b")]
    assert distribute(SCHEMA, rows, 1) == [rows]


def test_partition_key_sorts_within_bucket():
    rows = [(9, "z"), (1, "a"), (5, "m")]
    buckets = distribute(SCHEMA, rows, 1, partition_key=("k",))
    assert buckets[0] == [(1, "a"), (5, "m"), (9, "z")]


def test_distribution_spread_is_reasonable():
    rows = [(i, "x") for i in range(1000)]
    buckets = distribute(SCHEMA, rows, 8)
    sizes = [len(b) for b in buckets]
    assert sum(sizes) == 1000
    assert min(sizes) > 60 and max(sizes) < 190  # loose uniformity bound


# ---------------------------------------------------------------------------
# fault policy

def test_fault_policy_matching_and_validation():
    policy = FaultPolicy.from_config([
        {"task": "t1", "attempt": 1, "point": "mid"},
        {"task": "t2", "attempt": 2, "point": "before"},
    ])
    assert policy.fails("t1", 1, "mid")
    assert not policy.fails("t1", 2, "mid")
    assert not policy.fails("t1", 1, "after")
    with pytest.raises(ValueError):
        FaultPolicy.from_config([{"task": "t", "attempt": 1, "point": "sideways"}])
    with pytest.raises(ValueError):
        FaultPolicy.from_config([{"task": "t", "attempt": 0, "point": "mid"}])


def test_fault_context_raises_at_checkpoint():
    policy = FaultPolicy.from_config([{"task": "t", "attempt": 1, "point": "mid"}])
    fc = FaultContext(policy, "t", 1)
    fc.checkpoint("before")
    with pytest.raises(InjectedFault):
        fc.checkpoint("mid")
    fc2 = FaultContext(policy, "t", 2)
    fc2.checkpoint("mid")
    fc3 = FaultContext(None, "t", 1)
    fc3.checkpoint("mid")


# ---------------------------------------------------------------------------
# simulator

def make_task(task_id, fn, kind="write", cells=None):
    return Task(task_id, kind, fn, cells=cells or ((task_id,),))


def test_results_come_back_in_submission_order():
    sim = DcpSimulator(write_workers=4)
    try:
        import time

        def slow_then_fast(i):
            def fn(fc):
                time.sleep(0.02 if i == 0 else 0)
                return TaskResult(f"t{i}", value=i)
            return fn

        tasks = [make_task(f"t{i}", slow_then_fast(i)) for i in range(6)]
        results = sim.run_tasks(tasks)
        assert [r.value for r in results] == list(range(6))
    finally:
        sim.close()


def test_overlapping_cells_rejected():
    sim = DcpSimulator()
    try:
        t1 = make_task("a", lambda fc: TaskResult("a"), cells=((1, "f"),))
        t2 = make_task("b", lambda fc: TaskResult("b"), cells=((1, "f"),))
        with pytest.raises(ValueError):
            sim.run_tasks([t1, t2])
    finally:
        sim.close()


def test_retry_until_success_and_trace():
    policy = FaultPolicy.from_config([
        {"task": "t0", "attempt": 1, "point": "mid"},
        {"task": "t0", "attempt": 2, "point": "after"},
    ])
    sim = DcpSimulator(write_workers=2, fault_policy=policy)
    try:
        calls = []

        def fn(fc):
            calls.append(fc.attempt)
            fc.checkpoint("before")
            fc.checkpoint("mid")
            fc.checkpoint("after")
            return TaskResult("t0", value="done")

        [res] = sim.run_tasks([make_task("t0", fn)])
        assert res.value == "done"
        assert calls == [1, 2, 3]
        attempts = [(e.task_id, e.attempt, e.ok) for e in sim.trace]
        assert attempts == [("t0", 1, False), ("t0", 2, False), ("t0", 3, True)]
    finally:
        sim.close()


def test_exhausted_retries_fail_the_statement():
    policy = FaultPolicy.from_config([
        {"task": "t0", "attempt": a, "point": "before"} for a in (1, 2, 3)
    ])
    sim = DcpSimulator(write_workers=1, max_attempts=3, fault_policy=policy)
    try:
        def fn(fc):
            fc.checkpoint("before")
            return TaskResult("t0")

        with pytest.raises(StatementError, match="3 attempts"):
            sim.run_tasks([make_task("t0", fn)])
    finally:
        sim.close()


def test_sibling_tasks_complete_when_one_fails():
    policy = FaultPolicy.from_config([
        {"task": "bad", "attempt": a, "point": "before"} for a in (1, 2, 3)
    ])
    sim = DcpSimulator(write_workers=2, fault_policy=policy)
    try:
        done = []

        def good(fc):
            done.append(True)
            return TaskResult("good")

        def bad(fc):
            fc.checkpoint("before")
            return TaskResult("bad")

        with pytest.raises(StatementError):
            sim.run_tasks([make_task("bad", bad), make_task("good", good)])
        assert done == [True]
    finally:
        sim.close()


def test_read_and_write_pools_are_separate():
    sim = DcpSimulator(write_workers=1, read_workers=1)
    try:
        sim.run_tasks([make_task("w", lambda fc: TaskResult("w"), kind="write")])
        sim.run_tasks([make_task("r", lambda fc: TaskResult("r"), kind="read")])
        workers = {e.task_id: e.worker for e in sim.trace}
        assert workers["w"].startswith("dcp-write")
        assert workers["r"].startswith("dcp-read")
    finally:
        sim.close()


def test_empty_task_list_is_fine():
    sim = DcpSimulator()
    try:
        assert sim.run_tasks([]) == []
    finally:
        sim.close()


def count_submits(sim, kind):
    """Wrap the pool's submit so the test sees every hand-off to it."""
    pool = sim._pool(kind)
    calls = []
    submit = pool.submit

    def counting(*args, **kwargs):
        calls.append(args)
        return submit(*args, **kwargs)

    pool.submit = counting
    return calls


def test_one_pool_job_per_worker_per_statement():
    sim = DcpSimulator(read_workers=1)
    try:
        calls = count_submits(sim, "read")
        tasks = [make_task(f"r{i}", lambda fc, i=i: TaskResult(f"r{i}", value=i), kind="read")
                 for i in range(50)]
        results = sim.run_tasks(tasks)
        assert len(calls) == 1
        assert [r.value for r in results] == list(range(50))
        assert [e.task_id for e in sim.trace] == [f"r{i}" for i in range(50)]
        assert all(e.worker.startswith("dcp-read") for e in sim.trace)
    finally:
        sim.close()
    sim = DcpSimulator(write_workers=3)
    try:
        calls = count_submits(sim, "write")
        results = sim.run_tasks([make_task(f"w{i}", lambda fc, i=i: TaskResult(f"w{i}", value=i))
                                 for i in range(2)])
        assert len(calls) == 2
        assert [r.value for r in results] == [0, 1]
    finally:
        sim.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_every_task_settles_before_an_error_is_raised(workers):
    doomed_policy = FaultPolicy.from_config([
        {"task": "doomed", "attempt": a, "point": "before"} for a in (1, 2, 3)
    ])
    sim = DcpSimulator(write_workers=workers, fault_policy=doomed_policy)
    try:
        finished = []

        def boom(fc):
            raise ValueError("boom")

        def slow(fc):
            time.sleep(0.05)
            finished.append(fc.task_id)
            return TaskResult(fc.task_id)

        def doomed(fc):
            fc.checkpoint("before")
            return TaskResult("doomed")

        with pytest.raises(ValueError):
            try:
                sim.run_tasks([make_task("boom", boom), make_task("slow", slow)])
            finally:
                settled_first = list(finished)
        assert settled_first == ["slow"]

        # a StatementError earlier in task order does not hide the ValueError
        finished.clear()
        with pytest.raises(ValueError):
            try:
                sim.run_tasks([make_task("doomed", doomed), make_task("boom", boom),
                               make_task("slow2", slow)])
            finally:
                settled_first = list(finished)
        assert settled_first == ["slow2"]
    finally:
        sim.close()


def test_workers_sharing_a_statement_run_each_task_once():
    sim = DcpSimulator(read_workers=8)
    runs = collections.Counter()
    runs_lock = threading.Lock()

    def fn(fc):
        with runs_lock:
            runs[fc.task_id] += 1
        return TaskResult(fc.task_id, value=fc.task_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ids = [f"r{i}" for i in range(500)]
        for _ in range(5):
            results = sim.run_tasks([make_task(t, fn, kind="read") for t in ids])
            assert [r.value for r in results] == ids
        assert set(runs) == set(ids) and set(runs.values()) == {5}
    finally:
        sys.setswitchinterval(interval)
        sim.close()


def test_trace_keeps_the_newest_attempts():
    sim = DcpSimulator(write_workers=1)
    try:
        ids = [f"t{i}" for i in range(TRACE_LIMIT + 25)]
        tasks = [make_task(t, lambda fc: TaskResult(fc.task_id)) for t in ids]
        sim.run_tasks(tasks[:100])
        sim.run_tasks(tasks[100:])
        assert [e.task_id for e in sim.trace] == ids[-TRACE_LIMIT:]
    finally:
        sim.close()
