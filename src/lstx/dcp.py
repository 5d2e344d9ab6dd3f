"""Simulated distributed compute pool.

Statements fan out into tasks over disjoint cell sets. An insert cell is a
distribution bucket; a delete, update or read cell is one data file. A write
task covers one cell, while a read task covers a contiguous slice of the
statement's files, one slice per read worker. Tasks run on
worker threads drawn from separate read and write pools, may be cancelled at
injected fault points, and are retried up to a bounded attempt count. A
statement hands each pool at most one job per worker; the jobs take the
statement's tasks in task order from a shared iterator, so with one worker the
tasks run in order. Every task settles before the statement returns or raises.
Results come back in task order regardless of scheduling, and every
identifier a task mints is derived from its identity, so a fixed seed plus a
fixed fault schedule reproduces identical block lists and file metas. The
trace keeps only the newest TRACE_LIMIT task attempts.
"""

from __future__ import annotations

import collections
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from .errors import StatementError

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

BEFORE = "before"
MID = "mid"
AFTER = "after"
FAULT_POINTS = (BEFORE, MID, AFTER)

TRACE_LIMIT = 4096  # task attempts DcpSimulator.trace keeps, newest last


def fnv1a64(data: bytes) -> int:
    """FNV-1a, 64 bit. Fixed published constants so bucket assignment is
    reproducible across implementations."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h


def hash_key_bytes(values) -> bytes:
    """Canonical byte encoding of a distribution key tuple (see docs/format.md)."""
    parts = []
    for v in values:
        if type(v) is bool:
            parts.append(b"b" + (b"\x01" if v else b"\x00"))
        elif type(v) is int:
            parts.append(b"i" + struct.pack(">q", v))
        elif type(v) is float:
            parts.append(b"f" + struct.pack(">d", v))
        elif type(v) is str:
            raw = v.encode("utf-8")
            parts.append(b"s" + struct.pack(">I", len(raw)) + raw)
        else:
            raise TypeError(f"unhashable distribution key value: {v!r}")
    return b"".join(parts)


def stable_hash64(values) -> int:
    return fnv1a64(hash_key_bytes(values))


def distribute(schema, rows, distribution_count: int,
               distribution_key=None, partition_key=None) -> list:
    """Bucket rows by the stable hash of their distribution key columns
    (all columns when none are declared). Buckets are returned dense,
    index == d(r); within a bucket rows keep arrival order, or are sorted by
    the partition key when one is defined."""
    if distribution_count < 1:
        raise ValueError("distribution_count must be >= 1")
    names = tuple(distribution_key) if distribution_key else schema.names
    idxs = [schema.index_of(n) for n in names]
    buckets = [[] for _ in range(distribution_count)]
    for row in rows:
        d = stable_hash64(tuple(row[i] for i in idxs)) % distribution_count
        buckets[d].append(row)
    if partition_key:
        pidx = [schema.index_of(n) for n in partition_key]
        for bucket in buckets:
            bucket.sort(key=lambda r: tuple(r[i] for i in pidx))
    return buckets


class InjectedFault(Exception):
    """Cooperative cancellation of one task attempt at an injected point."""


@dataclass(frozen=True)
class FaultPolicy:
    """Schedule of (task_id, attempt) -> fault point. Deterministic: the same
    schedule always cancels the same attempts at the same points."""

    schedule: tuple = ()  # ((task_id, attempt, point), ...)
    _faults: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for task_id, attempt, point in self.schedule:
            if point not in FAULT_POINTS:
                raise ValueError(f"unknown fault point: {point}")
            if attempt < 1:
                raise ValueError("attempts are 1-based")
            if not isinstance(task_id, str):
                raise ValueError(f"task id must be a string: {task_id!r}")
        object.__setattr__(self, "_faults", frozenset(self.schedule))

    @classmethod
    def from_config(cls, entries) -> "FaultPolicy":
        return cls(tuple((e["task"], int(e["attempt"]), e["point"]) for e in entries))

    def fails(self, task_id: str, attempt: int, point: str) -> bool:
        return (task_id, attempt, point) in self._faults


class FaultContext:
    """Handed to each task attempt; tasks call checkpoint() at the published
    injection points."""

    def __init__(self, policy: "FaultPolicy | None", task_id: str, attempt: int):
        self.policy = policy
        self.task_id = task_id
        self.attempt = attempt

    def checkpoint(self, point: str) -> None:
        if self.policy is not None and self.policy.fails(self.task_id, self.attempt, point):
            raise InjectedFault(f"{self.task_id} attempt {self.attempt} cancelled {point}")


@dataclass(frozen=True)
class Task:
    """One unit of statement work over a disjoint cell set. fn(FaultContext)
    returns a TaskResult."""

    task_id: str
    kind: str  # "read" | "write"
    fn: object
    cells: tuple = ()


@dataclass(frozen=True)
class TaskResult:
    task_id: str
    actions: tuple = ()
    block_ids: tuple = ()
    value: object = None


@dataclass(frozen=True)
class TraceEvent:
    worker: str
    task_id: str
    kind: str
    attempt: int
    started: float
    finished: float
    ok: bool


@dataclass
class DcpSimulator:
    """Two fixed worker pools (read and write) plus a retry loop with fault
    injection. Tasks of one statement must cover disjoint cells. A statement
    submits at most min(workers, tasks) jobs to each pool and waits for every
    task to settle; results come back in task order. The trace holds the
    newest TRACE_LIMIT attempts."""

    write_workers: int = 1
    read_workers: int = 1
    max_attempts: int = 3
    fault_policy: "FaultPolicy | None" = None
    trace: collections.deque = field(
        default_factory=lambda: collections.deque(maxlen=TRACE_LIMIT))
    _mutex: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _pools: dict = field(default_factory=dict, repr=False)

    def _workers(self, kind: str) -> int:
        return self.write_workers if kind == "write" else self.read_workers

    def _pool(self, kind: str) -> ThreadPoolExecutor:
        with self._mutex:
            pool = self._pools.get(kind)
            if pool is None:
                n = self._workers(kind)
                if n < 1:
                    raise ValueError(f"{kind} pool needs at least one worker")
                pool = ThreadPoolExecutor(max_workers=n, thread_name_prefix=f"dcp-{kind}")
                self._pools[kind] = pool
            return pool

    def run_tasks(self, tasks) -> list:
        """Execute tasks on their pools; return TaskResults in task order.
        Every task settles before this returns or raises. The first error in
        task order that is not a StatementError wins; otherwise the first
        StatementError (a task that exhausted its attempts) is raised."""
        tasks = list(tasks)
        seen_cells = set()
        for t in tasks:
            overlap = seen_cells.intersection(t.cells)
            if overlap:
                raise ValueError(f"tasks share cells: {sorted(overlap)}")
            seen_cells.update(t.cells)
        by_kind = {}
        for i, t in enumerate(tasks):
            by_kind.setdefault(t.kind, []).append(i)
        outcomes = [None] * len(tasks)  # (ok, TaskResult or exception)
        jobs = []
        for kind, indexes in by_kind.items():
            pending = iter(indexes)
            lock = threading.Lock()
            pool = self._pool(kind)
            for _ in range(min(self._workers(kind), len(indexes))):
                jobs.append(pool.submit(self._drain, tasks, pending, lock, outcomes))
        wait(jobs)
        for job in jobs:
            job.result()  # task errors sit in outcomes; this raises only _drain's own
        errors = [out for ok, out in outcomes if not ok]
        if errors:
            raise next((e for e in errors if not isinstance(e, StatementError)), errors[0])
        return [out for _, out in outcomes]

    def _drain(self, tasks, pending, lock, outcomes) -> None:
        """One pool job: run the statement's next unclaimed task until none
        is left, recording each result or error at the task's index."""
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                outcomes[i] = (True, self._run_one(tasks[i]))
            except Exception as exc:
                outcomes[i] = (False, exc)

    def _run_one(self, task: Task) -> TaskResult:
        worker = threading.current_thread().name
        for attempt in range(1, self.max_attempts + 1):
            ctx = FaultContext(self.fault_policy, task.task_id, attempt)
            started = time.monotonic()
            try:
                result = task.fn(ctx)
            except InjectedFault:
                self._record(worker, task, attempt, started, ok=False)
                continue
            self._record(worker, task, attempt, started, ok=True)
            return result
        raise StatementError(
            f"task {task.task_id} failed after {self.max_attempts} attempts"
        )

    def _record(self, worker: str, task: Task, attempt: int, started: float, ok: bool) -> None:
        ev = TraceEvent(worker, task.task_id, task.kind, attempt, started, time.monotonic(), ok)
        with self._mutex:
            self.trace.append(ev)

    def close(self) -> None:
        with self._mutex:
            pools, self._pools = dict(self._pools), {}
        for pool in pools.values():
            pool.shutdown(wait=True)
