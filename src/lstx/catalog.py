"""Transactional metadata catalog.

Four tables (manifests, writesets, checkpoints, tables) stored as in-memory
multi-version chains, durable through an append-only journal. Every committed
catalog transaction appends one length-prefixed, CRC-guarded record; restart
replays the journal. Commit, reserve, import and replay all put records into
the chains through one function, ``_apply``, and every visible-row scan goes
through one walk, ``_walk``.

Each row class (``ManifestsRow``, ``WriteSetsRow``, ``CheckpointsRow``,
``TablesRow``) is the one definition of its row: its ``key`` property is the
row's key and its JSON is its dataclass fields in declaration order. Every
catalog transaction the engine opens for itself runs in one scope,
``Catalog.transaction``, which aborts it unless the block committed it;
compaction, which writes data files, runs an engine ``Txn`` whose with-block
closes it the same way.

Concurrency model: optimistic snapshot isolation. Reads never block; a commit
takes the catalog's one lock, validates first-committer-wins on its write set
(plus read validation under SERIALIZABLE), assigns the next revision and, for
fresh manifest rows, the next gap-free sequence ids, appends and flushes the
journal record and publishes the new versions. The record is flushed to the
operating system, not fsynced (ROADMAP item 1). The lock's critical section
performs no storage I/O other than the journal append.
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property

from .datafile import Schema
from .errors import (
    DuplicateKeyError,
    EngineError,
    NotFoundError,
    SchemaError,
    SerializationFailureError,
    TxnClosedError,
    WWConflictError,
)

MANIFESTS = "manifests"
WRITESETS = "writesets"
CHECKPOINTS = "checkpoints"
TABLES = "tables"

WHOLE_TABLE = "*"

_U32 = struct.Struct("<I")


class Isolation(enum.Enum):
    SI = "si"
    RCSI = "rcsi"
    SERIALIZABLE = "serializable"

    @classmethod
    def parse(cls, text: "str | Isolation") -> "Isolation":
        if isinstance(text, Isolation):
            return text
        try:
            return cls(text.lower())
        except (AttributeError, ValueError):
            raise SchemaError(f"unknown isolation level: {text!r}") from None


def _row(cls):
    """Finish one of the four catalog row classes, each the one definition of
    its row: its ``key`` property is the row's key, and the journal and export
    JSON of a row is its dataclass fields in declaration order, decoded by
    ``RowType(**data)``. The encoder is compiled once per class from the
    field names, as @dataclass compiles __init__: commit encodes every mutated
    row under the catalog lock, where a loop over the names costs twice as
    much, and vars(row) would also carry a memoised TablesRow.schema."""
    items = ", ".join(f"{name!r}: row.{name}" for name in cls.__dataclass_fields__)
    cls.to_json = eval(f"lambda row: {{{items}}}")
    return cls


@_row
@dataclass(frozen=True)
class ManifestsRow:
    """One committed transaction manifest of one table.

    sequence_id is assigned under the commit lock: a monotonically increasing,
    gap-free integer over all committed rows of the whole catalog.
    """

    table_id: int
    manifest_path: str
    sequence_id: "int | None" = None
    transaction_id: int = 0
    commit_wallclock: "float | None" = None

    @property
    def key(self) -> tuple:
        return (self.table_id, self.manifest_path)


@_row
@dataclass(frozen=True)
class WriteSetsRow:
    """Conflict-detection key. file_name is a data file path or WHOLE_TABLE."""

    table_id: int
    file_name: str
    updated: int = 0

    @property
    def key(self) -> tuple:
        return (self.table_id, self.file_name)


@_row
@dataclass(frozen=True)
class CheckpointsRow:
    table_id: int
    upto_sequence: int
    path: str
    commit_wallclock: "float | None" = None

    @property
    def key(self) -> tuple:
        return (self.table_id, self.upto_sequence)


@_row
@dataclass(frozen=True)
class TablesRow:
    """One table definition; the engine hands it out as ``TableDef``."""

    table_id: int
    name: str
    columns: tuple  # ((name, type), ...)
    distribution_count: int = 1
    partition_key: "tuple | None" = None
    distribution_key: "tuple | None" = None

    @property
    def key(self) -> tuple:
        return (self.table_id,)

    def __post_init__(self):
        # JSON decodes tuples as lists; an empty key list means no key
        object.__setattr__(self, "columns", tuple(tuple(c) for c in self.columns))
        for name in ("partition_key", "distribution_key"):
            value = getattr(self, name)
            object.__setattr__(self, name, tuple(value) if value else None)

    @cached_property
    def schema(self) -> Schema:
        return Schema.from_json(self.columns)


_ROW_TYPES = {
    MANIFESTS: ManifestsRow,
    WRITESETS: WriteSetsRow,
    CHECKPOINTS: CheckpointsRow,
    TABLES: TablesRow,
}


def _matches(row, where: dict) -> bool:
    """Field-equality filter of read(where=...) and recorded where-reads."""
    return all(getattr(row, f) == v for f, v in where.items())


ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class CatalogTxn:
    txn_id: int
    isolation: Isolation
    begin_version: int
    status: str = ACTIVE
    # (table, key) -> ("put", row) | ("del", None) | ("ws", None); insertion ordered
    writes: dict = field(default_factory=dict)
    # queries re-evaluated at commit under SERIALIZABLE
    read_set: set = field(default_factory=set)


@dataclass(frozen=True)
class CommitResult:
    version: int
    wallclock: "float | None"
    sequences: dict  # (table_id, manifest_path) -> assigned sequence_id


class Catalog:
    """MVCC row store over the four catalog tables."""

    def __init__(self, journal_path: "str | None" = None):
        self._mutex = threading.Lock()
        # table -> key -> [(version, row-or-None), ...] append-only chains
        self._chains: dict[str, dict[tuple, list]] = {t: {} for t in _ROW_TYPES}
        self._version = 0
        self._next_seq = 1
        self._next_txn = 1
        self._last_wc = 0.0
        self._live: dict[int, int] = {}
        self._max_table_id = 0
        self._journal_path = journal_path
        self._journal = None
        if journal_path is not None:
            good = self._replay_journal(journal_path)
            if good is not None and good < os.path.getsize(journal_path):
                # drop the torn tail so appends extend the good prefix
                with open(journal_path, "r+b") as fh:
                    fh.truncate(good)
            self._journal = open(journal_path, "ab")

    # ------------------------------------------------------------------
    # journal

    def _replay_journal(self, path: str) -> "int | None":
        """Apply every intact record; returns the offset after the last one."""
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            raw = fh.read()
        off = 0
        while off + 8 <= len(raw):
            (length,) = _U32.unpack_from(raw, off)
            end = off + 4 + length + 4
            if end > len(raw):
                break  # partial tail record, ignore
            payload = raw[off + 4 : off + 4 + length]
            (crc,) = _U32.unpack_from(raw, off + 4 + length)
            if zlib.crc32(payload) != crc:
                break  # corrupt tail, stop replay here
            rec = json.loads(payload)
            mutations = [
                (table, tuple(key), None if data is None else _ROW_TYPES[table](**data))
                for table, key, data in rec["m"]
            ]
            self._apply(rec["v"], rec.get("txn", 0), rec.get("wc"), mutations, rec.get("seq"))
            off = end
        return off

    def _apply(self, version: int, txn_id: int, wc: "float | None", mutations,
               next_seq: "int | None" = None) -> None:
        """Publish one record's (table, key, row-or-None) mutations at version
        and move the counters past it. The only writer of the chains; callers
        hold the mutex or, during replay, own the catalog alone."""
        for table, key, row in mutations:
            self._chains[table].setdefault(key, []).append((version, row))
            if row is None:
                continue
            if table == MANIFESTS and row.sequence_id is not None:
                self._next_seq = max(self._next_seq, row.sequence_id + 1)
            elif table == TABLES:
                self._max_table_id = max(self._max_table_id, row.table_id)
        if next_seq is not None:
            # an import's counter: its manifest rows may not reach it any more
            self._next_seq = max(self._next_seq, next_seq)
        self._version = max(self._version, version)
        self._next_txn = max(self._next_txn, txn_id + 1)
        self._last_wc = max(self._last_wc, wc or 0.0)

    def _log(self, version: int, txn_id: int, wc: "float | None", mutations,
             next_seq: "int | None" = None) -> None:
        """Append and flush one journal record, then apply it. Keys keep the
        order v, txn, wc, m, seq; wc and seq only when given. A catalog opened
        on a journal refuses once closed, so nothing is acknowledged that a
        reopen would not see."""
        if self._journal_path is not None:
            if self._journal is None:
                raise EngineError(f"catalog is closed: {self._journal_path}")
            rec = {"v": version, "txn": txn_id}
            if wc is not None:
                rec["wc"] = wc
            rec["m"] = [
                [t, list(k), None if r is None else r.to_json()] for t, k, r in mutations
            ]
            if next_seq is not None:
                rec["seq"] = next_seq
            payload = json.dumps(rec, separators=(",", ":")).encode("utf-8")
            self._journal.write(_U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload)))
            self._journal.flush()
        self._apply(version, txn_id, wc, mutations, next_seq)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # ------------------------------------------------------------------
    # transactions

    def begin(self, isolation: "Isolation | str" = Isolation.SI) -> CatalogTxn:
        isolation = Isolation.parse(isolation)
        with self._mutex:
            txn = CatalogTxn(self._next_txn, isolation, self._version)
            self._next_txn += 1
            self._live[txn.txn_id] = txn.begin_version
            return txn

    def reserve(self, txn: CatalogTxn) -> None:
        """Make a transaction id durable before the txn commits.

        A plain begin hands out ids from an in-memory counter that replay
        restores only from committed records, so an id held by a transaction
        that outlives this process (a CLI session) would be handed out again
        by the next process. Journaling an empty-mutation record pins the id:
        replay bumps next_txn past it without changing any table state.
        """
        with self._mutex:
            self._check_active(txn)
            self._log(self._version, txn.txn_id, None, [])

    def adopt(self, txn_id: int, begin_version: int, isolation, read_set=()) -> CatalogTxn:
        """Re-attach a transaction persisted outside this process (CLI sessions)."""
        isolation = Isolation.parse(isolation)
        with self._mutex:
            if begin_version > self._version:
                raise ValueError(f"begin version {begin_version} is in the future")
            self._next_txn = max(self._next_txn, txn_id + 1)
            txn = CatalogTxn(txn_id, isolation, begin_version)
            txn.read_set = set(read_set)
            self._live[txn.txn_id] = begin_version
            return txn

    def _check_active(self, txn: CatalogTxn) -> None:
        if txn.status != ACTIVE:
            raise TxnClosedError(f"catalog txn {txn.txn_id} is {txn.status}")

    def _read_version(self, txn: CatalogTxn) -> int:
        # read takes the catalog mutex around this call, so it must not
        # re-acquire it
        if txn.isolation is Isolation.RCSI:
            return self._version
        return txn.begin_version

    @staticmethod
    def _visible(chain: list, version: int):
        """Last (version, row) entry at or below version, else None. It is
        the chain's own tuple: _walk keeps one per visible row, and a fresh
        tuple each would add thousands of allocations to every scan."""
        best = None
        for entry in chain:
            if entry[0] > version:
                break
            best = entry
        return best

    def _lookup(self, table: str, key: tuple, version: int):
        """(version, row) of the key's row visible at version, else None
        (absent or deleted). Callers hold the mutex."""
        chain = self._chains[table].get(key)
        entry = self._visible(chain, version) if chain else None
        return entry if entry and entry[1] is not None else None

    @classmethod
    def _walk(cls, items, version: int, where: "dict | None" = None) -> dict:
        """key -> (version, row) over (key, chain) items, for every row
        visible at version that matches where."""
        out = {}
        for key, chain in items:
            entry = cls._visible(chain, version)
            if entry and entry[1] is not None and (not where or _matches(entry[1], where)):
                out[key] = entry
        return out

    def _writeset_row(self, key: tuple, version: int) -> WriteSetsRow:
        """A writeset upsert's row: the counter visible at version, plus one.
        Callers hold the mutex."""
        entry = self._lookup(WRITESETS, key, version)
        return WriteSetsRow(key[0], key[1], (entry[1].updated if entry else 0) + 1)

    # ------------------------------------------------------------------
    # reads

    def get(self, txn: CatalogTxn, table: str, key: tuple, *, record: bool = True):
        """Point read: own pending write, else the visible committed version.

        record=False keeps the read out of SERIALIZABLE validation; engine
        internals use it for bookkeeping reads (checkpoint lookups, historical
        scans) whose answers do not constrain serialization order.
        """
        self._check_active(txn)
        key = tuple(key)
        if record and txn.isolation is Isolation.SERIALIZABLE:
            txn.read_set.add(("key", table, key))
        pending = txn.writes.get((table, key))
        if pending is not None:
            return self._pending_row(txn, table, key, pending)
        return self._committed_row(table, key, self._read_version(txn))

    def read(self, txn: CatalogTxn, table: str, where: "dict | None" = None,
             *, record: bool = True) -> list:
        """Scan visible rows, optionally filtered by field equality, plus the
        txn's own pending writes. Sorted by key."""
        self._check_active(txn)
        if record and txn.isolation is Isolation.SERIALIZABLE:
            token = tuple(sorted(where.items())) if where else None
            txn.read_set.add(("where", table, token))
        with self._mutex:
            version = self._read_version(txn)
            items = list(self._chains[table].items())
        out = self._walk(items, version, where)
        for (wtable, key), pending in txn.writes.items():
            if wtable != table:
                continue
            row = self._pending_row(txn, table, key, pending)
            if row is None or (where and not _matches(row, where)):
                out.pop(key, None)
            else:
                out[key] = (None, row)
        return [out[k][1] for k in sorted(out)]

    def _pending_row(self, txn: CatalogTxn, table: str, key: tuple, pending):
        op, row = pending
        if op == "put":
            return row
        if op == "del":
            return None
        # pending writesets upsert: surface the post-commit counter value
        with self._mutex:
            return self._writeset_row(key, txn.begin_version)

    def _committed_row(self, table: str, key: tuple, version: int):
        with self._mutex:
            entry = self._lookup(table, key, version)
        return entry[1] if entry else None

    # ------------------------------------------------------------------
    # writes (buffered until commit)

    def insert(self, txn: CatalogTxn, table: str, row) -> None:
        """Buffer an insert. The key must not be visible to this txn; a
        concurrent committed insert of the same key surfaces as a WW conflict
        at commit time."""
        self._check_active(txn)
        key = row.key
        pending = txn.writes.get((table, key))
        if pending is not None and pending[0] != "del":
            raise DuplicateKeyError(f"{table}{key} already written in this txn")
        if pending is None and self._committed_row(table, key, self._read_version(txn)) is not None:
            raise DuplicateKeyError(f"{table}{key} already exists")
        txn.writes[(table, key)] = ("put", row)

    def delete(self, txn: CatalogTxn, table: str, key: tuple) -> None:
        self._check_active(txn)
        key = tuple(key)
        pending = txn.writes.get((table, key))
        if pending is None:
            if self._committed_row(table, key, self._read_version(txn)) is None:
                raise NotFoundError(f"{table}{key} not visible")
        txn.writes[(table, key)] = ("del", None)

    def upsert_writeset(self, txn: CatalogTxn, table_id: int, file_name: str) -> None:
        """Idempotent within a txn: the committed counter moves by exactly one
        per committing transaction, however many times this is called."""
        self._check_active(txn)
        txn.writes[(WRITESETS, (table_id, file_name))] = ("ws", None)

    # ------------------------------------------------------------------
    # commit / abort

    def _ww_conflicts(self, txn: CatalogTxn) -> "str | None":
        for (table, key), _ in txn.writes.items():
            if table == WRITESETS:
                # WHOLE_TABLE subsumes every file key of the same table
                tid, fname = key
                for key2, chain in self._chains[WRITESETS].items():
                    if key2[0] != tid:
                        continue
                    if fname != WHOLE_TABLE and key2[1] != WHOLE_TABLE and key2[1] != fname:
                        continue
                    if chain and chain[-1][0] > txn.begin_version:
                        return f"{table}{key2}"
            else:
                chain = self._chains[table].get(key)
                if chain and chain[-1][0] > txn.begin_version:
                    return f"{table}{key}"
        return None

    def _eval_query(self, query, version: int) -> tuple:
        """Visible (key, version) pairs matched by a recorded read."""
        kind, table, token = query
        if kind == "key":
            entry = self._lookup(table, token, version)
            return ((token, entry[0]),) if entry else ()
        visible = self._walk(self._chains[table].items(), version, dict(token or ()))
        return tuple(sorted((key, v) for key, (v, _) in visible.items()))

    def commit(self, txn: CatalogTxn) -> CommitResult:
        """Validate and publish. Raises WWConflictError or
        SerializationFailureError after rolling the txn back; on success the
        journal record is appended and flushed (not fsynced, see ROADMAP
        item 1) before the new revision becomes visible."""
        self._check_active(txn)
        with self._mutex:
            if not txn.writes:
                self._rollback(txn, COMMITTED)
                return CommitResult(self._version, None, {})
            clash = self._ww_conflicts(txn)
            if clash is None and txn.isolation is Isolation.SERIALIZABLE:
                for query in txn.read_set:
                    then = self._eval_query(query, txn.begin_version)
                    now_ = self._eval_query(query, self._version)
                    if then != now_:
                        self._rollback(txn)
                        raise SerializationFailureError(
                            f"read set changed since begin: {query[1]}"
                        )
            if clash is not None:
                self._rollback(txn)
                raise WWConflictError(f"write-write conflict on {clash}")
            version = self._version + 1
            wc = self._next_wallclock()
            seq = self._next_seq
            mutations = []
            sequences = {}
            for (table, key), (op, row) in txn.writes.items():
                if op == "del":
                    row = None
                elif op == "ws":
                    row = self._writeset_row(key, txn.begin_version)
                elif table == MANIFESTS and row.sequence_id is None:
                    row = replace(row, sequence_id=seq, commit_wallclock=wc)
                    sequences[key] = seq
                    seq += 1
                elif table == CHECKPOINTS and row.commit_wallclock is None:
                    row = replace(row, commit_wallclock=wc)
                mutations.append((table, key, row))
            self._log(version, txn.txn_id, wc, mutations)
            self._rollback(txn, COMMITTED)
            return CommitResult(version, wc, sequences)

    def _rollback(self, txn: CatalogTxn, status: str = ABORTED) -> None:
        self._live.pop(txn.txn_id, None)
        txn.status = status

    def abort(self, txn: CatalogTxn) -> None:
        if txn.status == ABORTED:
            return
        self._check_active(txn)
        with self._mutex:
            self._rollback(txn)

    @contextlib.contextmanager
    def transaction(self):
        """Scope of every catalog transaction the engine opens for itself:
        begins a snapshot-isolation one and, however the block ends, aborts it
        if it is still active, so none stays live and holds back
        min_live_begin."""
        txn = self.begin(Isolation.SI)
        try:
            yield txn
        finally:
            if txn.status == ACTIVE:
                self.abort(txn)

    def _next_wallclock(self) -> float:
        # strictly increasing so timestamp resolution is never ambiguous
        wc = max(time.time(), self._last_wc + 1e-6)
        self._last_wc = wc
        return wc

    # ------------------------------------------------------------------
    # introspection and snapshots

    @property
    def version(self) -> int:
        with self._mutex:
            return self._version

    @property
    def max_table_id(self) -> int:
        with self._mutex:
            return self._max_table_id

    def min_live_begin(self) -> "int | None":
        with self._mutex:
            return min(self._live.values(), default=None)

    def export_snapshot(self) -> bytes:
        """Latest committed rows of every table plus counters, as JSON bytes."""
        with self._mutex:
            version = self._version
            rows = {}
            for table, chains in self._chains.items():
                visible = self._walk(chains.items(), version)
                rows[table] = [visible[k][1].to_json() for k in sorted(visible)]
            payload = {
                "version": version,
                "next_seq": self._next_seq,
                "next_txn": self._next_txn,
                "rows": rows,
            }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def import_snapshot(self, payload: bytes) -> None:
        """Load an exported snapshot into this (empty) catalog: read results
        afterwards match the source catalog exactly. The record carries the
        snapshot's next_seq, which its manifest rows may no longer reach once
        pruning or a dropped table removed the newest ones."""
        with self._mutex:
            if self._version != 0 or any(self._chains[t] for t in self._chains):
                raise DuplicateKeyError("import requires an empty catalog")
            data = json.loads(payload)
            mutations = []
            for table, rows in data["rows"].items():
                for row_json in rows:
                    row = _ROW_TYPES[table](**row_json)
                    mutations.append((table, row.key, row))
            # txn is next_txn - 1, so replay restores next_txn exactly
            self._log(data["version"], data["next_txn"] - 1, self._next_wallclock(),
                      mutations, data["next_seq"])
