"""Transactional metadata catalog.

Four tables (manifests, writesets, checkpoints, tables) stored as in-memory
multi-version chains, durable through an append-only journal. Every committed
catalog transaction appends one length-prefixed, CRC-guarded record; restart
replays the journal.

Concurrency model: optimistic snapshot isolation. Reads never block; a commit
takes one global lock, validates first-committer-wins on its write set (plus
read validation under SERIALIZABLE), assigns the next revision and, for fresh
manifest rows, the next gap-free sequence ids, appends the journal record and
publishes the new versions. The lock's critical section performs no storage
I/O other than the journal append.
"""

from __future__ import annotations

import enum
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field, replace

from .errors import (
    DuplicateKeyError,
    NotFoundError,
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
        except ValueError:
            raise ValueError(f"unknown isolation level: {text}") from None


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


@dataclass(frozen=True)
class WriteSetsRow:
    """Conflict-detection key. file_name is a data file path or WHOLE_TABLE."""

    table_id: int
    file_name: str
    updated: int = 0


@dataclass(frozen=True)
class CheckpointsRow:
    table_id: int
    upto_sequence: int
    path: str
    commit_wallclock: "float | None" = None


@dataclass(frozen=True)
class TablesRow:
    table_id: int
    name: str
    columns: tuple  # ((name, type), ...)
    distribution_count: int = 1
    partition_key: "tuple | None" = None
    distribution_key: "tuple | None" = None


def _key_of(table: str, row) -> tuple:
    if table == MANIFESTS:
        return (row.table_id, row.manifest_path)
    if table == WRITESETS:
        return (row.table_id, row.file_name)
    if table == CHECKPOINTS:
        return (row.table_id, row.upto_sequence)
    if table == TABLES:
        return (row.table_id,)
    raise KeyError(table)


_ROW_TYPES = {
    MANIFESTS: ManifestsRow,
    WRITESETS: WriteSetsRow,
    CHECKPOINTS: CheckpointsRow,
    TABLES: TablesRow,
}


def _row_to_json(table: str, row) -> dict:
    if table == MANIFESTS:
        return {
            "table_id": row.table_id,
            "manifest_path": row.manifest_path,
            "sequence_id": row.sequence_id,
            "transaction_id": row.transaction_id,
            "commit_wallclock": row.commit_wallclock,
        }
    if table == WRITESETS:
        return {"table_id": row.table_id, "file_name": row.file_name, "updated": row.updated}
    if table == CHECKPOINTS:
        return {
            "table_id": row.table_id,
            "upto_sequence": row.upto_sequence,
            "path": row.path,
            "commit_wallclock": row.commit_wallclock,
        }
    if table == TABLES:
        return {
            "table_id": row.table_id,
            "name": row.name,
            "columns": [list(c) for c in row.columns],
            "distribution_count": row.distribution_count,
            "partition_key": list(row.partition_key) if row.partition_key else None,
            "distribution_key": list(row.distribution_key) if row.distribution_key else None,
        }
    raise KeyError(table)


def _row_from_json(table: str, data: dict):
    if table == TABLES:
        return TablesRow(
            table_id=data["table_id"],
            name=data["name"],
            columns=tuple(tuple(c) for c in data["columns"]),
            distribution_count=data["distribution_count"],
            partition_key=tuple(data["partition_key"]) if data["partition_key"] else None,
            distribution_key=tuple(data["distribution_key"]) if data["distribution_key"] else None,
        )
    return _ROW_TYPES[table](**data)


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
        self._commit_lock = threading.Lock()
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
            self._apply_record(json.loads(payload))
            off = end
        return off

    def _apply_record(self, rec: dict) -> None:
        version = rec["v"]
        for table, key, row_json in rec["m"]:
            key = tuple(key)
            row = _row_from_json(table, row_json) if row_json is not None else None
            self._chains[table].setdefault(key, []).append((version, row))
            if table == MANIFESTS and row is not None and row.sequence_id is not None:
                self._next_seq = max(self._next_seq, row.sequence_id + 1)
            if table == TABLES and row is not None:
                self._max_table_id = max(self._max_table_id, row.table_id)
        self._version = max(self._version, version)
        self._next_txn = max(self._next_txn, rec.get("txn", 0) + 1)
        self._last_wc = max(self._last_wc, rec.get("wc") or 0.0)

    def _append_journal(self, rec: dict) -> None:
        if self._journal is None:
            return
        payload = json.dumps(rec, separators=(",", ":")).encode("utf-8")
        self._journal.write(_U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload)))
        self._journal.flush()

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
            self._append_journal({"v": self._version, "txn": txn.txn_id, "m": []})

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
        # called with the catalog mutex held (get/read take it around the
        # chain lookup), so it must not re-acquire it
        if txn.isolation is Isolation.RCSI:
            return self._version
        return txn.begin_version

    @staticmethod
    def _visible(chain: list, version: int):
        """Last (version, row) entry at or below version, else None."""
        best = None
        for v, row in chain:
            if v > version:
                break
            best = (v, row)
        return best

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
        with self._mutex:
            chain = self._chains[table].get(key)
            entry = self._visible(chain, self._read_version(txn)) if chain else None
        return entry[1] if entry else None

    def read(self, txn: CatalogTxn, table: str, where: "dict | None" = None,
             *, record: bool = True) -> list:
        """Scan visible rows, optionally filtered by field equality, plus the
        txn's own pending writes. Sorted by key."""
        self._check_active(txn)
        if record and txn.isolation is Isolation.SERIALIZABLE:
            token = tuple(sorted(where.items())) if where else None
            txn.read_set.add(("where", table, token))
        out = {}
        with self._mutex:
            version = self._read_version(txn)
            items = list(self._chains[table].items())
        for key, chain in items:
            entry = self._visible(chain, version)
            if entry and entry[1] is not None:
                out[key] = entry[1]
        for (wtable, key), pending in txn.writes.items():
            if wtable != table:
                continue
            row = self._pending_row(txn, table, key, pending)
            if row is None:
                out.pop(key, None)
            else:
                out[key] = row
        rows = [out[k] for k in sorted(out)]
        if where:
            rows = [r for r in rows if all(getattr(r, f) == v for f, v in where.items())]
        return rows

    def _pending_row(self, txn: CatalogTxn, table: str, key: tuple, pending):
        op, row = pending
        if op == "put":
            return row
        if op == "del":
            return None
        # pending writesets upsert: surface the post-commit counter value
        committed = self._committed_row(table, key, txn.begin_version)
        base = committed.updated if committed else 0
        return WriteSetsRow(key[0], key[1], base + 1)

    def _committed_row(self, table: str, key: tuple, version: int):
        with self._mutex:
            chain = self._chains[table].get(key)
        entry = self._visible(chain, version) if chain else None
        return entry[1] if entry else None

    # ------------------------------------------------------------------
    # writes (buffered until commit)

    def insert(self, txn: CatalogTxn, table: str, row) -> None:
        """Buffer an insert. The key must not be visible to this txn; a
        concurrent committed insert of the same key surfaces as a WW conflict
        at commit time."""
        self._check_active(txn)
        key = _key_of(table, row)
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
        hits = []
        if kind == "key":
            chain = self._chains[table].get(token)
            entry = self._visible(chain, version) if chain else None
            if entry and entry[1] is not None:
                hits.append((token, entry[0]))
            return tuple(hits)
        where = dict(token) if token else {}
        for key, chain in self._chains[table].items():
            entry = self._visible(chain, version)
            if not entry or entry[1] is None:
                continue
            if all(getattr(entry[1], f) == v for f, v in where.items()):
                hits.append((key, entry[0]))
        return tuple(sorted(hits))

    def commit(self, txn: CatalogTxn) -> CommitResult:
        """Validate and publish. Raises WWConflictError or
        SerializationFailureError after rolling the txn back; on success the
        journal record is on disk before the new revision becomes visible."""
        self._check_active(txn)
        if not txn.writes:
            with self._mutex:
                self._live.pop(txn.txn_id, None)
                txn.status = COMMITTED
                return CommitResult(self._version, None, {})
        with self._commit_lock:
            with self._mutex:
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
                mutations = []
                sequences = {}
                for (table, key), (op, row) in txn.writes.items():
                    if op == "del":
                        final = None
                    elif op == "ws":
                        committed = self._chains[WRITESETS].get(key)
                        entry = self._visible(committed, txn.begin_version) if committed else None
                        base = entry[1].updated if entry and entry[1] else 0
                        final = WriteSetsRow(key[0], key[1], base + 1)
                    else:
                        final = row
                        if table == MANIFESTS and final.sequence_id is None:
                            final = replace(
                                final, sequence_id=self._next_seq, commit_wallclock=wc
                            )
                            self._next_seq += 1
                            sequences[key] = final.sequence_id
                        elif table == CHECKPOINTS and final.commit_wallclock is None:
                            final = replace(final, commit_wallclock=wc)
                        if table == TABLES:
                            self._max_table_id = max(self._max_table_id, final.table_id)
                    mutations.append((table, key, final))
                self._append_journal(
                    {
                        "v": version,
                        "txn": txn.txn_id,
                        "wc": wc,
                        "m": [
                            [t, list(k), _row_to_json(t, r) if r is not None else None]
                            for t, k, r in mutations
                        ],
                    }
                )
                for table, key, final in mutations:
                    self._chains[table].setdefault(key, []).append((version, final))
                self._version = version
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

    def min_live_begin(self, exclude: "int | None" = None) -> "int | None":
        with self._mutex:
            begins = [v for t, v in self._live.items() if t != exclude]
        return min(begins) if begins else None

    def export_snapshot(self) -> bytes:
        """Latest committed rows of every table plus counters, as JSON bytes."""
        with self._mutex:
            version = self._version
            rows = {}
            for table, chains in self._chains.items():
                keep = []
                for key in sorted(chains):
                    entry = self._visible(chains[key], version)
                    if entry and entry[1] is not None:
                        keep.append(_row_to_json(table, entry[1]))
                rows[table] = keep
            payload = {
                "version": version,
                "next_seq": self._next_seq,
                "next_txn": self._next_txn,
                "rows": rows,
            }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def import_snapshot(self, payload: bytes) -> None:
        """Load an exported snapshot into this (empty) catalog: read results
        afterwards match the source catalog exactly."""
        with self._mutex:
            if self._version != 0 or any(self._chains[t] for t in self._chains):
                raise DuplicateKeyError("import requires an empty catalog")
            data = json.loads(payload)
            version = data["version"]
            mutations = []
            for table, rows in data["rows"].items():
                for row_json in rows:
                    row = _row_from_json(table, row_json)
                    mutations.append((table, _key_of(table, row), row))
            rec = {
                "v": version,
                "txn": data["next_txn"] - 1,  # replay restores next_txn exactly
                "wc": self._next_wallclock(),
                "m": [[t, list(k), _row_to_json(t, r)] for t, k, r in mutations],
            }
            self._append_journal(rec)
            for table, key, row in mutations:
                self._chains[table].setdefault(key, []).append((version, row))
                if table == TABLES:
                    self._max_table_id = max(self._max_table_id, row.table_id)
            self._version = version
            self._next_seq = data["next_seq"]
            self._next_txn = data["next_txn"]
