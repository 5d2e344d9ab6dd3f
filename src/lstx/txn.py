"""Multi-statement transactions over log-structured tables.

A transaction owns, per touched table, a private manifest object on storage.
Statements fan out into pool tasks that write immutable data / delete-vector
files and stage manifest blocks. On a table's first statement the coordinator
commits the task block list, which already is the manifest unless reconcile
cancels an action; later statements reconcile into the transaction's manifest
and commit it as one fresh block. Reads see the committed snapshot plus the
transaction's own manifest (overlay). Commit inserts the manifest rows and
conflict keys into the catalog, which enforces first-committer-wins under one
global lock. Data and delete-vector file names embed the writing transaction,
statement and a content digest, so a retried task attempt regenerates the
same bytes under the same name and an already-exists put is success.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from . import manifest as mf
from .catalog import (
    ABORTED,
    ACTIVE,
    CHECKPOINTS,
    MANIFESTS,
    TABLES,
    WHOLE_TABLE,
    WRITESETS,
    Catalog,
    Isolation,
    ManifestsRow,
    TablesRow,
)
from .datafile import (
    DataFileMeta,
    DeleteVector,
    Schema,
    content_digest,
    decode_data_file,
    decode_delete_vector,
    encode_data_file,
    encode_delete_vector,
    file_meta_for,
)
from .dcp import DcpSimulator, FaultPolicy, Task, TaskResult, distribute
from .errors import (
    AlreadyExistsError,
    CorruptFileError,
    DuplicateKeyError,
    EngineError,
    SchemaError,
    TxnClosedError,
    UnknownTableError,
)
from .object_store import BlockId, LocalObjectStore

TABLE = "table"
FILE = "file"
_GRANULARITIES = (TABLE, FILE)

_COMPARE_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_VALUE_TYPES = {"int64": int, "float64": float, "utf8": str, "bool": bool}


# ---------------------------------------------------------------------------
# predicates: conjunctions of (column, op, constant)

class Condition(NamedTuple):
    """One checked `column op value` term of a predicate, compiled once per
    statement. A row passes when `test(row[pos], value)`; a file can hold
    such a row only when its `(column, min, max)` stat passes every
    `stat_test(stat[index], argument)` of `keep`."""

    pos: int  # the column's schema position
    test: Callable  # operator.eq, ne, lt, le, gt or ge
    value: object
    column: str
    keep: tuple  # (index, stat_test, argument) triples


def _stat_tests(op: str, value) -> tuple:
    """The min/max checks of `column op value`: `=` needs min <= value <=
    max, `!=` a stat other than min == max == value, `<` and `<=` a small
    enough min, `>` and `>=` a large enough max."""
    if op == "=":
        return ((1, operator.le, value), (2, operator.ge, value))
    if op == "!=":
        return ((slice(1, 3), operator.ne, (value, value)),)
    return ((1 if op[0] == "<" else 2, _COMPARE_OPS[op], value),)


def normalize_predicate(schema: Schema, predicate) -> tuple:
    """Check a predicate, a sequence of (column, op, value) triples, against
    the schema and compile each into a Condition."""
    try:
        terms = tuple(predicate or ())
    except TypeError:
        raise SchemaError(f"predicate is not a sequence of triples: {predicate!r}") from None
    conds = []
    for term in terms:
        if not isinstance(term, (tuple, list)) or len(term) != 3:
            raise SchemaError(f"predicate entry is not (column, op, value): {term!r}")
        col, op, value = term
        pos = schema.index_of(col)
        if not isinstance(op, str) or op not in _COMPARE_OPS:
            raise SchemaError(f"unknown predicate operator: {op}")
        typ = schema.columns[pos][1]
        if typ == "float64" and type(value) is int:
            value = float(value)
        if type(value) is not _VALUE_TYPES[typ]:
            raise SchemaError(f"predicate value {value!r} does not match {typ} column {col}")
        conds.append(Condition(pos, _COMPARE_OPS[op], value, col, _stat_tests(op, value)))
    return tuple(conds)


def _prune(live, conds) -> list:
    """Min/max pruning: the non-empty live files, in order, whose stats admit
    a row satisfying every condition. One pass per stat test reads each
    file's stat at the condition's schema position, where encode_data_file
    puts it; a stat missing there or naming another column falls back to
    DataFileMeta.stat_for."""
    files = live
    for pos, _, _, col, keep in conds:
        for index, test, arg in keep:
            files = [lf for lf in files
                     if (meta := lf.meta).row_count
                     and (test(stat[index], arg)
                          if len(stats := meta.stats) > pos and (stat := stats[pos])[0] == col
                          else _stat_admits(meta, col, index, test, arg))]
    return files if conds else [lf for lf in live if lf.meta.row_count]


def _stat_admits(meta: DataFileMeta, col: str, index, test, arg) -> bool:
    """_prune's test for a file whose stats are not laid out in schema order:
    found by name, and passed when there is none."""
    stat = meta.stat_for(col)
    return stat is None or test((col, *stat)[index], arg)


def _aggregate_column(schema: Schema, aggregate) -> "int | None":
    """Check a scan aggregate: "count" or ("count",) gives None, ("sum",
    column) over an int64 or float64 column gives the column's index."""
    parts = tuple(aggregate) if isinstance(aggregate, (tuple, list)) else (aggregate,)
    if parts == ("count",):
        return None
    if len(parts) == 2 and parts[0] == "sum":
        if schema.type_of(parts[1]) not in ("int64", "float64"):
            raise SchemaError(f"sum over non-numeric column {parts[1]}")
        return schema.index_of(parts[1])
    raise SchemaError(f"unknown aggregate: {aggregate!r}")


# ---------------------------------------------------------------------------

# a table's definition is its catalog row
TableDef = TablesRow


@dataclass(frozen=True)
class CommitOutcome:
    version: int
    wallclock: "float | None"
    sequences: dict  # table_id -> assigned sequence
    read_only: bool = False


@dataclass
class EngineConfig:
    min_rows_per_file: int = 1000
    small_file_trigger: int = 8
    delete_fraction_trigger: float = 0.2
    checkpoint_trigger: int = 10
    retention_seconds: float = 7 * 86400.0
    compaction_target_rows: int = 100_000
    write_workers: int = 1
    read_workers: int = 1
    auto_maintenance: bool = False


class Txn:
    """Handle for one engine transaction. Thin wrapper: all behavior lives on
    the engine; this object carries the snapshot, the per-table manifests and
    the statement counter."""

    def __init__(self, engine: "Engine", ctx, granularity: str):
        self.engine = engine
        self.ctx = ctx
        self.granularity = granularity
        self.snapshots: dict[int, mf.TableState] = {}
        self.manifests: dict[int, tuple] = {}
        self.manifest_paths: dict[int, str] = {}
        self.stmt = 0

    @property
    def status(self) -> str:
        return self.ctx.status

    @property
    def txn_id(self) -> int:
        return self.ctx.txn_id

    @property
    def isolation(self) -> Isolation:
        return self.ctx.isolation

    @property
    def guid(self) -> str:
        # unique per txn, carries the begin revision so storage-only scans
        # (garbage collection) can age uncommitted manifests
        return f"x{self.ctx.txn_id}r{self.ctx.begin_version}"

    def next_stmt(self) -> int:
        self.stmt += 1
        return self.stmt

    # conveniences
    def insert(self, table, rows) -> int:
        return self.engine.insert(self, table, rows)

    def delete(self, table, predicate) -> int:
        return self.engine.delete(self, table, predicate)

    def update(self, table, set_clause, predicate) -> int:
        return self.engine.update(self, table, set_clause, predicate)

    def scan(self, table, columns=None, predicate=None, aggregate=None, as_of=None):
        return self.engine.scan(self, table, columns, predicate, aggregate, as_of)

    def commit(self) -> CommitOutcome:
        return self.engine.commit(self)

    def abort(self) -> None:
        self.engine.abort(self)

    def __enter__(self) -> "Txn":
        return self

    def __exit__(self, *exc) -> None:
        # a with-block ends the txn: unless the block committed it, it aborts
        if self.status == ACTIVE:
            self.engine.abort(self)


class Engine:
    """Facade wiring the object store, catalog, snapshot manager, compute pool
    and maintenance together over one storage root."""

    workspace = "main"  # first segment of every object path
    # bound on the decoded-object cache, in encoded bytes read from storage
    _CACHE_BYTES = 32 << 20

    def __init__(self, root: str, *, config: "EngineConfig | None" = None,
                 fault_policy: "FaultPolicy | None" = None):
        import os

        from .maintenance import Maintenance, Sto

        self.root = root
        self.config = config or EngineConfig()
        os.makedirs(root, exist_ok=True)
        self.store = LocalObjectStore(os.path.join(root, "objects"))
        self.catalog = Catalog(os.path.join(root, "catalog.journal"))
        self._cache_mutex = threading.Lock()
        # path -> (decoded value, encoded size), least recently used first
        self._cache: OrderedDict[str, tuple] = OrderedDict()
        self._cached_bytes = 0
        self.snapshots = mf.SnapshotManager(self.catalog, self._cached)
        self.dcp = DcpSimulator(
            write_workers=self.config.write_workers,
            read_workers=self.config.read_workers,
            fault_policy=fault_policy,
        )
        self.maintenance = Maintenance(self)
        self.sto = Sto(self) if self.config.auto_maintenance else None

    def close(self) -> None:
        if self.sto is not None:
            self.sto.stop()
        self.dcp.close()
        self.catalog.close()
        # the engine and its Maintenance reference each other, so without
        # this the caches live on until the cyclic collector runs
        with self._cache_mutex:
            self._cache.clear()
            self._cached_bytes = 0
        self.snapshots.invalidate()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # paths

    def table_dir(self, table_id: int) -> str:
        return f"{self.workspace}/t{table_id}"

    def manifest_path(self, txn: Txn, table_id: int) -> str:
        return f"{self.table_dir(table_id)}/manifests/{txn.guid}.m"

    # ------------------------------------------------------------------
    # DDL (autocommitted catalog transactions)

    def create_table(self, name: str, columns, *, distribution_count: int = 1,
                     partition_key=None, distribution_key=None) -> TableDef:
        schema = columns if isinstance(columns, Schema) else Schema.of(*columns)
        for col in tuple(partition_key or ()) + tuple(distribution_key or ()):
            schema.type_of(col)  # raises on unknown column
        if type(distribution_count) is not int or distribution_count < 1:
            raise SchemaError(
                f"distribution_count must be an integer >= 1, got {distribution_count!r}")
        with self.catalog.transaction() as ctx:
            if self.catalog.read(ctx, TABLES, where={"name": name}):
                raise DuplicateKeyError(f"table {name} already exists")
            tdef = TableDef(self.catalog.max_table_id + 1, name, schema.columns,
                            distribution_count, partition_key, distribution_key)
            self.catalog.insert(ctx, TABLES, tdef)
            self.catalog.commit(ctx)
        return tdef

    def drop_table(self, table) -> None:
        """Delete the table row and its manifest / conflict-key / checkpoint
        rows; the table's files become orphans and age out through garbage
        collection."""
        with self.catalog.transaction() as ctx:
            tdef = self._resolve(ctx, table)
            self.catalog.delete(ctx, TABLES, tdef.key)
            for name in (MANIFESTS, WRITESETS, CHECKPOINTS):
                for row in self.catalog.read(ctx, name, where={"table_id": tdef.table_id}):
                    self.catalog.delete(ctx, name, row.key)
            self.catalog.commit(ctx)

    def clone_table(self, source, dest_name: str, as_of=None) -> TableDef:
        """Zero-copy clone: re-insert the source's visible manifest rows under
        a fresh table id. No data or manifest object is copied; both tables
        keep referencing the same immutable files and diverge independently."""
        with self.catalog.transaction() as ctx:
            src = self._resolve(ctx, source)
            if self.catalog.read(ctx, TABLES, where={"name": dest_name}):
                raise DuplicateKeyError(f"table {dest_name} already exists")
            upto = None
            if as_of is not None:
                upto = self.snapshots.resolve_point(
                    ctx, src.table_id, as_of, self.config.retention_seconds
                )
            rows = self.snapshots.visible_manifests(ctx, src.table_id, upto)
            dest = replace(src, table_id=self.catalog.max_table_id + 1, name=dest_name)
            self.catalog.insert(ctx, TABLES, dest)
            for row in rows:
                self.catalog.insert(
                    ctx,
                    MANIFESTS,
                    ManifestsRow(
                        table_id=dest.table_id,
                        manifest_path=row.manifest_path,
                        transaction_id=row.transaction_id,
                    ),
                )
            self.catalog.commit(ctx)
        return dest

    def table(self, name_or_id) -> TableDef:
        with self.catalog.transaction() as ctx:
            return self._resolve(ctx, name_or_id)

    def list_tables(self) -> list:
        with self.catalog.transaction() as ctx:
            return self.catalog.read(ctx, TABLES)

    def _resolve(self, ctx, table) -> TableDef:
        if isinstance(table, TableDef):
            # re-read so the txn's snapshot governs visibility
            table = table.table_id
        if isinstance(table, int):
            row = self.catalog.get(ctx, TABLES, (table,))
            if row is None:
                raise UnknownTableError(f"no table with id {table}")
            return row
        rows = self.catalog.read(ctx, TABLES, where={"name": table})
        if not rows:
            raise UnknownTableError(f"no table named {table}")
        return rows[0]

    # ------------------------------------------------------------------
    # transactions

    def begin_transaction(self, isolation="si", granularity: str = TABLE,
                          durable: bool = False) -> Txn:
        """Start a transaction. Pass durable=True when the transaction will be
        persisted and resumed by a later process: it pins the txn id in the
        catalog journal so no other process can be handed the same id (ids
        name the txn's manifest objects, so a collision would let two live
        transactions overwrite each other's pending state)."""
        if granularity not in _GRANULARITIES:
            raise SchemaError(f"granularity must be one of {_GRANULARITIES}, got {granularity!r}")
        ctx = self.catalog.begin(Isolation.parse(isolation))
        if durable:
            self.catalog.reserve(ctx)
        return Txn(self, ctx, granularity)

    def _check_active(self, txn: Txn) -> None:
        if txn.status != ACTIVE:
            raise TxnClosedError(f"transaction {txn.txn_id} is {txn.status}")

    def _table_state(self, txn: Txn, tdef: TableDef) -> mf.TableState:
        """Committed snapshot plus the txn's own manifest. RCSI re-captures
        the committed part per statement; SI and SERIALIZABLE pin it at first
        use."""
        tid = tdef.table_id
        if txn.isolation is Isolation.RCSI:
            base = self.snapshots.state(txn.ctx, tid)
        else:
            base = txn.snapshots.get(tid)
            if base is None:
                base = txn.snapshots[tid] = self.snapshots.state(txn.ctx, tid)
        own = txn.manifests.get(tid)
        return mf.overlay(base, own) if own else base

    # ------------------------------------------------------------------
    # cached immutable-object reads: data and delete-vector paths are
    # write-once (txn guid plus content digest), and a manifest or checkpoint
    # never changes once a catalog row names it, so a cached entry never
    # goes stale

    def _cached(self, path: str, decode):
        """decode(payload) of the object at path, through the one LRU cache of
        decoded immutable objects: data files, delete vectors, and the
        committed manifests and checkpoints the snapshot manager loads. An
        open transaction's own manifest is rewritten by each statement and
        never passes through here. Each entry is charged its encoded length;
        least recently used entries are evicted until the total fits
        _CACHE_BYTES, and an object larger than that is returned without
        being kept."""
        with self._cache_mutex:
            hit = self._cache.get(path)
            if hit is not None:
                self._cache.move_to_end(path)
                return hit[0]
        payload = self.store.get_object(path)
        value, size = decode(payload), len(payload)
        if size <= self._CACHE_BYTES:
            with self._cache_mutex:
                if path not in self._cache:
                    self._cache[path] = (value, size)
                    self._cached_bytes += size
                    while self._cached_bytes > self._CACHE_BYTES:
                        _, (_, evicted) = self._cache.popitem(last=False)
                        self._cached_bytes -= evicted
        return value

    def _file_rows(self, path: str) -> tuple:
        """Rows of one data file; called once per file visit."""
        # decode_data_file is looked up at call time, so it can be wrapped
        return self._cached(path, lambda payload: tuple(decode_data_file(payload)[1]))

    def _dv_bits(self, dv_ref: "mf.DvRef | None") -> frozenset:
        if dv_ref is None:
            return frozenset()
        return self._cached(dv_ref.path, lambda payload: decode_delete_vector(payload)[0].bits)

    def _put_idempotent(self, path: str, payload: bytes) -> None:
        """Write-once put that treats an existing identical object as success;
        names embed a content digest, so a retried attempt lands on the same
        path with the same bytes."""
        try:
            self.store.put_object(path, payload)
        except AlreadyExistsError:
            if self.store.get_object(path) != payload:
                raise CorruptFileError(f"path collision with different content: {path}")

    # ------------------------------------------------------------------
    # statement plumbing

    def _apply_statement(self, txn: Txn, tdef: TableDef, stmt: int, results,
                         leading_actions=()) -> None:
        """Fold a statement's task results into the txn manifest and write the
        manifest object once. On a table's first statement the tasks staged
        their blocks; they are committed in task order and decoded back, and
        when reconcile cancels nothing that committed block list is the
        manifest. Later statements' tasks stage nothing: those statements,
        compaction's leading actions and cancelling statements commit one
        freshly staged block holding the reconciled actions."""
        new_actions = tuple(leading_actions) + tuple(
            a for r in results for a in r.actions
        )
        if not new_actions:
            return  # statement changed nothing; manifest object untouched
        tid = tdef.table_id
        mpath = self.manifest_path(txn, tid)
        own = txn.manifests.get(tid)
        first = own is None and not leading_actions
        if first:
            blocks = [b for r in results for b in r.block_ids]
            self.store.commit_block_list(mpath, blocks)
            # the read-back is the check on the block-list commit
            decoded = mf.decode_manifest(self.store.get_object(mpath))
            if decoded != new_actions:
                raise EngineError(f"manifest block decode mismatch on {mpath}")
        reconciled = mf.reconcile(own or (), new_actions)
        if reconciled:
            if not (first and reconciled == new_actions):
                fe_block = BlockId.derive(f"{txn.guid}s{stmt}.fe")
                self.store.stage_block(mpath, fe_block, mf.encode_actions(reconciled))
                self.store.commit_block_list(mpath, [fe_block])
            txn.manifests[tid] = reconciled
            txn.manifest_paths[tid] = mpath
        else:
            # the statement retracted everything earlier statements did to
            # this table; the txn no longer needs a manifest object for it
            if self.store.object_exists(mpath):
                self.store.delete_object(mpath)
            txn.manifests[tid] = ()
            txn.manifest_paths.pop(tid, None)

    def _stages_blocks(self, txn: Txn, tdef: TableDef):
        """A write task's stage(task_id, attempt, actions) -> block ids. Only
        on the table's first statement in txn do the task blocks become the
        manifest, so only then are they staged; later statements' tasks
        return their actions alone and _apply_statement stages the one
        reconciled block."""
        if tdef.table_id in txn.manifests:
            return lambda task_id, attempt, actions: ()
        mpath = self.manifest_path(txn, tdef.table_id)

        def stage(task_id: str, attempt: int, actions) -> tuple:
            block = BlockId.derive(f"{task_id}a{attempt}")
            self.store.stage_block(mpath, block, mf.encode_actions(actions))
            return (block,)

        return stage

    def _insert_tasks(self, txn: Txn, tdef: TableDef, stmt: int, buckets,
                      base: int = 0) -> list:
        """One insert task per non-empty distribution bucket, numbered on
        from base (an update's mask tasks come first)."""
        tasks = []
        for bucket, brows in enumerate(buckets):
            if brows:
                index = base + len(tasks)
                tasks.append(self._insert_task(txn, tdef, stmt, bucket, tuple(brows),
                                               f"{txn.guid}s{stmt}.{index:03d}"))
        return tasks

    def _insert_task(self, txn: Txn, tdef: TableDef, stmt: int, bucket: int,
                     rows: tuple, task_id: str) -> Task:
        schema = tdef.schema
        stage = self._stages_blocks(txn, tdef)
        created_rev = txn.ctx.begin_version

        def fn(fc) -> TaskResult:
            fc.checkpoint("before")
            payload = encode_data_file(schema, rows, created_rev)
            name = f"{txn.guid}s{stmt}b{bucket}-{content_digest(payload)}.col"
            path = f"{self.table_dir(tdef.table_id)}/data/{name}"
            self._put_idempotent(path, payload)
            fc.checkpoint("mid")
            action = mf.add_file(file_meta_for(path, payload))
            blocks = stage(task_id, fc.attempt, (action,))
            fc.checkpoint("after")
            return TaskResult(task_id, actions=(action,), block_ids=blocks, value=len(rows))

        return Task(task_id, "write", fn, cells=((tdef.table_id, "b", bucket),))

    def insert(self, txn: Txn, table, rows) -> int:
        self._check_active(txn)
        tdef = self._resolve(txn.ctx, table)
        coerced = [tdef.schema.coerce_row(r) for r in rows]
        if not coerced:
            return 0
        buckets = distribute(
            tdef.schema, coerced, tdef.distribution_count,
            tdef.distribution_key, tdef.partition_key,
        )
        stmt = txn.next_stmt()
        results = self.dcp.run_tasks(self._insert_tasks(txn, tdef, stmt, buckets))
        self._apply_statement(txn, tdef, stmt, results)
        return len(coerced)

    def _mask_task(self, txn: Txn, tdef: TableDef, stmt: int, index: int,
                   lf: mf.LiveFile, conds, task_id: str, set_clause=None) -> Task:
        """Shared by delete and update: compute matched ordinals of one file,
        extend its delete vector (or remove the file outright when nothing
        survives) and, for updates, return the rewritten rows."""
        schema = tdef.schema
        stage = self._stages_blocks(txn, tdef)
        created_rev = txn.ctx.begin_version
        meta, dv_ref = lf.meta, lf.dv

        def fn(fc) -> TaskResult:
            fc.checkpoint("before")
            rows = self._file_rows(meta.path)
            cur_bits = self._dv_bits(dv_ref)
            matched = [i for i in range(len(rows)) if i not in cur_bits]
            for pos, test, value, _, _ in conds:
                matched = [i for i in matched if test(rows[i][pos], value)]
            if not matched:
                fc.checkpoint("mid")
                fc.checkpoint("after")
                return TaskResult(task_id, value=(0, ()))
            new_rows = ()
            if set_clause is not None:
                new_rows = tuple(
                    tuple(set_clause.get(name, row[i]) for i, name in enumerate(schema.names))
                    for row in (rows[j] for j in matched)
                )
            merged = frozenset(cur_bits | set(matched))
            actions = []
            if dv_ref is not None:
                actions.append(mf.remove_dv(dv_ref.path, dv_ref.meta))
            if len(merged) == meta.row_count:
                actions.append(mf.remove_file(meta.path))
            else:
                dv = DeleteVector(meta.path, merged)
                payload = encode_delete_vector(dv, meta.row_count, created_rev)
                name = f"{txn.guid}s{stmt}k{index}-{content_digest(payload)}.dv"
                path = f"{self.table_dir(tdef.table_id)}/dv/{name}"
                self._put_idempotent(path, payload)
                actions.append(mf.add_dv(path, mf.DvMeta(
                    target=meta.path,
                    cardinality=len(merged),
                    target_row_count=meta.row_count,
                    created_rev=created_rev,
                    size_bytes=len(payload),
                )))
            fc.checkpoint("mid")
            blocks = stage(task_id, fc.attempt, actions)
            fc.checkpoint("after")
            return TaskResult(task_id, actions=tuple(actions), block_ids=blocks,
                              value=(len(matched), new_rows))

        return Task(task_id, "write", fn, cells=((tdef.table_id, "f", meta.path),))

    def _mask_statement(self, txn: Txn, table, predicate, set_clause=None):
        """Shared by delete and update: resolve the table, check the predicate
        (and an update's assignments), then run one mask task per live file
        the predicate can match. Returns (tdef, stmt, results), or None when
        no file can match; then no statement number is used."""
        self._check_active(txn)
        tdef = self._resolve(txn.ctx, table)
        conds = normalize_predicate(tdef.schema, predicate)
        if set_clause is not None:
            if not set_clause:
                raise SchemaError("update needs at least one assignment")
            for col in set_clause:
                tdef.schema.index_of(col)  # unknown-column check; values coerce on re-insert
        state = self._table_state(txn, tdef)
        candidates = _prune(state.live.values(), conds)
        if not candidates:
            return None
        stmt = txn.next_stmt()
        tasks = [
            self._mask_task(txn, tdef, stmt, i, lf, conds,
                            f"{txn.guid}s{stmt}.{i:03d}", set_clause)
            for i, lf in enumerate(candidates)
        ]
        return tdef, stmt, list(self.dcp.run_tasks(tasks))

    def delete(self, txn: Txn, table, predicate) -> int:
        masked = self._mask_statement(txn, table, predicate)
        if masked is None:
            return 0
        tdef, stmt, results = masked
        self._apply_statement(txn, tdef, stmt, results)
        return sum(r.value[0] for r in results)

    def update(self, txn: Txn, table, set_clause: dict, predicate) -> int:
        """Delete the matched row versions and re-insert rewritten ones, all
        inside one statement (one manifest reconcile)."""
        masked = self._mask_statement(txn, table, predicate, set_clause or {})
        if masked is None:
            return 0
        tdef, stmt, results = masked
        count = sum(r.value[0] for r in results)
        new_rows = [tdef.schema.coerce_row(r) for res in results for r in res.value[1]]
        if new_rows:
            buckets = distribute(tdef.schema, new_rows, tdef.distribution_count,
                                 tdef.distribution_key, tdef.partition_key)
            results += self.dcp.run_tasks(
                self._insert_tasks(txn, tdef, stmt, buckets, len(results)))
        self._apply_statement(txn, tdef, stmt, results)
        return count

    # ------------------------------------------------------------------
    # reads

    def scan(self, txn: Txn, table, columns=None, predicate=None,
             aggregate=None, as_of=None):
        """Rows (projected, file order) or an aggregate over the visible state.

        The predicate is checked and compiled once per statement; its
        conditions prune the live files by their min/max stats and then
        filter each kept file's rows. The kept files are split into
        min(read_workers, files) contiguous slices, one read task each, so
        dispatch grows with the pool, not the file count; results joined in
        task order are in file order. The aggregate ("count", or ("sum",
        column) over a numeric column) is checked before any file is read.

        as_of reads a historical sequence / timestamp point instead of the
        txn snapshot; it is rejected while the txn has its own writes on the
        table, since those have no defined position in history.
        """
        self._check_active(txn)
        tdef = self._resolve(txn.ctx, table)
        schema = tdef.schema
        conds = normalize_predicate(schema, predicate)
        sum_idx = _aggregate_column(schema, aggregate) if aggregate is not None else None
        if as_of is not None:
            if txn.manifests.get(tdef.table_id):
                raise EngineError("as-of scan with uncommitted writes on this table")
            upto = self.snapshots.resolve_point(
                txn.ctx, tdef.table_id, as_of, self.config.retention_seconds
            )
            state = self.snapshots.state(txn.ctx, tdef.table_id, upto=upto, record=False)
        else:
            state = self._table_state(txn, tdef)
        if columns is not None:
            proj = tuple(schema.index_of(c) for c in columns)
        files = _prune(state.live.values(), conds)
        stmt = txn.next_stmt()
        n = min(self.dcp.read_workers, len(files))
        tasks = [
            self._read_task(tdef, conds, files[len(files) * i // n:len(files) * (i + 1) // n],
                            f"{txn.guid}s{stmt}.r{i:03d}")
            for i in range(n)
        ]
        rows = [row for r in self.dcp.run_tasks(tasks) for row in r.value]
        if aggregate is not None:
            return len(rows) if sum_idx is None else sum(row[sum_idx] for row in rows)
        if columns is not None:
            rows = [tuple(row[i] for i in proj) for row in rows]
        return rows

    def _read_task(self, tdef: TableDef, conds, files: list, task_id: str) -> Task:
        """One read task over a contiguous slice of live files: the visible
        rows matching conds, in file order. Each file stays its own cell."""

        def fn(fc) -> TaskResult:
            fc.checkpoint("before")
            out = []
            for lf in files:
                rows = self._file_rows(lf.meta.path)
                bits = self._dv_bits(lf.dv)
                if bits:
                    rows = [row for i, row in enumerate(rows) if i not in bits]
                for pos, test, value, _, _ in conds:
                    rows = [row for row in rows if test(row[pos], value)]
                out.extend(rows)
            fc.checkpoint("mid")
            fc.checkpoint("after")
            return TaskResult(task_id, value=out)

        return Task(task_id, "read", fn,
                    cells=tuple((tdef.table_id, "scan", lf.meta.path) for lf in files))

    # ------------------------------------------------------------------
    # commit / abort

    @staticmethod
    def writeset_keys(actions, granularity: str) -> list:
        """Conflict keys of a reconciled manifest: the pre-existing data files
        whose visibility or delete vector this txn changes. Files the txn
        itself added never count (no one else can see them); insert-only
        manifests yield no keys at all."""
        own_adds = {a.path for a in actions if a.kind in (mf.ADD, mf.ADD_DV)}
        touched = []
        for act in actions:
            if act.kind == mf.REMOVE and act.path not in own_adds:
                touched.append(act.path)
            elif act.kind in (mf.ADD_DV, mf.REMOVE_DV) and act.meta.target not in own_adds:
                touched.append(act.meta.target)
        deduped = sorted(set(touched))
        if not deduped:
            return []
        return [WHOLE_TABLE] if granularity == TABLE else deduped

    def commit(self, txn: Txn) -> CommitOutcome:
        self._check_active(txn)
        writes = {tid: acts for tid, acts in txn.manifests.items() if acts}
        manifest_keys = {}
        for tid, actions in sorted(writes.items()):
            for key in self.writeset_keys(actions, txn.granularity):
                self.catalog.upsert_writeset(txn.ctx, tid, key)
            path = txn.manifest_paths[tid]
            self.catalog.insert(txn.ctx, MANIFESTS, ManifestsRow(
                table_id=tid, manifest_path=path, transaction_id=txn.txn_id,
            ))
            manifest_keys[tid] = (tid, path)
        result = self.catalog.commit(txn.ctx)
        sequences = {tid: result.sequences[key] for tid, key in manifest_keys.items()}
        if self.sto is not None:
            for tid in sequences:
                self.sto.notify(tid)
        return CommitOutcome(
            version=result.version,
            wallclock=result.wallclock,
            sequences=sequences,
            read_only=not writes,
        )

    def abort(self, txn: Txn) -> None:
        """Idempotent. The txn's files and manifest objects stay on storage as
        unreferenced orphans until garbage collection ages them out."""
        if txn.status == ABORTED:
            return
        self._check_active(txn)
        self.catalog.abort(txn.ctx)

    # ------------------------------------------------------------------
    # session re-attachment (CLI)

    def attach_transaction(self, txn_id: int, begin_version: int, isolation,
                           granularity: str, stmt: int, manifest_paths: dict,
                           read_set=()) -> Txn:
        ctx = self.catalog.adopt(txn_id, begin_version, isolation, read_set)
        txn = Txn(self, ctx, granularity)
        txn.stmt = stmt
        for tid, mpath in manifest_paths.items():
            actions = mf.decode_manifest(self.store.get_object(mpath))
            txn.manifests[int(tid)] = actions
            txn.manifest_paths[int(tid)] = mpath
        return txn
