"""Autonomous table upkeep: compaction, checkpoints, publishing, GC.

Every maintenance job runs as an ordinary catalog transaction, so it obeys
the same first-committer-wins rules as user writes. Compaction conflicts with
concurrent deletes to the files it rewrites (file granularity); checkpointing
and publishing touch no data files and never conflict with writers.
"""

from __future__ import annotations

import json
import queue
import re
import threading
import time
from dataclasses import dataclass, field

from . import manifest as mf
from .catalog import CHECKPOINTS, MANIFESTS, TABLES, CheckpointsRow
from .datafile import content_digest, created_rev_of, encode_data_file, file_meta_for
from .errors import (
    AlreadyExistsError,
    CorruptFileError,
    EngineError,
    RetryableError,
)
from .txn import FILE

# writer-stamped object names: x<txn>r<begin revision>...
_STAMP_RE = re.compile(r"^x\d+r(\d+)")


@dataclass(frozen=True)
class TableHealth:
    table_id: int
    name: str
    live_files: int
    small_files: int
    total_rows: int
    visible_rows: int
    deleted_rows: int
    deleted_fraction: float
    last_sequence: int
    checkpoint_upto: int
    manifests_since_checkpoint: int
    needs_compaction: bool
    needs_checkpoint: bool


@dataclass(frozen=True)
class CompactionReport:
    table_id: int
    removed_files: tuple
    removed_dvs: tuple
    added_files: tuple
    rows_rewritten: int
    sequence: int


@dataclass
class GcReport:
    deleted: list = field(default_factory=list)
    swept_staged: list = field(default_factory=list)
    pruned_manifest_rows: list = field(default_factory=list)
    pruned_checkpoint_rows: list = field(default_factory=list)
    kept_active: int = 0
    kept_recent: int = 0


class Maintenance:
    def __init__(self, engine):
        self.engine = engine

    # ------------------------------------------------------------------

    def health(self, table) -> TableHealth:
        eng = self.engine
        cfg = eng.config
        with eng.catalog.transaction() as ctx:
            tdef = eng._resolve(ctx, table)
            tid = tdef.table_id
            state = eng.snapshots.state(ctx, tid)
            rows, ckpts = eng.snapshots.history(ctx, tid)
            ckpt = max((c.upto_sequence for c in ckpts), default=0)
        total = sum(lf.meta.row_count for lf in state.live.values())
        visible = state.visible_row_count()
        deleted = total - visible
        small = sum(
            1 for lf in state.live.values()
            if lf.visible_rows < cfg.min_rows_per_file
        )
        heavy = any(
            lf.dv is not None
            and lf.dv.meta.cardinality / lf.meta.row_count >= cfg.delete_fraction_trigger
            for lf in state.live.values()
        )
        behind = sum(1 for r in rows if r.sequence_id > ckpt)
        return TableHealth(
            table_id=tid,
            name=tdef.name,
            live_files=len(state.live),
            small_files=small,
            total_rows=total,
            visible_rows=visible,
            deleted_rows=deleted,
            deleted_fraction=(deleted / total) if total else 0.0,
            last_sequence=state.sequence,
            checkpoint_upto=ckpt,
            manifests_since_checkpoint=behind,
            needs_compaction=heavy or small >= cfg.small_file_trigger,
            needs_checkpoint=behind >= cfg.checkpoint_trigger,
        )

    # ------------------------------------------------------------------

    def compact(self, table, *, force: bool = False) -> "CompactionReport | None":
        """Rewrite delete-heavy and undersized files into packed ones.

        Runs as a file-granularity transaction: a concurrent delete against a
        rewritten file loses first-committer-wins, never silently merges.
        Returns None when there is nothing worth rewriting.
        """
        eng = self.engine
        cfg = eng.config
        with eng.begin_transaction("si", granularity=FILE) as txn:
            tdef = eng._resolve(txn.ctx, table)
            state = eng._table_state(txn, tdef)
            heavy, small = [], []
            for lf in state.live.values():
                frac = (lf.dv.meta.cardinality / lf.meta.row_count) if lf.dv else 0.0
                if frac >= cfg.delete_fraction_trigger:
                    heavy.append(lf)
                elif lf.visible_rows < cfg.min_rows_per_file:
                    small.append(lf)
            if force:
                selected = heavy + (small if (heavy or len(small) >= 2) else [])
            else:
                selected = heavy + (small if len(small) >= cfg.small_file_trigger else [])
            if not selected:
                return None
            chosen = {lf.meta.path for lf in selected}
            ordered = [lf for lf in state.live.values() if lf.meta.path in chosen]

            survivors = []
            actions = []
            for lf in ordered:
                rows = eng._file_rows(lf.meta.path)
                bits = eng._dv_bits(lf.dv)
                survivors.extend(r for i, r in enumerate(rows) if i not in bits)
                if lf.dv is not None:
                    actions.append(mf.remove_dv(lf.dv.path, lf.dv.meta))
                actions.append(mf.remove_file(lf.meta.path))

            stmt = txn.next_stmt()
            added = []
            target = max(cfg.compaction_target_rows, cfg.min_rows_per_file)
            for i in range(0, len(survivors), target):
                chunk = survivors[i : i + target]
                payload = encode_data_file(tdef.schema, chunk, txn.ctx.begin_version)
                name = f"{txn.guid}s{stmt}c{i // target}-{content_digest(payload)}.col"
                path = f"{eng.table_dir(tdef.table_id)}/data/{name}"
                eng._put_idempotent(path, payload)
                actions.append(mf.add_file(file_meta_for(path, payload)))
                added.append(path)

            eng._apply_statement(txn, tdef, stmt, results=(), leading_actions=actions)
            outcome = eng.commit(txn)
            return CompactionReport(
                table_id=tdef.table_id,
                removed_files=tuple(lf.meta.path for lf in ordered),
                removed_dvs=tuple(lf.dv.path for lf in ordered if lf.dv),
                added_files=tuple(added),
                rows_rewritten=len(survivors),
                sequence=outcome.sequences[tdef.table_id],
            )

    # ------------------------------------------------------------------

    def checkpoint(self, table) -> "str | None":
        """Materialize the current state so replay starts from it instead of
        from the full manifest history. No-op if the latest sequence is already
        checkpointed. Touches no conflict keys, so it never aborts a writer."""
        eng = self.engine
        try:
            with eng.catalog.transaction() as ctx:
                tdef = eng._resolve(ctx, table)
                tid = tdef.table_id
                state = eng.snapshots.state(ctx, tid)
                upto = state.sequence
                if upto == 0 or eng.catalog.get(ctx, CHECKPOINTS, (tid, upto), record=False):
                    return None
                path = f"{eng.table_dir(tid)}/checkpoints/{upto:012d}.ckpt"
                payload = mf.encode_checkpoint(state, ctx.begin_version)
                try:
                    eng.store.put_object(path, payload)
                except AlreadyExistsError:
                    other, _ = mf.decode_checkpoint(eng.store.get_object(path))
                    if other != state:
                        raise CorruptFileError(
                            f"checkpoint collision with different state: {path}")
                eng.catalog.insert(ctx, CHECKPOINTS, CheckpointsRow(tid, upto, path))
                eng.catalog.commit(ctx)
                return path
        except RetryableError:
            return None  # a concurrent job checkpointed the same sequence

    # ------------------------------------------------------------------

    def publish(self, table) -> list:
        """Mirror committed manifests into an append-only numbered log that
        external readers can tail without catalog access. Idempotent; returns
        the log paths written by this call."""
        eng = self.engine
        with eng.catalog.transaction() as ctx:
            tdef = eng._resolve(ctx, table)
            tid = tdef.table_id
            rows = eng.snapshots.visible_manifests(ctx, tid)
        written = []
        for row in rows:
            lpath = f"{eng.table_dir(tid)}/publish/_log/{row.sequence_id:020d}.json"
            if eng.store.object_exists(lpath):
                continue
            manifest_bytes = eng.store.get_object(row.manifest_path)
            doc = {
                "sequence": row.sequence_id,
                "table_id": tid,
                "txn": row.transaction_id,
                "wallclock": row.commit_wallclock,
                "actions": [json.loads(l) for l in manifest_bytes.splitlines() if l],
            }
            payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            eng._put_idempotent(lpath, payload)
            written.append(lpath)
        return written

    def published_state(self, table_id: int) -> mf.TableState:
        """Fold the published log alone (no catalog) into a table state."""
        eng = self.engine
        prefix = f"{eng.table_dir(table_id)}/publish/_log"
        state = mf.empty_state(table_id)
        for path in eng.store.list_prefix(prefix):
            doc = json.loads(eng.store.get_object(path))
            actions = tuple(mf.action_from_json(a) for a in doc["actions"])
            state = mf.apply(state, actions, doc["sequence"])
        return state

    # ------------------------------------------------------------------

    def garbage_collect(self, retention_seconds: "float | None" = None,
                        now: "float | None" = None,
                        extra_live_begins=()) -> GcReport:
        """Delete objects no snapshot within the retention window can reach.

        Active objects: everything referenced by a catalog row (manifests,
        checkpoints) or live in some table's current state, across clones.
        Removed files stay until their removing commit ages past retention.
        Anything unreferenced falls to the orphan rule: deletable once its
        creation stamp predates every live transaction's begin revision.
        """
        eng = self.engine
        cat = eng.catalog
        retention = eng.config.retention_seconds if retention_seconds is None else retention_seconds
        now = time.time() if now is None else now
        report = GcReport()

        self._prune_rows(now, retention, report)

        # listing first: any object created afterwards belongs to a txn that
        # is still live when min_live_begin is computed below, so its stamp
        # keeps it safe
        objects = eng.store.list_prefix(eng.workspace)
        staged = eng.store.list_staged(eng.workspace)

        active: set = set()
        removed_at: dict = {}
        with cat.transaction() as ctx:
            for trow in cat.read(ctx, TABLES):
                tid = trow.table_id
                state = eng.snapshots.state(ctx, tid)
                for lf in state.live.values():
                    active.add(lf.meta.path)
                    if lf.dv is not None:
                        active.add(lf.dv.path)
                rows, ckpts = eng.snapshots.history(ctx, tid)
                for mrow in rows:
                    active.add(mrow.manifest_path)
                    wc = mrow.commit_wallclock if mrow.commit_wallclock is not None else now
                    for act in eng.snapshots.load_manifest(mrow):
                        if act.kind in (mf.REMOVE, mf.REMOVE_DV):
                            removed_at[act.path] = max(removed_at.get(act.path, 0.0), wc)
                active.update(crow.path for crow in ckpts)

        floor = cat.min_live_begin()
        min_begin = cat.version + 1 if floor is None else floor
        for begin in extra_live_begins:
            min_begin = min(min_begin, begin)

        for path in objects:
            segs = path.split("/")
            if len(segs) >= 3 and segs[2] == "publish":
                report.kept_active += 1
                continue
            if path in active:
                report.kept_active += 1
                continue
            when = removed_at.get(path)
            if when is not None and now - when <= retention:
                report.kept_recent += 1
                continue
            stamp = self._creation_stamp(path)
            if stamp is not None and stamp < min_begin:
                eng.store.delete_object(path)
                report.deleted.append(path)
            else:
                report.kept_recent += 1

        deleted = set(report.deleted)
        for spath in staged:
            stamp = self._stamp_from_name(spath)
            if spath in deleted or (stamp is not None and stamp < min_begin):
                eng.store.discard_staged(spath)
                report.swept_staged.append(spath)
        return report

    def _prune_rows(self, now: float, retention: float, report: GcReport) -> None:
        """Drop manifest rows a checkpoint already covers once they age out of
        the time-travel window. Pruning always stops exactly at a checkpoint
        boundary, so that boundary checkpoint remains the floor state for
        historical reads; checkpoints below the boundary (now unreachable
        bases) go with the rows. The objects all of these referenced become
        unreferenced and fall to the orphan rule."""
        eng = self.engine
        cat = eng.catalog

        def aged(wallclock) -> bool:
            return wallclock is not None and now - wallclock > retention

        try:
            with cat.transaction() as ctx:
                for trow in cat.read(ctx, TABLES):
                    rows, ckpts = eng.snapshots.history(ctx, trow.table_id)
                    # largest checkpoint boundary whose whole prefix has aged out
                    bound = 0
                    for upto in sorted(c.upto_sequence for c in ckpts):
                        if all(aged(r.commit_wallclock) for r in rows if r.sequence_id <= upto):
                            bound = upto
                    if bound == 0:
                        continue
                    for mrow in rows:
                        if mrow.sequence_id <= bound:
                            cat.delete(ctx, MANIFESTS, mrow.key)
                            report.pruned_manifest_rows.append(mrow.key)
                    for crow in ckpts:
                        if crow.upto_sequence < bound:
                            cat.delete(ctx, CHECKPOINTS, crow.key)
                            report.pruned_checkpoint_rows.append(crow.key)
                if ctx.writes:
                    cat.commit(ctx)
        except RetryableError:
            report.pruned_manifest_rows.clear()
            report.pruned_checkpoint_rows.clear()
        finally:
            eng.snapshots.invalidate()

    @staticmethod
    def _stamp_from_name(path: str) -> "int | None":
        m = _STAMP_RE.match(path.rsplit("/", 1)[-1])
        return int(m.group(1)) if m else None

    def _creation_stamp(self, path: str) -> "int | None":
        stamp = self._stamp_from_name(path)
        if stamp is not None:
            return stamp
        try:
            payload = self.engine.store.get_object(path)
        except EngineError:
            return None
        try:
            if path.endswith(".ckpt"):
                return mf.decode_checkpoint(payload)[1]
            return created_rev_of(payload)
        except EngineError:
            return None  # unrecognized object: never collect


class Sto:
    """Background notifier loop: commits enqueue table ids, the worker runs
    whatever upkeep the health thresholds call for. Off unless the engine is
    configured with auto_maintenance. A run that ends in an EngineError is
    dropped, counted in failures and described in last_error."""

    def __init__(self, engine):
        self.engine = engine
        self.failures = 0  # upkeep runs that ended in an EngineError
        self.last_error: "str | None" = None
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._run, name="sto", daemon=True)
        self._thread.start()

    def notify(self, table_id: int) -> None:
        self._queue.put(table_id)

    def stop(self) -> None:
        self._queue.put(None)
        self._thread.join()

    def drain(self) -> None:
        """Block until every notification enqueued so far is processed."""
        self._queue.join()

    def _run(self) -> None:
        while True:
            tid = self._queue.get()
            try:
                if tid is None:
                    return
                maint = self.engine.maintenance
                health = maint.health(tid)
                if health.needs_compaction:
                    maint.compact(tid)
                if health.needs_checkpoint:
                    maint.checkpoint(tid)
            except EngineError as exc:
                # lost a race or the table vanished; next commit re-notifies
                self.failures += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
            finally:
                self._queue.task_done()
