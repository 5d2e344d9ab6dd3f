"""Transaction manifests and table state reconstruction.

A manifest is the ordered action list one transaction applies to one table:
add/remove a data file, add/remove a delete vector. On storage it is encoded
one action per line, so blocks written by independent statement tasks can be
concatenated in any commit order and still decode.

Table state at a sequence point is the fold of all visible manifests,
optionally starting from a checkpoint. A committed manifest or checkpoint is
immutable, so the snapshot manager decodes each one once per engine, through
the engine's cache of decoded objects. ``overlay`` folds a transaction's own
uncommitted manifest on top of a committed state; ``reconcile`` merges the
actions of a new statement into the transaction's manifest, cancelling work
the statement made obsolete (a file both added and removed inside one
transaction vanishes from the manifest and is left on storage for garbage
collection, which finds such orphans by listing storage).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from .datafile import DataFileMeta
from .errors import (
    CorruptManifestError,
    DanglingRemoveError,
    ManifestError,
    NotFoundError,
    OutOfRetentionError,
    SchemaError,
    SequenceGapError,
)

ADD = "add"
REMOVE = "rm"
ADD_DV = "adddv"
REMOVE_DV = "rmdv"


@dataclass(frozen=True)
class DvMeta:
    """Catalog-visible description of one delete vector file."""

    target: str  # data file whose rows it masks
    cardinality: int
    target_row_count: int
    created_rev: int
    size_bytes: int

    def to_json(self):
        return {
            "target": self.target,
            "cardinality": self.cardinality,
            "rows": self.target_row_count,
            "created_rev": self.created_rev,
            "size": self.size_bytes,
        }

    @classmethod
    def from_json(cls, data) -> "DvMeta":
        return cls(
            target=data["target"],
            cardinality=data["cardinality"],
            target_row_count=data["rows"],
            created_rev=data["created_rev"],
            size_bytes=data["size"],
        )


@dataclass(frozen=True)
class Action:
    kind: str  # ADD | REMOVE | ADD_DV | REMOVE_DV
    path: str
    meta: "DataFileMeta | DvMeta | None" = None

    def __post_init__(self):
        if self.kind not in (ADD, REMOVE, ADD_DV, REMOVE_DV):
            raise ManifestError(f"unknown action kind: {self.kind}")
        if self.kind == ADD and not isinstance(self.meta, DataFileMeta):
            raise ManifestError(f"add action needs a data file meta: {self.path}")
        if self.kind in (ADD_DV, REMOVE_DV) and not isinstance(self.meta, DvMeta):
            raise ManifestError(f"{self.kind} action needs a delete vector meta: {self.path}")


def add_file(meta: DataFileMeta) -> Action:
    return Action(ADD, meta.path, meta)


def remove_file(path: str) -> Action:
    return Action(REMOVE, path)


def add_dv(path: str, meta: DvMeta) -> Action:
    return Action(ADD_DV, path, meta)


def remove_dv(path: str, meta: DvMeta) -> Action:
    return Action(REMOVE_DV, path, meta)


# ---------------------------------------------------------------------------
# line encoding

def encode_actions(actions) -> bytes:
    """One canonical JSON line per action; any concatenation of encoded blocks
    is itself a valid manifest."""
    lines = []
    for act in actions:
        rec = {"a": act.kind, "f": act.path}
        if act.meta is not None:
            rec["m"] = act.meta.to_json()
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return ("".join(line + "\n" for line in lines)).encode("utf-8")


def action_from_json(rec) -> Action:
    """One decoded manifest line (or published log action) as an Action;
    any malformed field raises CorruptManifestError."""
    try:
        kind = rec["a"]
        meta = None
        if kind == ADD:
            meta = DataFileMeta.from_json(rec["m"])
        elif kind in (ADD_DV, REMOVE_DV):
            meta = DvMeta.from_json(rec["m"])
        elif kind != REMOVE:
            raise CorruptManifestError(f"unknown action {kind!r}")
        return Action(kind, rec["f"], meta)
    except CorruptManifestError:
        raise
    except (ValueError, KeyError, TypeError, ManifestError) as exc:
        raise CorruptManifestError(str(exc)) from None


def decode_manifest(data: bytes) -> tuple:
    """Inverse of encode_actions over any block concatenation order."""
    actions = []
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if not line:
            continue
        try:
            actions.append(action_from_json(json.loads(line)))
        except (ValueError, CorruptManifestError) as exc:
            raise CorruptManifestError(f"line {lineno}: {exc}") from None
    return tuple(actions)


# ---------------------------------------------------------------------------
# table state

@dataclass(frozen=True)
class DvRef:
    path: str
    meta: DvMeta


@dataclass(frozen=True, slots=True)
class LiveFile:
    meta: DataFileMeta
    dv: "DvRef | None" = None

    @property
    def visible_rows(self) -> int:
        return self.meta.row_count - (self.dv.meta.cardinality if self.dv else 0)


@dataclass(frozen=True, eq=True)
class TableState:
    """Immutable view of one table at a sequence point. ``live`` maps data
    file path to its meta and current delete vector; ``removed`` maps every
    logically removed file (data or delete vector) to the removing sequence."""

    table_id: int
    live: dict = field(default_factory=dict)
    removed: dict = field(default_factory=dict)
    sequence: int = 0

    __hash__ = None

    def visible_row_count(self) -> int:
        return sum(lf.visible_rows for lf in self.live.values())


def empty_state(table_id: int) -> TableState:
    return TableState(table_id, {}, {}, 0)


def apply(state: TableState, actions, sequence: int) -> TableState:
    """Fold one manifest into a state, returning a new state. The input is
    never mutated: a transaction's overlay must not leak into the shared
    committed state."""
    live = dict(state.live)
    removed = dict(state.removed)
    for act in actions:
        if act.kind == ADD:
            if act.path in live or act.path in removed:
                raise ManifestError(f"file added twice: {act.path}")
            live[act.path] = LiveFile(act.meta, None)
        elif act.kind == REMOVE:
            lf = live.pop(act.path, None)
            if lf is None:
                raise DanglingRemoveError(f"remove of non-live file: {act.path}")
            removed[act.path] = sequence
            if lf.dv is not None:
                removed[lf.dv.path] = sequence
        elif act.kind == ADD_DV:
            target = act.meta.target
            lf = live.get(target)
            if lf is None:
                raise DanglingRemoveError(f"delete vector targets non-live file: {target}")
            if lf.dv is not None:
                removed[lf.dv.path] = sequence
            live[target] = LiveFile(lf.meta, DvRef(act.path, act.meta))
        else:  # REMOVE_DV
            target = act.meta.target
            lf = live.get(target)
            if lf is None or lf.dv is None or lf.dv.path != act.path:
                raise DanglingRemoveError(f"remove of non-current delete vector: {act.path}")
            removed[act.path] = sequence
            live[target] = LiveFile(lf.meta, None)
    return TableState(state.table_id, live, removed, max(state.sequence, sequence))


def replay(base: "TableState | None", manifests, table_id: "int | None" = None) -> TableState:
    """Fold (sequence, actions) pairs over a checkpoint state (or empty).

    Sequences must be strictly increasing and above the base sequence; the
    caller is responsible for supplying every visible sequence (the snapshot
    manager raises SequenceGapError when a manifest object is missing).
    """
    if base is None:
        if table_id is None:
            raise ManifestError("replay from empty needs a table id")
        base = empty_state(table_id)
    state = base
    prev = base.sequence
    for sequence, actions in manifests:
        if sequence <= prev:
            raise SequenceGapError(
                f"manifest sequence {sequence} not above predecessor {prev}"
            )
        state = apply(state, actions, sequence)
        prev = sequence
    return state


def overlay(state: TableState, actions) -> TableState:
    """The transaction's private view: committed state plus its own manifest.
    Removals carry the current sequence; nothing is published."""
    return apply(state, actions, state.sequence)


def reconcile(own, new_actions):
    """Merge a statement's actions into the transaction's manifest.

    Returns the merged actions. An Add cancelled by a later Remove of the same
    file drops both actions; the file keeps existing on storage with no
    manifest referencing it, which is exactly the orphan shape garbage
    collection liquidates. Successive delete vectors against one target
    therefore collapse to the single newest Add (each statement removes the
    vector it supersedes).
    """
    combined = list(own) + list(new_actions)
    add_at = {}  # path -> index of its Add in combined
    removed_paths = set()
    drop = set()
    for i, act in enumerate(combined):
        if act.kind in (ADD, ADD_DV):
            if act.path in add_at:
                raise ManifestError(f"file added twice in one txn: {act.path}")
            if act.path in removed_paths:
                raise ManifestError(f"file re-added after remove: {act.path}")
            add_at[act.path] = i
        else:
            if act.path in removed_paths:
                raise ManifestError(f"file removed twice in one txn: {act.path}")
            j = add_at.get(act.path)
            if j is not None:
                drop.add(j)
                drop.add(i)
                del add_at[act.path]
            removed_paths.add(act.path)
    return tuple(a for i, a in enumerate(combined) if i not in drop)


# ---------------------------------------------------------------------------
# checkpoints

def encode_checkpoint(state: TableState, created_rev: int) -> bytes:
    live = []
    for path in sorted(state.live):
        lf = state.live[path]
        dv = [lf.dv.path, lf.dv.meta.to_json()] if lf.dv else None
        live.append([path, lf.meta.to_json(), dv])
    payload = {
        "table_id": state.table_id,
        "upto": state.sequence,
        "created_rev": created_rev,
        "live": live,
        "removed": [[p, s] for p, s in sorted(state.removed.items())],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_checkpoint(data: bytes):
    """-> (TableState, created_rev)."""
    try:
        payload = json.loads(data)
        live = {}
        for path, meta_json, dv_json in payload["live"]:
            dv = DvRef(dv_json[0], DvMeta.from_json(dv_json[1])) if dv_json else None
            live[path] = LiveFile(DataFileMeta.from_json(meta_json), dv)
        removed = {p: s for p, s in payload["removed"]}
        state = TableState(payload["table_id"], live, removed, payload["upto"])
        return state, payload["created_rev"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CorruptManifestError(f"unreadable checkpoint: {exc}") from None


# ---------------------------------------------------------------------------
# snapshot manager

class SnapshotManager:
    """Builds and caches per-table states from catalog rows and storage.

    States are keyed by (table_id, last included sequence): sequence order
    equals commit order, so the set of visible manifests of a table is always
    a prefix and one integer identifies it. Cached states are reused as the
    base for newer ones (incremental maintenance) since they are immutable.

    Manifest and checkpoint objects are read through ``cached(path, decode)``,
    the engine's one cache of decoded immutable objects (``Engine._cached``).
    Only paths named by committed catalog rows go through it: a committed
    object is never rewritten, while an open transaction's manifest is
    rewritten by each of its statements and is read from the store directly.
    """

    _CACHE_LIMIT = 256

    def __init__(self, catalog, cached):
        self.catalog = catalog
        self._cached = cached
        self._mutex = threading.Lock()
        self._cache: dict[tuple, TableState] = {}

    def invalidate(self) -> None:
        with self._mutex:
            self._cache.clear()

    def visible_manifests(self, ctx, table_id: int, upto: "int | None" = None,
                          *, record: bool = True) -> list:
        rows = self.catalog.read(ctx, "manifests", where={"table_id": table_id},
                                 record=record)
        rows.sort(key=lambda r: r.sequence_id)
        if upto is not None:
            rows = [r for r in rows if r.sequence_id <= upto]
        return rows

    def load_manifest(self, row) -> tuple:
        try:
            return self._cached(row.manifest_path, decode_manifest)
        except NotFoundError:
            raise SequenceGapError(
                f"sequence {row.sequence_id} visible but manifest missing: {row.manifest_path}"
            ) from None

    def history(self, ctx, table_id: int, *, record: bool = True) -> tuple:
        """(visible manifest rows in sequence order, checkpoint rows) of one
        table: the one read of a table's history. Checkpoint rows are
        bookkeeping that only shortens replay and carries no user-visible
        information, so they stay out of SERIALIZABLE read sets."""
        rows = self.visible_manifests(ctx, table_id, record=record)
        ckpts = self.catalog.read(ctx, "checkpoints", where={"table_id": table_id},
                                  record=False)
        return rows, ckpts

    def _cached_base(self, table_id: int, target: int) -> "TableState | None":
        best = None
        with self._mutex:
            for (tid, seq), state in self._cache.items():
                if tid == table_id and seq <= target and (best is None or seq > best.sequence):
                    best = state
        return best

    def _load_checkpoint(self, row, table_id: int) -> TableState:
        state = self._cached(row.path, lambda payload: decode_checkpoint(payload)[0])
        if state.table_id != table_id or state.sequence != row.upto_sequence:
            raise CorruptManifestError(f"checkpoint does not match its row: {row.path}")
        return state

    def state(self, ctx, table_id: int, upto: "int | None" = None,
              *, record: bool = True) -> TableState:
        all_rows, ckpts = self.history(ctx, table_id, record=record)
        rows = all_rows if upto is None else [r for r in all_rows if r.sequence_id <= upto]
        ckpt_row = max((c for c in ckpts if upto is None or c.upto_sequence <= upto),
                       key=lambda c: c.upto_sequence, default=None)
        # once history below a checkpoint is pruned, the checkpoint may sit
        # above every remaining manifest row; it still defines the state
        target = rows[-1].sequence_id if rows else 0
        if ckpt_row is not None:
            target = max(target, ckpt_row.upto_sequence)
        with self._mutex:
            hit = self._cache.get((table_id, target))
        if hit is not None:
            return hit
        if upto is not None:
            floor = _pruning_floor(all_rows, ckpts)
            if upto < floor:
                raise SequenceGapError(
                    f"table {table_id}: state at sequence {upto} is below the "
                    f"pruning floor {floor}"
                )
        base = self._cached_base(table_id, target)
        if ckpt_row is not None and (base is None or ckpt_row.upto_sequence > base.sequence):
            base = self._load_checkpoint(ckpt_row, table_id)
        if base is None:
            base = empty_state(table_id)
        tail = [(r.sequence_id, self.load_manifest(r)) for r in rows if r.sequence_id > base.sequence]
        state = replay(base, tail)
        with self._mutex:
            if len(self._cache) >= self._CACHE_LIMIT:
                self._cache.pop(next(iter(self._cache)))
            self._cache[(table_id, target)] = state
        return state

    def resolve_point(self, ctx, table_id: int, point, retention_seconds: float,
                      now: "float | None" = None) -> int:
        """Map an as-of point (sequence int or wall timestamp float) to the
        last included sequence. Points older than the retention window — or
        below the pruning floor, once garbage collection has folded aged
        history into a checkpoint — raise OutOfRetentionError; a point before
        the first commit yields 0 (the empty state)."""
        now = time.time() if now is None else now
        # historical reads are stable regardless of serialization order, so
        # they are never recorded for SERIALIZABLE validation
        rows, ckpts = self.history(ctx, table_id, record=False)
        floor = _pruning_floor(rows, ckpts)
        horizon = now - retention_seconds
        if isinstance(point, bool) or not isinstance(point, (int, float)):
            raise SchemaError(f"as-of point must be a sequence or timestamp: {point!r}")
        if isinstance(point, int):
            if point < floor:
                raise OutOfRetentionError(
                    f"history below sequence {floor} has been pruned"
                )
            chosen = [r for r in rows if r.sequence_id <= point]
            if chosen and chosen[-1].commit_wallclock < horizon:
                raise OutOfRetentionError(
                    f"sequence {point} is older than the retention window"
                )
            return point
        # wall timestamp: greatest commit at or below it, ties toward the
        # lower sequence among rows sharing that exact wallclock
        if point < horizon:
            raise OutOfRetentionError(f"timestamp {point} is older than the retention window")
        candidates = [r for r in rows if r.commit_wallclock <= point]
        if not candidates:
            # no surviving commit at or below the point: either pre-history
            # (floor 0, empty state) or everything older was pruned, in which
            # case the floor checkpoint is exactly the state at that time
            return floor
        top_wc = max(r.commit_wallclock for r in candidates)
        tied = [r.sequence_id for r in candidates if r.commit_wallclock == top_wc]
        return min(tied)


def _pruning_floor(rows, ckpts) -> int:
    """Earliest sequence whose state is still reconstructible, from a table's
    history. 0 until garbage collection prunes manifest rows; after that, the
    boundary checkpoint it left behind. A checkpoint's upto always equals one
    of the table's historical row sequences and pruning removes a prefix
    ending exactly at a surviving checkpoint, so the floor is the highest
    checkpoint that no surviving row precedes or meets."""
    first = rows[0].sequence_id if rows else None
    return max((c.upto_sequence for c in ckpts if first is None or c.upto_sequence < first),
               default=0)
