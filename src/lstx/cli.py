"""Command line front end.

One invocation runs one verb against a storage root. Multi-statement
transactions span invocations through named sessions: `begin --session S`
persists the transaction's identity under <root>/sessions/, later invocations
re-attach to it, and `commit`/`abort` retire it. Without --session a writing
verb runs as its own single-statement transaction.

Exit codes: 0 ok, 1 engine error, 2 usage, 3 commit conflict (retryable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .catalog import Isolation
from .errors import EngineError, RetryableError
from .txn import TABLE, Engine, EngineConfig

_OPS = ("<=", ">=", "!=", "=", "<", ">")  # two-char operators first


def _parse_literal(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _parse_where(clauses) -> list:
    conds = []
    for clause in clauses or ():
        for op in _OPS:
            col, sep, rest = clause.partition(op)
            if sep:
                conds.append((col.strip(), op, _parse_literal(rest.strip())))
                break
        else:
            raise SystemExit(f"bad --where clause (need col<op>value): {clause!r}")
    return conds


def _parse_point(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_columns(spec: str) -> list:
    cols = []
    for part in spec.split(","):
        name, sep, typ = part.partition(":")
        if not sep:
            raise SystemExit(f"bad column (need name:type): {part!r}")
        cols.append((name.strip(), typ.strip()))
    return cols


class Out:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain

    def emit(self, doc: dict, human: str) -> None:
        if self.porcelain:
            print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        else:
            print(human)

    def rows(self, rows) -> None:
        if self.porcelain:
            print(json.dumps({"rows": [list(r) for r in rows]}, sort_keys=True,
                             separators=(",", ":")))
        else:
            for r in rows:
                print("\t".join(str(v) for v in r))


# ---------------------------------------------------------------------------
# sessions

def _session_path(root: str, name: str) -> str:
    return os.path.join(root, "sessions", f"{name}.json")


def _freeze_reads(read_set) -> list:
    def conv(v):
        if isinstance(v, tuple):
            return {"t": [conv(x) for x in v]}
        return v

    return [conv(q) for q in sorted(read_set)]


def _thaw_reads(data) -> list:
    def conv(v):
        if isinstance(v, dict) and "t" in v:
            return tuple(conv(x) for x in v["t"])
        return v

    return [conv(q) for q in data]


def _save_session(root: str, name: str, txn) -> None:
    doc = {
        "txn_id": txn.txn_id,
        "begin_version": txn.ctx.begin_version,
        "isolation": txn.isolation.value,
        "granularity": txn.granularity,
        "stmt": txn.stmt,
        "manifests": {str(tid): p for tid, p in txn.manifest_paths.items()},
        "read_set": _freeze_reads(txn.ctx.read_set),
    }
    path = _session_path(root, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _load_session(root: str, name: str) -> dict:
    path = _session_path(root, name)
    if not os.path.exists(path):
        raise SystemExit(f"no session named {name!r} under {root}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _drop_session(root: str, name: str) -> None:
    try:
        os.unlink(_session_path(root, name))
    except FileNotFoundError:
        pass


def _attach(engine: Engine, root: str, name: str):
    doc = _load_session(root, name)
    return engine.attach_transaction(
        txn_id=doc["txn_id"],
        begin_version=doc["begin_version"],
        isolation=doc["isolation"],
        granularity=doc["granularity"],
        stmt=doc["stmt"],
        manifest_paths={int(k): v for k, v in doc["manifests"].items()},
        read_set=_thaw_reads(doc["read_set"]),
    )


def _session_begins(root: str) -> list:
    """Begin revisions of every open CLI session (GC must not collect under
    them)."""
    sdir = os.path.join(root, "sessions")
    begins = []
    if os.path.isdir(sdir):
        for fname in os.listdir(sdir):
            if fname.endswith(".json"):
                with open(os.path.join(sdir, fname), encoding="utf-8") as fh:
                    begins.append(json.load(fh)["begin_version"])
    return begins


def _run_write(engine: Engine, args, out: Out, fn) -> None:
    """Run one writing statement either inside a named session or as an
    autocommitted single-statement transaction."""
    if getattr(args, "session", None):
        txn = _attach(engine, args.root, args.session)
        count = fn(txn)
        _save_session(args.root, args.session, txn)
        out.emit({"count": count, "session": args.session},
                 f"{count} row(s); session {args.session} still open")
    else:
        txn = engine.begin_transaction("si")
        try:
            count = fn(txn)
            outcome = txn.commit()
        except Exception:
            if txn.status == "active":
                txn.abort()
            raise
        out.emit(
            {"count": count, "version": outcome.version,
             "sequences": {str(k): v for k, v in outcome.sequences.items()}},
            f"{count} row(s); committed at version {outcome.version}",
        )


# ---------------------------------------------------------------------------
# verbs

def cmd_init(engine, args, out):
    out.emit({"root": args.root}, f"initialized {args.root}")


def cmd_create_table(engine, args, out):
    tdef = engine.create_table(
        args.name,
        _parse_columns(args.columns),
        distribution_count=args.distribution_count,
        partition_key=args.partition_key.split(",") if args.partition_key else None,
        distribution_key=args.distribution_key.split(",") if args.distribution_key else None,
    )
    out.emit({"table_id": tdef.table_id, "name": tdef.name},
             f"created table {tdef.name} (id {tdef.table_id})")


def cmd_drop_table(engine, args, out):
    engine.drop_table(args.table)
    out.emit({"dropped": args.table}, f"dropped table {args.table}")


def _parse_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"bad {what}: not valid JSON ({exc})") from None


def cmd_insert(engine, args, out):
    rows = _parse_json(args.rows, "--rows")
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SystemExit("--rows must be a JSON array of row arrays")
    _run_write(engine, args, out, lambda txn: txn.insert(args.table, rows))


def cmd_delete(engine, args, out):
    conds = _parse_where(args.where)
    _run_write(engine, args, out, lambda txn: txn.delete(args.table, conds))


def cmd_update(engine, args, out):
    conds = _parse_where(args.where)
    assignments = _parse_json(args.set, "--set")
    if not isinstance(assignments, dict):
        raise SystemExit("--set must be a JSON object of column: value")
    _run_write(engine, args, out,
               lambda txn: txn.update(args.table, assignments, conds))


def cmd_scan(engine, args, out):
    conds = _parse_where(args.where)
    columns = args.columns.split(",") if args.columns else None
    aggregate = None
    if args.sum:
        aggregate = ("sum", args.sum)
    elif args.count:
        aggregate = "count"
    as_of = _parse_point(args.as_of) if args.as_of else None

    if args.session:
        txn = _attach(engine, args.root, args.session)
        result = txn.scan(args.table, columns, conds, aggregate, as_of)
        _save_session(args.root, args.session, txn)
    else:
        txn = engine.begin_transaction("si")
        try:
            result = txn.scan(args.table, columns, conds, aggregate, as_of)
        finally:
            txn.abort()
    if aggregate is not None:
        out.emit({"value": result}, str(result))
    else:
        out.rows(sorted(result))


def cmd_begin(engine, args, out):
    if os.path.exists(_session_path(args.root, args.session)):
        raise SystemExit(f"session {args.session!r} already open")
    txn = engine.begin_transaction(args.isolation, args.granularity, durable=True)
    _save_session(args.root, args.session, txn)
    out.emit({"session": args.session, "txn_id": txn.txn_id},
             f"began txn {txn.txn_id} as session {args.session}")


def cmd_commit(engine, args, out):
    txn = _attach(engine, args.root, args.session)
    try:
        outcome = txn.commit()
    except RetryableError:
        _drop_session(args.root, args.session)  # conflict rolls the txn back
        raise
    _drop_session(args.root, args.session)
    out.emit(
        {"version": outcome.version, "read_only": outcome.read_only,
         "sequences": {str(k): v for k, v in outcome.sequences.items()}},
        f"committed at version {outcome.version}"
        + (f", sequences {outcome.sequences}" if outcome.sequences else ""),
    )


def cmd_abort(engine, args, out):
    txn = _attach(engine, args.root, args.session)
    txn.abort()
    _drop_session(args.root, args.session)
    out.emit({"aborted": args.session}, f"aborted session {args.session}")


def cmd_clone(engine, args, out):
    as_of = _parse_point(args.as_of) if args.as_of else None
    tdef = engine.clone_table(args.source, args.dest, as_of=as_of)
    out.emit({"table_id": tdef.table_id, "name": tdef.name},
             f"cloned {args.source} to {tdef.name} (id {tdef.table_id})")


def cmd_compact(engine, args, out):
    report = engine.maintenance.compact(args.table, force=args.force)
    if report is None:
        out.emit({"compacted": False}, "nothing to compact")
    else:
        out.emit(
            {"compacted": True, "removed": len(report.removed_files),
             "added": len(report.added_files), "rows": report.rows_rewritten,
             "sequence": report.sequence},
            f"rewrote {len(report.removed_files)} file(s) into "
            f"{len(report.added_files)} ({report.rows_rewritten} rows) "
            f"at sequence {report.sequence}",
        )


def cmd_checkpoint(engine, args, out):
    path = engine.maintenance.checkpoint(args.table)
    if path is None:
        out.emit({"checkpointed": False}, "already checkpointed")
    else:
        out.emit({"checkpointed": True, "path": path}, f"checkpoint at {path}")


def cmd_publish(engine, args, out):
    written = engine.maintenance.publish(args.table)
    out.emit({"published": written},
             "\n".join(written) if written else "log already current")


def cmd_gc(engine, args, out):
    report = engine.maintenance.garbage_collect(
        retention_seconds=args.retention,
        extra_live_begins=_session_begins(args.root),
    )
    doc = {
        "deleted": len(report.deleted),
        "swept_staged": len(report.swept_staged),
        "pruned_manifest_rows": len(report.pruned_manifest_rows),
        "kept_active": report.kept_active,
        "kept_recent": report.kept_recent,
    }
    out.emit(doc, f"deleted {doc['deleted']} object(s), "
                  f"swept {doc['swept_staged']} staged, "
                  f"pruned {doc['pruned_manifest_rows']} manifest row(s), "
                  f"kept {doc['kept_active']} active / {doc['kept_recent']} recent")


def cmd_health(engine, args, out):
    h = engine.maintenance.health(args.table)
    doc = {
        "table_id": h.table_id, "name": h.name, "live_files": h.live_files,
        "small_files": h.small_files, "total_rows": h.total_rows,
        "visible_rows": h.visible_rows, "deleted_fraction": round(h.deleted_fraction, 6),
        "last_sequence": h.last_sequence, "checkpoint_upto": h.checkpoint_upto,
        "manifests_since_checkpoint": h.manifests_since_checkpoint,
        "needs_compaction": h.needs_compaction, "needs_checkpoint": h.needs_checkpoint,
    }
    human = "\n".join(f"{k}: {v}" for k, v in doc.items())
    out.emit(doc, human)


def cmd_export_catalog(engine, args, out):
    payload = engine.catalog.export_snapshot()
    try:
        with open(args.file, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise SystemExit(f"cannot write {args.file}: {exc}") from None
    out.emit({"exported": args.file}, f"exported catalog to {args.file}")


def cmd_import_catalog(engine, args, out):
    try:
        with open(args.file, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}") from None
    engine.catalog.import_snapshot(payload)
    out.emit({"imported": args.file}, f"imported catalog from {args.file}")


# ---------------------------------------------------------------------------
# golden walkthrough

def golden_walkthrough(engine: Engine) -> dict:
    """Scripted four-transaction scenario over one table.

    X1 inserts three rows (sequence 1). X3 begins. X2 inserts two rows and
    deletes one of X1's (sequence 2). X3 reads its snapshot (sum 6), deletes a
    row X2's commit already covered, and fails first-committer-wins with a
    full rollback. X4 then reads 14. Insert-only X1 carries no conflict keys.
    """
    t = engine.create_table("fig6", [("c1", "utf8"), ("c2", "int64")])
    steps = []

    x1 = engine.begin_transaction("si", granularity="file")
    x1.insert(t, [("A", 1), ("B", 2), ("C", 3)])
    o1 = x1.commit()
    steps.append(("X1 insert A,B,C", f"sequence {o1.sequences[t.table_id]}"))

    x3 = engine.begin_transaction("si", granularity="file")

    x2 = engine.begin_transaction("si", granularity="file")
    x2.insert(t, [("D", 4), ("E", 5)])
    x2.delete(t, [("c1", "=", "A")])
    o2 = x2.commit()
    steps.append(("X2 insert D,E + delete A", f"sequence {o2.sequences[t.table_id]}"))

    sum_snapshot = x3.scan(t, aggregate=("sum", "c2"))
    steps.append(("X3 sum(c2) on its snapshot", str(sum_snapshot)))
    x3.delete(t, [("c1", "=", "B")])
    conflicted = False
    try:
        x3.commit()
    except RetryableError as exc:
        conflicted = True
        steps.append(("X3 commit", f"rolled back: {exc}"))

    x4 = engine.begin_transaction("si")
    sum_final = x4.scan(t, aggregate=("sum", "c2"))
    x4.commit()
    steps.append(("X4 sum(c2)", str(sum_final)))

    return {
        "steps": steps,
        "sum_snapshot": sum_snapshot,
        "conflicted": conflicted,
        "sum_final": sum_final,
        "sequences": [o1.sequences[t.table_id], o2.sequences[t.table_id]],
    }


def cmd_replay_figure6(engine, args, out):
    # The walkthrough's canonical numbers (sequences 1 and 2) assume a fresh
    # store, and a demo verb must be repeatable without leaving tables behind,
    # so it runs in a scratch store; the target root is never touched.
    with tempfile.TemporaryDirectory(prefix="lstx-fig6-") as scratch:
        with Engine(scratch) as fresh:
            result = golden_walkthrough(fresh)
    ok = (
        result["sum_snapshot"] == 6
        and result["conflicted"]
        and result["sum_final"] == 14
        and result["sequences"] == [1, 2]
    )
    if out.porcelain:
        doc = dict(result)
        doc["steps"] = [list(s) for s in doc["steps"]]
        doc["ok"] = ok
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for step, detail in result["steps"]:
            print(f"{step}: {detail}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# scripted workloads

def _workload_config(doc) -> EngineConfig:
    cfg = EngineConfig()
    for key, value in (doc.get("config") or {}).items():
        if not hasattr(cfg, key):
            raise SystemExit(f"unknown config knob: {key}")
        setattr(cfg, key, value)
    return cfg


def run_workload(engine: Engine, doc: dict, out: Out) -> int:
    """Execute a scripted interleaving: named sessions, steps in file order.

    Single-threaded on purpose: the step order IS the schedule, so a scenario
    replays identically every run. Conflicts roll the session back and are
    reported as step results, not process failures.
    """
    tables = {}
    for spec in doc.get("tables") or ():
        cols = spec["columns"]
        if isinstance(cols, str):  # same compact form create-table accepts
            cols = _parse_columns(cols)
        elif not all(isinstance(c, (list, tuple)) and len(c) == 2 for c in cols):
            raise SystemExit(
                f"table {spec['name']!r}: columns must be 'name:type,...' "
                "or a list of [name, type] pairs")
        tdef = engine.create_table(
            spec["name"],
            [tuple(c) for c in cols],
            distribution_count=spec.get("distribution_count", 1),
            partition_key=spec.get("partition_key"),
            distribution_key=spec.get("distribution_key"),
        )
        tables[tdef.name] = tdef

    sessions = {}
    session_specs = doc.get("sessions") or {}
    transcript = []

    def session(name):
        if name not in sessions:
            spec = session_specs.get(name) or {}
            sessions[name] = engine.begin_transaction(
                spec.get("isolation", "si"), spec.get("granularity", TABLE)
            )
        return sessions[name]

    def conds(step):
        where = step.get("where")
        if where is None:
            return ()
        if isinstance(where, str):  # same compact form the --where flag accepts
            return _parse_where([where])
        if not all(isinstance(c, (list, tuple)) and len(c) == 3 for c in where):
            raise SystemExit(
                "where must be 'col<op>value,...' or a list of "
                "[column, operator, value] triples")
        return [tuple(c) for c in where]

    for i, step in enumerate(doc.get("steps") or (), start=1):
        op = step["op"]
        name = step.get("session", "main")
        try:
            if op == "insert":
                result = session(name).insert(step["table"], [tuple(r) for r in step["rows"]])
            elif op == "delete":
                result = session(name).delete(step["table"], conds(step))
            elif op == "update":
                result = session(name).update(step["table"], step["set"], conds(step))
            elif op == "scan":
                aggregate = ("sum", step["sum"]) if "sum" in step else (
                    "count" if step.get("count") else None)
                rows = session(name).scan(step["table"], step.get("columns"),
                                          conds(step),
                                          aggregate, step.get("as_of"))
                result = rows if aggregate is not None else sorted(rows)
            elif op == "commit":
                outcome = sessions.pop(name).commit()
                result = {"version": outcome.version,
                          "sequences": {str(k): v for k, v in outcome.sequences.items()}}
            elif op == "abort":
                sessions.pop(name).abort()
                result = "aborted"
            elif op == "compact":
                report = engine.maintenance.compact(step["table"],
                                                    force=step.get("force", False))
                result = None if report is None else {
                    "removed": len(report.removed_files),
                    "added": len(report.added_files)}
            elif op == "checkpoint":
                result = engine.maintenance.checkpoint(step["table"])
            elif op == "publish":
                result = engine.maintenance.publish(step["table"])
            elif op == "gc":
                report = engine.maintenance.garbage_collect(
                    retention_seconds=step.get("retention"))
                result = {"deleted": len(report.deleted)}
            elif op == "clone":
                tdef = engine.clone_table(step["source"], step["dest"],
                                          as_of=step.get("as_of"))
                result = {"table_id": tdef.table_id}
            else:
                raise SystemExit(f"step {i}: unknown op {op!r}")
            entry = {"step": i, "session": name, "op": op, "result": result}
        except RetryableError as exc:
            sessions.pop(name, None)
            entry = {"step": i, "session": name, "op": op, "conflict": str(exc)}
        transcript.append(entry)
        if out.porcelain:
            print(json.dumps(entry, sort_keys=True, separators=(",", ":")))
        else:
            tail = f"conflict: {entry['conflict']}" if "conflict" in entry else f"-> {entry['result']}"
            print(f"[{i}] {name} {op} {tail}")

    for name in list(sessions):
        sessions.pop(name).abort()

    def plain(v):
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v

    failures = []
    for expect in doc.get("expect") or ():
        entry = transcript[expect["step"] - 1]
        for field, wanted in expect.items():
            if field == "step":
                continue
            got = entry.get(field)
            if field == "conflict":
                got = "conflict" in entry
            if plain(got) != plain(wanted):
                failures.append(f"step {expect['step']}: {field} = {got!r}, wanted {wanted!r}")
    for line in failures:
        print(f"EXPECT FAILED: {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_workload(engine, args, out):
    # engine is rebuilt with the scenario's config knobs
    import yaml

    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}") from None
    except yaml.YAMLError as exc:
        raise SystemExit(f"bad scenario file {args.file}: {exc}") from None
    if not isinstance(doc, dict):
        raise SystemExit(f"bad scenario file {args.file}: top level must be a mapping")
    engine.close()
    engine = Engine(args.root, config=_workload_config(doc))
    try:
        return run_workload(engine, doc, out)
    finally:
        engine.close()


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lstx",
        description="transactional log-structured table engine",
    )
    parser.add_argument("--root", required=True, help="storage root directory")
    parser.add_argument("--porcelain", action="store_true",
                        help="machine-readable JSON output")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("init", help="create an empty storage root")

    p = sub.add_parser("create-table", help="define a table")
    p.add_argument("name")
    p.add_argument("--columns", required=True,
                   help="comma list of name:type (int64,float64,utf8,bool)")
    p.add_argument("--distribution-count", type=int, default=1)
    p.add_argument("--partition-key")
    p.add_argument("--distribution-key")

    p = sub.add_parser("drop-table", help="drop a table")
    p.add_argument("table")

    p = sub.add_parser("insert", help="insert rows")
    p.add_argument("table")
    p.add_argument("--rows", required=True, help="JSON array of row arrays")
    p.add_argument("--session")

    p = sub.add_parser("delete", help="delete rows matching --where")
    p.add_argument("table")
    p.add_argument("--where", action="append", required=True,
                   help="condition col<op>value; repeatable (AND)")
    p.add_argument("--session")

    p = sub.add_parser("update", help="rewrite rows matching --where")
    p.add_argument("table")
    p.add_argument("--set", required=True, help="JSON object of column: value")
    p.add_argument("--where", action="append", required=True)
    p.add_argument("--session")

    p = sub.add_parser("scan", help="read rows or an aggregate")
    p.add_argument("table")
    p.add_argument("--columns", help="comma list of output columns")
    p.add_argument("--where", action="append")
    p.add_argument("--sum", help="sum this column instead of returning rows")
    p.add_argument("--count", action="store_true")
    p.add_argument("--as-of", help="sequence number or wall timestamp")
    p.add_argument("--session")

    p = sub.add_parser("begin", help="open a named multi-statement session")
    p.add_argument("--session", required=True)
    p.add_argument("--isolation", default="si",
                   choices=[i.value for i in Isolation])
    p.add_argument("--granularity", default="table", choices=["table", "file"])

    p = sub.add_parser("commit", help="commit a named session")
    p.add_argument("--session", required=True)

    p = sub.add_parser("abort", help="abort a named session")
    p.add_argument("--session", required=True)

    p = sub.add_parser("clone", help="zero-copy clone a table")
    p.add_argument("source")
    p.add_argument("dest")
    p.add_argument("--as-of")

    p = sub.add_parser("compact", help="rewrite small / delete-heavy files")
    p.add_argument("table")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("checkpoint", help="materialize the current state")
    p.add_argument("table")

    p = sub.add_parser("publish", help="mirror manifests to the public log")
    p.add_argument("table")

    p = sub.add_parser("gc", help="collect unreachable objects")
    p.add_argument("--retention", type=float,
                   help="override the retention window (seconds)")

    p = sub.add_parser("health", help="table maintenance statistics")
    p.add_argument("table")

    sub.add_parser("replay-figure6",
                   help="run the scripted conflict walkthrough and verify it")

    p = sub.add_parser("workload", help="run a scripted YAML scenario")
    p.add_argument("file")

    p = sub.add_parser("export-catalog", help="dump catalog rows to a file")
    p.add_argument("file")

    p = sub.add_parser("import-catalog", help="load catalog rows into an empty root")
    p.add_argument("file")

    return parser


_HANDLERS = {
    "init": cmd_init,
    "create-table": cmd_create_table,
    "drop-table": cmd_drop_table,
    "insert": cmd_insert,
    "delete": cmd_delete,
    "update": cmd_update,
    "scan": cmd_scan,
    "begin": cmd_begin,
    "commit": cmd_commit,
    "abort": cmd_abort,
    "clone": cmd_clone,
    "compact": cmd_compact,
    "checkpoint": cmd_checkpoint,
    "publish": cmd_publish,
    "gc": cmd_gc,
    "health": cmd_health,
    "replay-figure6": cmd_replay_figure6,
    "workload": cmd_workload,
    "export-catalog": cmd_export_catalog,
    "import-catalog": cmd_import_catalog,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Out(args.porcelain)
    engine = Engine(args.root)
    try:
        code = _HANDLERS[args.verb](engine, args, out)
        return 0 if code is None else code
    except RetryableError as exc:
        print(f"conflict: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        engine.close()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
