"""lstx benchmark: one seeded workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-check [--seed 1]

Run from the root of a source checkout; the engine is imported from its
``src/`` directory and nowhere else. A run builds the workload's starting
tables several times, before and between its rounds (``setup_s`` is their
median), and repeats whole rounds on fresh copies of them until ``--seconds``
have passed. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` wraps
the engine's layers and reports per-layer figures per round instead. The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``. A wrong answer or an engine error fails the operation
and the exit code is 1.

``--self-check`` runs every workload twice for one round, traced, and exits 1
unless the count-type per-layer figures of the two runs are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")
# set-up repeats: SETUP_REPS before the first round, then more between
# rounds while the builds add up to under SETUP_SHARE of the time spent, up to
# SETUP_MAX_REPS. A set-up of a fifth of a second thus gets a median of some
# thirty builds spread over the whole run. A build waits on the engine's
# worker threads more than a hundred times, so on a shared host its time
# swings with thread wake-up latency from one second to the next; a median
# taken at one moment would swing with it.
SETUP_REPS, SETUP_MAX_REPS, SETUP_SHARE = 3, 60, 0.15
# count-type figures that are not expected to repeat: the journal and the
# published log documents carry commit wallclocks as JSON floats, whose
# printed length varies
VARYING = {"catalog.journal_bytes", "store.put.log_bytes"}


def import_engine() -> None:
    if not os.path.isfile(os.path.join(SRC, "lstx", "__init__.py")):
        sys.exit(f"perfbench: no engine source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import lstx

    if os.path.dirname(os.path.abspath(lstx.__file__)) != os.path.join(SRC, "lstx"):
        sys.exit(f"perfbench: imported lstx from {lstx.__file__}, not from {SRC}")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import Tracer
    from lstx import EngineError
    from workloads import WORKLOADS, Mismatch, Recorder, restore

    workload = WORKLOADS[name](seed)
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    rec = Recorder(tracer)
    setups, rounds, failed = [], 0, 0
    template = None

    def build():
        """Replace the starting tables with a fresh, timed, untraced build."""
        nonlocal template
        if template is not None:
            shutil.rmtree(template)
        template = os.path.join(work, f"template{len(setups)}")
        with rec.untraced():
            t0 = time.perf_counter()
            workload.build(template)
            setups.append(time.perf_counter() - t0)

    try:
        start = time.perf_counter()
        for _ in range(SETUP_REPS):
            build()
        if tracer is not None:
            tracer.install()
        root = os.path.join(work, "round")
        deadline = time.perf_counter() + seconds
        while True:
            restore(template, root)
            workload.round(rec, root)
            shutil.rmtree(root)
            rounds += 1
            now = time.perf_counter()
            if now >= deadline:
                break
            while sum(setups) < SETUP_SHARE * (now - start) and len(setups) < SETUP_MAX_REPS:
                build()
    except (Mismatch, EngineError):
        failed = 1
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "rounds": rounds,
        "attempted": max(rec.attempted, 1),
        "failed": failed,
        "samples": {"setup": len(setups), **{k: len(v) for k, v in sorted(rec.samples.items())}},
        "end_to_end": end_to_end(rec, setups) if not failed else {},
        "per_layer": per_layer(tracer, rec, rounds) if tracer and not failed else {},
    }


def end_to_end(rec, setups) -> dict:
    s = rec.samples

    def p50_ms(kind):
        return statistics.median(s[kind]) * 1e3

    return {
        "setup_s": (statistics.median(setups), "s"),
        "txn_p50_ms": (p50_ms("txn"), "ms"),
        "txn_p95_ms": (statistics.quantiles(s["txn"], n=20, method="inclusive")[18] * 1e3, "ms"),
        "write_rows_per_s": (rec.rows_written / rec.write_seconds, "rows/s"),
        "scan_p50_ms": (p50_ms("scan"), "ms"),
        "scan_cold_p50_ms": (p50_ms("scan_cold"), "ms"),
        "point_p50_ms": (p50_ms("point"), "ms"),
        "asof_p50_ms": (p50_ms("asof"), "ms"),
        "maint_p50_ms": (p50_ms("maint"), "ms"),
        "open_p50_ms": (p50_ms("open"), "ms"),
        "write_amp": ((rec.stored.total() + rec.journal_bytes) / rec.user_bytes_written, "ratio"),
        "space_amp": (statistics.median(d / u for d, u in rec.space), "ratio"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, rec, rounds: int) -> dict:
    """Figures per round (rounds are identical), except the two maxima/means
    named in the README."""
    ms, n = tracer.ms, tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = (value / rounds, unit)

    # the bytes written come from meter_store, the rest from the tracer
    n = Counter(n)
    n.update({f"store.{kind}.bytes": b for kind, b in rec.stored.items()})
    for layer, extra in (
        ("catalog.commit", None),
        ("catalog.read", None),
        ("store.put", "bytes"),
        ("store.stage", "bytes"),
        ("store.commit_block_list", "bytes"),
        ("store.get", "bytes"),
        ("codec.encode", "rows"),
        ("codec.decode", "rows"),
        ("codec.dv", None),
        ("snapshot.state", None),
        ("dcp.run_tasks", None),
    ):
        put(f"{layer}.calls", n[f"{layer}.calls"], "count")
        if extra:
            put(f"{layer}.{extra}", n[f"{layer}.{extra}"], extra)
        put(f"{layer}.ms", ms[layer], "ms")
    put("store.put.log_bytes", n["store.put_log.bytes"], "bytes")
    put("catalog.ww_conflicts", n["catalog.ww_conflicts"], "count")
    put("catalog.serialization_failures", n["catalog.serialization_failures"], "count")
    put("catalog.journal_bytes", rec.journal_bytes, "bytes")
    put("catalog.open.ms", ms["catalog.open"], "ms")
    put("store.list.ms", ms["store.list"], "ms")
    put("store.delete.calls", n["store.delete.calls"], "count")
    put("snapshot.manifests_loaded", n["snapshot.manifests_loaded"], "count")
    put("snapshot.cache_hits", n["snapshot.cache_hits"], "count")
    put("dcp.tasks", n["dcp.tasks"], "count")
    out["dcp.trace_len"] = (rec.trace_len, "count")
    for verb in ("insert", "delete", "update", "scan", "commit"):
        put(f"engine.{verb}.ms", ms[f"engine.{verb}"], "ms")
    visits = n["engine.file_visit.calls"]
    out["engine.row_cache.miss_ratio"] = (n["codec.decode.calls"] / visits if visits else 0.0, "ratio")
    for job in ("compact", "checkpoint", "publish", "gc"):
        put(f"maint.{job}.ms", ms[f"maint.{job}"], "ms")
    put("maint.compact.rows_rewritten", n["maint.compact.rows_rewritten"], "rows")
    put("maint.gc.deleted", n["maint.gc.deleted"], "count")
    out["table.live_files"] = (statistics.mean(rec.live_files), "count")
    return out


def report(name: str, seed: int, trace: bool, result: dict) -> int:
    print(f"# {name} seed={seed} trace={int(trace)} rounds={result['rounds']} "
          f"samples={json.dumps(result['samples'], separators=(',', ':'))}")
    if result["end_to_end"]:
        print("# end-to-end " + " ".join(f"{k}={v:.6g}" for k, (v, _) in result["end_to_end"].items()))
    metrics = result["per_layer"] if trace else result["end_to_end"]
    ok = not result["failed"]
    print(json.dumps({
        "correct": ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


def self_check(seed: int) -> int:
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        first, second = (measure(name, seed, 0, True) for _ in range(2))
        if first["failed"] or second["failed"]:
            print(f"{name}: a self-check run failed")
            ok = False
            continue
        for metric, (value, unit) in first["per_layer"].items():
            if unit == "ms" or metric in VARYING:
                continue
            other = second["per_layer"][metric][0]
            if value != other:
                print(f"{name}: {metric} {value} != {other}")
                ok = False
        print(f"{name}: {len(first['per_layer'])} per-layer figures compared")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("oltp", "scan"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fix the string hash seed so set iteration order repeats run to run
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    import_engine()
    if args.self_check:
        return self_check(args.seed)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return report(args.workload, args.seed, bool(args.trace), result)


if __name__ == "__main__":
    sys.exit(main())
