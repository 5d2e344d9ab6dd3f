"""The benchmark's workloads and the model each checks the engine against.

Every workload builds its starting tables once per set-up (``build``), then
runs identical rounds, each on a fresh copy of those tables (``round``). A
round is a fixed, seeded list of operations, so every round does the same
work and count-type layer figures repeat exactly. One thread drives the
engine; where a workload needs concurrency (``oltp``), it interleaves several
open transactions in a seeded order instead of racing threads.

The benchmark keeps its own model of every table, updates it only after a
commit succeeds, and compares every answer the engine gives with it. Any
difference raises ``Mismatch``.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import time
from collections import Counter, defaultdict, deque

from layers import meter_store
from lstx import Engine, EngineConfig, RetryableError
from lstx.catalog import MANIFESTS

JOURNAL = "catalog.journal"


class Mismatch(Exception):
    """The engine's answer differs from the benchmark's model."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def user_bytes(row) -> int:
    """8 per int64 or float64, 1 per bool, the UTF-8 length of each string."""
    n = 0
    for v in row:
        if type(v) is bool:
            n += 1
        elif type(v) is str:
            n += len(v.encode("utf-8"))
        else:
            n += 8
    return n


def disk_bytes(root: str) -> int:
    return sum(
        os.lstat(os.path.join(dirpath, name)).st_size
        for dirpath, _, names in os.walk(root)
        for name in names
    )


def restore(template: str, root: str) -> None:
    """Copy a storage root. Objects are write-once and replaced only by
    rename, so they are hard-linked; the journal is appended to in place, so
    it is copied."""
    for dirpath, _, names in os.walk(template):
        dest = os.path.join(root, os.path.relpath(dirpath, template))
        os.makedirs(dest, exist_ok=True)
        for name in names:
            src = os.path.join(dirpath, name)
            if name == JOURNAL:
                shutil.copyfile(src, os.path.join(dest, name))
            else:
                os.link(src, os.path.join(dest, name))


class Recorder:
    """What one run measured, summed over its rounds."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)  # operation class -> seconds
        self.attempted = 0
        self.rows_written = 0  # rows changed by committed write transactions
        self.write_seconds = 0.0  # time spent in those transactions
        self.user_bytes_written = 0
        self.stored = Counter()  # bytes written to the object store, by call kind (meter_store)
        self.journal_bytes = 0
        self.space = []  # (bytes under the root, user bytes of live rows) per round
        self.trace_len = 0  # longest DcpSimulator.trace an engine held at close
        self.live_files = []  # main table's live files before each maintenance cycle

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


class Round:
    """One engine at a time over one restored root, plus the timed operations
    and oracle checks the workloads share."""

    def __init__(self, workload, rec: Recorder, root: str):
        self.config = workload.config
        self.rec = rec
        self.root = root
        self.eng = None
        self.last_seq = 0  # highest manifest sequence committed in this round
        self.cut = None  # the next GC ages out every commit up to this sequence
        self.open(timed=False)

    # engine lifecycle ---------------------------------------------------

    def open(self, timed: bool = True) -> None:
        t0 = time.perf_counter()
        eng = Engine(self.root, config=self.config)
        if timed:
            self.rec.attempted += 1
            self.rec.samples["open"].append(time.perf_counter() - t0)
        meter_store(eng.store, self.rec.stored)
        self._journal_at_open = os.path.getsize(os.path.join(self.root, JOURNAL))
        self.eng = eng

    def close(self) -> None:
        eng, self.eng = self.eng, None
        if eng is None:
            return
        self.rec.trace_len = max(self.rec.trace_len, len(eng.dcp.trace))
        eng.close()
        grown = os.path.getsize(os.path.join(self.root, JOURNAL)) - self._journal_at_open
        self.rec.journal_bytes += grown

    def finish(self, live_rows) -> None:
        self.close()
        self.rec.space.append((disk_bytes(self.root), sum(user_bytes(r) for r in live_rows)))

    # timed operations ---------------------------------------------------

    def read(self, kind: str, table, **scan):
        """One read-only transaction around one scan, timed as ``kind``."""
        self.rec.attempted += 1
        t0 = time.perf_counter()
        x = self.eng.begin_transaction("si")
        value = x.scan(table, **scan)
        x.commit()
        self.rec.samples[kind].append(time.perf_counter() - t0)
        return value

    def write(self, body, rows: int, nbytes: int):
        """One timed file-granularity write transaction: ``body(txn)`` runs its
        statements and returns the rows they changed, which must be ``rows``,
        the model's count. ``nbytes`` is the user bytes it writes."""
        self.rec.attempted += 1
        t0 = time.perf_counter()
        x = self.eng.begin_transaction("si", granularity="file")
        changed = body(x)
        outcome = x.commit()
        self.wrote(time.perf_counter() - t0, rows, nbytes, outcome)
        expect(changed == rows, f"a write changed {changed} rows, model {rows}")
        return outcome

    def wrote(self, seconds: float, rows: int, nbytes: int, outcome) -> None:
        """Account one committed write transaction."""
        self.rec.samples["txn"].append(seconds)
        self.rec.user_bytes_written += nbytes
        self.rec.rows_written += rows
        self.rec.write_seconds += seconds
        self.last_seq = max([self.last_seq, *outcome.sequences.values()])

    def maintain(self, tables) -> None:
        """One maintenance cycle (compact, checkpoint, publish, GC) over
        ``tables``, a list of (table, model rows as a Counter); the first is the
        workload's main table. Only the four jobs are timed."""
        eng, rec = self.eng, self.rec
        rec.attempted += 1
        with rec.untraced():
            rec.live_files.append(eng.maintenance.health(tables[0][0]).live_files)
        spent = 0.0
        for table, rows in tables:
            t0 = time.perf_counter()
            report = eng.maintenance.compact(table)
            spent += time.perf_counter() - t0
            if report is not None:
                self.last_seq = max(self.last_seq, report.sequence)
            self.check_rows(table, rows, "compaction")
        cut = self.last_seq
        for table, _ in tables:
            t0 = time.perf_counter()
            eng.maintenance.checkpoint(table)
            spent += time.perf_counter() - t0
        for table, _ in tables:
            t0 = time.perf_counter()
            eng.maintenance.publish(table)
            spent += time.perf_counter() - t0
            self.check_published(table)
        now = self.gc_now()
        t0 = time.perf_counter()
        eng.maintenance.garbage_collect(now=now)
        spent += time.perf_counter() - t0
        self.cut = cut
        for table, rows in tables:
            self.check_rows(table, rows, "garbage collection")
        rec.samples["maint"].append(spent)

    def gc_now(self) -> float:
        """A GC clock that ages out exactly the commits up to ``self.cut`` (the
        last commit before the previous cycle's checkpoints; none in the first
        cycle), halfway between two recorded commit wallclocks."""
        eng = self.eng
        with self.rec.untraced():
            ctx = eng.catalog.begin("si")
            try:
                rows = eng.catalog.read(ctx, MANIFESTS, record=False)
            finally:
                eng.catalog.abort(ctx)
        clock = sorted((r.sequence_id, r.commit_wallclock) for r in rows)
        retention = self.config.retention_seconds
        older = [wc for seq, wc in clock if self.cut is not None and seq <= self.cut]
        newer = [wc for seq, wc in clock if self.cut is None or seq > self.cut]
        if not older:
            return newer[0] + retention - 1.0
        if not newer:
            return older[-1] + retention + 1.0
        return retention + (older[-1] + newer[0]) / 2

    def reopen_cold(self, table, aggregate, expected) -> None:
        """Close, time a fresh ``Engine``, then time its first full scan."""
        self.close()
        self.open()
        got = self.read("scan_cold", table, aggregate=aggregate)
        expect(got == expected, f"{table.name}: cold {aggregate} {got} != model {expected}")

    # oracle checks (untimed, untraced) -----------------------------------

    def check_rows(self, table, rows: Counter, after: str) -> None:
        with self.rec.untraced():
            x = self.eng.begin_transaction("si")
            got = Counter(x.scan(table))
            x.commit()
        expect(got == rows, f"{table.name}: live rows after {after} differ from the model")

    def check_published(self, table) -> None:
        eng = self.eng
        with self.rec.untraced():
            published = eng.maintenance.published_state(table.table_id)
            ctx = eng.catalog.begin("si")
            try:
                state = eng.snapshots.state(ctx, table.table_id, record=False)
            finally:
                eng.catalog.abort(ctx)
        expect(published == state, f"{table.name}: published log state != snapshot state")


def _drive(gen):
    """Run a transfer attempt to its end without yielding to other sessions."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


class Workload:
    name = ""
    config = EngineConfig()

    def build(self, root: str) -> None:
        """Create the starting tables under ``root`` (timed as set-up)."""
        raise NotImplementedError

    def round(self, rec: Recorder, root: str) -> None:
        """Run one round against a fresh copy of the starting tables."""
        r = Round(self, rec, root)
        try:
            self.run(r)
        finally:
            r.close()

    def run(self, r: Round) -> None:
        raise NotImplementedError


class Oltp(Workload):
    """Transfers between accounts by four interleaved sessions, one of them
    SERIALIZABLE, at file granularity, plus a history row per transfer."""

    name = "oltp"
    ACCOUNTS = 2048
    FILE_ROWS = 32  # accounts per starting file, contiguous in k
    HOT, HOT_SHARE = 256, 0.5  # half of the accounts picked come from a hot set
    # chance that the session that ran the last statement also runs the next;
    # it sets how much transactions overlap, hence the share retried (~1/5)
    STICK = 0.75
    PHASES = 3  # each ends with scans, one maintenance cycle and a reopen
    TRANSFERS = 50  # per phase
    ISOLATIONS = ("si", "si", "si", "serializable")
    # as-of reads at fixed positions in each phase's commits, so their cost
    # does not depend on the seed
    ASOF = (TRANSFERS // 4, TRANSFERS // 2, 3 * TRANSFERS // 4)
    config = EngineConfig(min_rows_per_file=FILE_ROWS, compaction_target_rows=FILE_ROWS)

    def __init__(self, seed: int):
        rng = random.Random(f"oltp/{seed}")
        self.balances = {k: rng.randrange(1000, 10000) for k in range(self.ACCOUNTS)}
        hot = rng.sample(range(self.ACCOUNTS), self.HOT)

        def pick():
            return rng.choice(hot) if rng.random() < self.HOT_SHARE else rng.randrange(self.ACCOUNTS)

        self.phases = []
        for p in range(self.PHASES):
            transfers = []
            for i in range(self.TRANSFERS):
                a, b = pick(), pick()
                while b == a:
                    b = pick()
                transfers.append((p * self.TRANSFERS + i, a, b, rng.randrange(1, 100)))
            self.phases.append({
                "transfers": transfers,
                "schedule": rng.getrandbits(64),
                "points": [rng.randrange(self.ACCOUNTS) for _ in range(4)],
            })

    def build(self, root: str) -> None:
        with Engine(root, config=self.config) as eng:
            acc = eng.create_table("accounts", [("k", "int64"), ("bal", "int64")])
            eng.create_table("history", [("id", "int64"), ("src", "int64"),
                                         ("dst", "int64"), ("amt", "int64")])
            x = eng.begin_transaction("si", granularity="file")
            rows = sorted(self.balances.items())
            for i in range(0, len(rows), self.FILE_ROWS):
                x.insert(acc, rows[i : i + self.FILE_ROWS])
            x.commit()

    def run(self, r: Round) -> None:
        acc, hist = r.eng.table("accounts"), r.eng.table("history")
        bal = dict(self.balances)
        total = sum(bal.values())
        history = []
        amt_at = {}  # history sequence -> sum of amounts committed up to it
        for phase in self.phases:
            seqs = self._transfers(r, acc, hist, phase, bal, history, amt_at)
            # the first scan after the transfers fills the caches; the next
            # two are the warm samples
            for kind in ("warmup", "scan", "scan"):
                got = r.read(kind, acc, aggregate=("sum", "bal"))
                expect(got == total, f"total balance {got} != {total}")
            for k in phase["points"]:
                got = r.read("point", acc, predicate=[("k", "=", k)])
                expect(got == [(k, bal[k])], f"account {k}: {got} != {bal[k]}")
            for i in self.ASOF:
                seq = seqs[i]
                got = r.read("asof", hist, aggregate=("sum", "amt"), as_of=seq)
                expect(got == amt_at[seq], f"history as of {seq}: {got} != {amt_at[seq]}")
            with r.rec.untraced():
                x = r.eng.begin_transaction("si")
                count = x.scan(hist, aggregate="count")
                x.commit()
            expect(count == len(history), f"{count} history rows, {len(history)} transfers")
            r.maintain([(acc, Counter(bal.items())), (hist, Counter(history))])
            r.reopen_cold(acc, ("sum", "bal"), total)
        r.finish(list(bal.items()) + history)

    def _transfers(self, r, acc, hist, phase, bal, history, amt_at) -> list:
        """Run one phase's transfers, interleaving the sessions statement by
        statement in a seeded order. A transfer that loses first-committer-wins
        or SERIALIZABLE validation is retried at once with no other session
        running, which guarantees that the retry commits. Returns the history
        sequences in commit order."""
        rng = random.Random(phase["schedule"])
        pending = deque(phase["transfers"])
        active = [None] * len(self.ISOLATIONS)  # (job, attempt, busy clock)
        seqs = []
        i = None
        while pending or any(active):
            if i is None or active[i] is None or rng.random() >= self.STICK:
                i = rng.choice([j for j, a in enumerate(active) if a or pending])
            if active[i] is None:
                r.rec.attempted += 1
                job, clock = pending.popleft(), [0.0]
                active[i] = (job, self._attempt(r, acc, hist, self.ISOLATIONS[i], job, bal, clock), clock)
            job, attempt, clock = active[i]
            try:
                next(attempt)
                continue
            except StopIteration as stop:
                outcome = stop.value
            except RetryableError:
                try:
                    outcome = _drive(self._attempt(r, acc, hist, self.ISOLATIONS[i], job, bal, clock))
                except RetryableError as exc:
                    raise Mismatch(f"transfer {job[0]} conflicted with no concurrent commit: {exc}")
            active[i] = None
            tid, a, b, amt = job
            bal[a] -= amt
            bal[b] += amt
            history.append((tid, a, b, amt))
            seq = outcome.sequences[hist.table_id]
            amt_at[seq] = sum(h[3] for h in history)
            seqs.append(seq)
            r.wrote(clock[0], rows=3, nbytes=16 + 16 + 32, outcome=outcome)
        return seqs

    @staticmethod
    def _attempt(r, acc, hist, isolation, job, bal, clock):
        """One attempt of a transfer; yields between statements. Adds the time
        spent in its own engine calls to ``clock[0]``."""
        tid, a, b, amt = job
        t0 = time.perf_counter()
        x = r.eng.begin_transaction(isolation, granularity="file")
        got_a = x.scan(acc, predicate=[("k", "=", a)])
        clock[0] += time.perf_counter() - t0
        want = (bal[a], bal[b])  # the committed state this snapshot sees
        expect(got_a == [(a, want[0])], f"transfer {tid}: read {got_a}, model {want[0]}")
        yield
        t0 = time.perf_counter()
        got_b = x.scan(acc, predicate=[("k", "=", b)])
        clock[0] += time.perf_counter() - t0
        expect(got_b == [(b, want[1])], f"transfer {tid}: read {got_b}, model {want[1]}")
        yield
        for k, new in ((a, want[0] - amt), (b, want[1] + amt)):
            t0 = time.perf_counter()
            n = x.update(acc, {"bal": new}, [("k", "=", k)])
            clock[0] += time.perf_counter() - t0
            expect(n == 1, f"transfer {tid}: update of account {k} matched {n} rows")
            yield
        t0 = time.perf_counter()
        x.insert(hist, [(tid, a, b, amt)])
        clock[0] += time.perf_counter() - t0
        yield
        t0 = time.perf_counter()
        try:
            return x.commit()
        finally:
            clock[0] += time.perf_counter() - t0


class Scan(Workload):
    """Aggregate, filtered, projected, point and as-of scans over a fact table
    trickle-loaded into more files than the engine's 512-entry row and
    delete-vector caches hold, beside a light trickle of inserts and deletes."""

    name = "scan"
    LOADS, STMTS, ROWS, BUCKETS = 16, 8, 120, 16  # 2,048 starting files
    TRICKLE = 24  # write transactions per round, each inserting 8 rows and deleting 1
    SLICES = 6  # the round's writes and reads alternate in this many slices
    REOPENS = 3  # reopen + cold scan pairs per round
    # as-of reads after these loads; in descending order, each rebuilds its
    # state from the first manifest, and none leaves a starting statement
    # that a delete or point read uses in the row cache
    ASOF = (LOADS - 2, LOADS - 3, LOADS - 4)
    # Starting files hold 7.5 rows on average; a floor of 2 rows keeps
    # compaction from merging them, so the fragmentation survives maintenance.
    config = EngineConfig(min_rows_per_file=2)
    TAGS = tuple(f"tag-{i:02d}" for i in range(50))
    COLUMNS = [("id", "int64"), ("ts", "int64"), ("qty", "int64"),
               ("price", "float64"), ("tag", "utf8"), ("ok", "bool")]

    def __init__(self, seed: int):
        rng = random.Random(f"scan/{seed}")
        self.loads = []
        nid = 0
        for t in range(self.LOADS):
            stmts = []
            for s in range(self.STMTS):
                stmts.append([self._row(rng, nid + i, t * self.STMTS + s) for i in range(self.ROWS)])
                nid += self.ROWS
            self.loads.append(stmts)
        # Deletes and point reads each pick the middle row of a distinct
        # starting statement from the first half. No scan leaves those files
        # in the row cache, and min/max stats narrow the read to the
        # statement's 16 files, so every such read decodes all of them.
        def row_of(stmt):
            return stmt * self.ROWS + self.ROWS // 2

        self.trickle = [
            ([self._row(rng, 10**6 + 8 * j + i, 10**4 + j) for i in range(8)], row_of(j))
            for j in range(self.TRICKLE)
        ]
        self.points = [row_of(self.TRICKLE + i) for i in range(6)]
        self.qty_at = []  # sum of qty after each starting load
        qty = 0
        for stmts in self.loads:
            qty += sum(row[2] for rows in stmts for row in rows)
            self.qty_at.append(qty)
        self.load_seqs = None

    def _row(self, rng, rid: int, ts: int) -> tuple:
        return (rid, ts, rng.randrange(1, 1000), round(rng.uniform(1, 500), 2),
                rng.choice(self.TAGS), rng.random() < 0.3)

    def build(self, root: str) -> None:
        with Engine(root, config=self.config) as eng:
            fact = eng.create_table("fact", self.COLUMNS, distribution_count=self.BUCKETS,
                                    distribution_key=("id",))
            seqs = []
            for stmts in self.loads:
                x = eng.begin_transaction("si", granularity="file")
                for rows in stmts:
                    x.insert(fact, rows)
                seqs.append(x.commit().sequences[fact.table_id])
        self.load_seqs = seqs

    def run(self, r: Round) -> None:
        fact = r.eng.table("fact")
        model = {row[0]: row for stmts in self.loads for rows in stmts for row in rows}
        qty = sum(row[2] for row in model.values())
        # the first scan of the round is cold too; it also builds the snapshot
        # the trickle's first transaction would otherwise pay for
        got = r.read("scan_cold", fact, aggregate=("sum", "qty"))
        expect(got == qty, f"cold sum(qty) {got} != {qty}")
        # slices spread every operation class over the round's whole time
        per = self.TRICKLE // self.SLICES
        for s in range(self.SLICES):
            for rows, victim in self.trickle[s * per : (s + 1) * per]:
                r.write(lambda x: x.insert(fact, rows) + x.delete(fact, [("id", "=", victim)]),
                        rows=len(rows) + 1, nbytes=sum(user_bytes(row) for row in rows))
                model.update((row[0], row) for row in rows)
                del model[victim]
            rid = self.points[s]
            got = r.read("point", fact, predicate=[("id", "=", rid)])
            expect(got == [model[rid]], f"row {rid}: {got}")
            if s % 2:
                t = self.ASOF[s // 2]
                got = r.read("asof", fact, aggregate=("sum", "qty"), as_of=self.load_seqs[t])
                expect(got == self.qty_at[t], f"sum(qty) as of load {t}: {got} != {self.qty_at[t]}")
            elif s == 2:
                got = r.read("scan", fact, predicate=[("ok", "=", True)], aggregate="count")
                want = sum(1 for row in model.values() if row[5])
                expect(got == want, f"count(ok) {got} != {want}")
            else:
                got = r.read("scan", fact, aggregate=("sum", "qty"))
                want = sum(row[2] for row in model.values())
                expect(got == want, f"sum(qty) {got} != {want}")
        got = r.read("projected", fact, columns=["id", "qty"])
        expect(Counter(got) == Counter((row[0], row[2]) for row in model.values()),
               "projected scan differs from the model")
        qty = sum(row[2] for row in model.values())
        r.maintain([(fact, Counter(model.values()))])
        for _ in range(self.REOPENS):
            r.reopen_cold(fact, ("sum", "qty"), qty)
        r.finish(model.values())


WORKLOADS = {w.name: w for w in (Oltp, Scan)}
