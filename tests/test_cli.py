"""Command-line interface: verbs, exit codes, porcelain output, named
sessions spanning invocations, and scripted workloads."""

import json
import shutil

import pytest

from lstx.cli import main


@pytest.fixture
def cli(tmp_path, capsys):
    """Run the CLI in-process; returns (exit_code, parsed_json_lines)."""
    root = str(tmp_path / "store")

    def run(*argv, porcelain=True, root_override=None):
        args = ["--root", root_override or root]
        if porcelain:
            args.append("--porcelain")
        args.extend(str(a) for a in argv)
        code = main(args)
        captured = capsys.readouterr()
        if porcelain:
            docs = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        else:
            docs = captured.out
        return code, docs

    run.root = root
    return run


def seed_table(cli):
    assert cli("create-table", "t", "--columns", "k:int64,v:int64")[0] == 0
    assert cli("insert", "t", "--rows", "[[1,10],[2,20],[3,30]]")[0] == 0


# ---------------------------------------------------------------------------
# exit codes and output modes

def test_usage_errors_exit_2(cli, tmp_path):
    for argv in (
        ["--root", str(tmp_path / "x")],                      # missing verb
        ["--root", str(tmp_path / "x"), "no-such-verb"],
        ["--root", str(tmp_path / "x"), "scan", "--porcelain", "t"],  # flag after verb
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_engine_errors_exit_1(cli):
    code, _ = cli("scan", "missing")
    assert code == 1
    code, _ = cli("create-table", "t", "--columns", "k:int64")
    assert code == 0
    code, _ = cli("create-table", "t", "--columns", "k:int64")  # duplicate
    assert code == 1


def test_bad_arguments_raise_usage_messages(cli, tmp_path):
    seed_table(cli)
    with pytest.raises(SystemExit):
        cli("create-table", "u", "--columns", "missing-type")
    with pytest.raises(SystemExit):
        cli("insert", "t", "--rows", '{"not": "rows"}')
    with pytest.raises(SystemExit):
        cli("scan", "t", "--session", "never-opened")
    # malformed JSON and missing files fail with messages, not tracebacks
    with pytest.raises(SystemExit, match="--rows"):
        cli("insert", "t", "--rows", "[[1,2")
    with pytest.raises(SystemExit, match="--set"):
        cli("update", "t", "--set", "v=99", "--where", "k=1")
    with pytest.raises(SystemExit, match="cannot read"):
        cli("workload", str(tmp_path / "nope.yaml"))
    with pytest.raises(SystemExit, match="cannot read"):
        cli("import-catalog", str(tmp_path / "nope.bin"))
    bad_yaml = tmp_path / "bad-syntax.yaml"
    bad_yaml.write_text("steps: [unclosed\n")
    with pytest.raises(SystemExit, match="bad scenario file"):
        cli("workload", str(bad_yaml))


def test_porcelain_and_human_scan(cli):
    seed_table(cli)
    code, docs = cli("scan", "t")
    assert code == 0
    assert docs[-1] == {"rows": [[1, 10], [2, 20], [3, 30]]}
    code, text = cli("scan", "t", porcelain=False)
    assert code == 0
    assert "1\t10" in text


def test_scan_flags(cli):
    seed_table(cli)
    assert cli("scan", "t", "--sum", "v")[1][-1] == {"value": 60}
    assert cli("scan", "t", "--count")[1][-1] == {"value": 3}
    assert cli("scan", "t", "--where", "k>=2", "--columns", "v")[1][-1] == {
        "rows": [[20], [30]]
    }
    assert cli("delete", "t", "--where", "k=1")[0] == 0
    assert cli("scan", "t", "--sum", "v")[1][-1] == {"value": 50}
    assert cli("scan", "t", "--sum", "v", "--as-of", "1")[1][-1] == {"value": 60}


def test_update_verb(cli):
    seed_table(cli)
    code, docs = cli("update", "t", "--set", '{"v": 5}', "--where", "k<3")
    assert code == 0 and docs[-1]["count"] == 2
    assert cli("scan", "t", "--sum", "v")[1][-1] == {"value": 40}


# ---------------------------------------------------------------------------
# sessions across invocations

def test_session_spans_invocations(cli, tmp_path):
    seed_table(cli)
    assert cli("begin", "--session", "s1")[0] == 0
    assert cli("insert", "t", "--rows", "[[9,90]]", "--session", "s1")[0] == 0
    # session files from older versions also list orphans; they load unchanged
    spath = tmp_path / "store" / "sessions" / "s1.json"
    spath.write_text(json.dumps({**json.loads(spath.read_text()), "orphans": []}))

    # outside the session the insert is invisible
    assert cli("scan", "t", "--count")[1][-1] == {"value": 3}
    assert cli("scan", "t", "--count", "--session", "s1")[1][-1] == {"value": 4}

    code, docs = cli("commit", "--session", "s1")
    assert code == 0 and docs[-1]["read_only"] is False
    assert cli("scan", "t", "--count")[1][-1] == {"value": 4}
    with pytest.raises(SystemExit):
        cli("commit", "--session", "s1")  # session file removed on commit


def test_session_conflict_exits_3_and_drops_session(cli):
    seed_table(cli)
    assert cli("begin", "--session", "a")[0] == 0
    assert cli("begin", "--session", "b")[0] == 0
    assert cli("delete", "t", "--where", "k=1", "--session", "a")[0] == 0
    assert cli("delete", "t", "--where", "k=2", "--session", "b")[0] == 0
    assert cli("commit", "--session", "a")[0] == 0
    assert cli("commit", "--session", "b")[0] == 3  # first committer won
    with pytest.raises(SystemExit):
        cli("abort", "--session", "b")  # already gone
    # the winner's own delete took effect, not the loser's
    assert cli("scan", "t")[1][-1] == {"rows": [[2, 20], [3, 30]]}


def test_concurrent_sessions_get_distinct_txn_ids(cli):
    # Sessions opened by separate invocations must not share a transaction
    # id: ids name the pending manifest objects, so a collision makes the
    # sessions overwrite each other's uncommitted statements.
    assert cli("create-table", "t", "--columns", "k:int64,v:int64")[0] == 0
    assert cli("insert", "t", "--rows", "[[1,10]]")[0] == 0
    assert cli("insert", "t", "--rows", "[[2,20]]")[0] == 0  # second file
    code, docs = cli("begin", "--session", "a", "--granularity", "file")
    assert code == 0
    txn_a = docs[-1]["txn_id"]
    code, docs = cli("begin", "--session", "b", "--granularity", "file")
    assert code == 0
    txn_b = docs[-1]["txn_id"]
    assert txn_a != txn_b
    # disjoint target files: with distinct identities both commits land
    assert cli("delete", "t", "--where", "k=1", "--session", "a")[0] == 0
    assert cli("delete", "t", "--where", "k=2", "--session", "b")[0] == 0
    assert cli("commit", "--session", "a")[0] == 0
    assert cli("commit", "--session", "b")[0] == 0
    assert cli("scan", "t")[1][-1] == {"rows": []}


def test_abort_discards_session_writes(cli):
    seed_table(cli)
    assert cli("begin", "--session", "s")[0] == 0
    assert cli("insert", "t", "--rows", "[[9,90]]", "--session", "s")[0] == 0
    assert cli("abort", "--session", "s")[0] == 0
    assert cli("scan", "t", "--count")[1][-1] == {"value": 3}


def test_gc_spares_open_sessions(cli):
    seed_table(cli)
    assert cli("begin", "--session", "s")[0] == 0
    assert cli("insert", "t", "--rows", "[[9,90]]", "--session", "s")[0] == 0
    code, docs = cli("gc")
    assert code == 0 and docs[-1]["deleted"] == 0  # session work protected
    assert cli("abort", "--session", "s")[0] == 0
    code, docs = cli("gc")
    assert code == 0 and docs[-1]["deleted"] == 2  # now it is garbage
    assert cli("scan", "t", "--count")[1][-1] == {"value": 3}


# ---------------------------------------------------------------------------
# maintenance verbs

def test_maintenance_verbs(cli):
    seed_table(cli)
    for i in range(5):
        assert cli("insert", "t", "--rows", f"[[{10 + i},1]]")[0] == 0
    code, docs = cli("health", "t")
    assert code == 0 and docs[-1]["live_files"] == 6

    code, docs = cli("compact", "t", "--force")
    assert code == 0 and docs[-1]["compacted"] is True

    code, docs = cli("checkpoint", "t")
    assert code == 0 and docs[-1]["checkpointed"] is True
    code, docs = cli("checkpoint", "t")
    assert code == 0 and docs[-1]["checkpointed"] is False

    code, docs = cli("publish", "t")
    assert code == 0 and docs[-1]["published"]

    code, docs = cli("clone", "t", "t2")
    assert code == 0
    assert cli("scan", "t2", "--count")[1][-1] == cli("scan", "t", "--count")[1][-1]

    assert cli("drop-table", "t2")[0] == 0
    assert cli("scan", "t2")[0] == 1


def test_replay_figure6(cli):
    code, docs = cli("replay-figure6")
    assert code == 0
    assert docs[-1]["ok"] is True
    assert docs[-1]["sum_snapshot"] == 6 and docs[-1]["sum_final"] == 14
    assert docs[-1]["sequences"] == [1, 2]

    code, text = cli("replay-figure6", porcelain=False, root_override=cli.root + "2")
    assert code == 0 and text.strip().endswith("PASS")


def test_replay_figure6_is_repeatable_and_leaves_no_trace(cli):
    # runs in a scratch store: passes on a root with history, passes again,
    # and never creates its table in the target root
    seed_table(cli)
    assert cli("insert", "t", "--rows", "[[7,70]]")[0] == 0  # sequences past 2
    for _ in range(2):
        code, docs = cli("replay-figure6")
        assert code == 0 and docs[-1]["ok"] is True
        assert docs[-1]["sequences"] == [1, 2]
    assert cli("scan", "fig6")[0] == 1  # no such table in the target root
    assert cli("scan", "t", "--count")[1][-1] == {"value": 4}


# ---------------------------------------------------------------------------
# export / import

def test_export_import_migrates_a_root(cli, tmp_path):
    seed_table(cli)
    assert cli("delete", "t", "--where", "k=2")[0] == 0
    dump = str(tmp_path / "catalog.dump")
    assert cli("export-catalog", dump)[0] == 0

    dest = str(tmp_path / "dest")
    assert cli("init", root_override=dest)[0] == 0
    shutil.copytree(f"{cli.root}/objects", f"{dest}/objects", dirs_exist_ok=True)
    assert cli("import-catalog", dump, root_override=dest)[0] == 0
    code, docs = cli("scan", "t", root_override=dest)
    assert code == 0 and docs[-1] == {"rows": [[1, 10], [3, 30]]}

    # a new write continues the sequence with no collisions
    assert cli("insert", "t", "--rows", "[[7,70]]", root_override=dest)[0] == 0
    assert cli("scan", "t", "--count", root_override=dest)[1][-1] == {"value": 3}


# ---------------------------------------------------------------------------
# scripted workloads

SCENARIO = """
config:
  min_rows_per_file: 4
  small_file_trigger: 2
tables:
  - name: items
    columns: [[k, int64], [v, int64]]
sessions:
  b: {isolation: si, granularity: file}
steps:
  - {op: insert, session: a, table: items, rows: [[1, 10], [2, 20], [3, 30]]}
  - {op: commit, session: a}
  - {op: scan, session: b, table: items, sum: v}
  - {op: delete, session: b, table: items, where: [[k, "=", 1]]}
  - {op: insert, session: c, table: items, rows: [[4, 40]]}
  - {op: delete, session: c, table: items, where: [[k, "=", 2]]}
  - {op: commit, session: c}
  - {op: commit, session: b}
  - {op: scan, table: items, sum: v}
  - {op: compact, table: items, force: true}
  - {op: checkpoint, table: items}
  - {op: publish, table: items}
  - {op: gc, retention: -1}
  - {op: scan, table: items, sum: v}
expect:
  - {step: 3, result: 60}
  - {step: 8, conflict: true}
  - {step: 9, result: 80}
  - {step: 14, result: 80}
"""


def test_workload_meets_expectations(cli, tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    code, docs = cli("workload", str(scenario))
    assert code == 0
    conflict_steps = [d["step"] for d in docs if "conflict" in d]
    assert conflict_steps == [8]


def test_workload_failed_expectation_exits_1(cli, tmp_path):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(
        """
tables:
  - name: items
    columns: [[k, int64]]
steps:
  - {op: insert, table: items, rows: [[1]]}
  - {op: commit}
  - {op: scan, table: items, count: true}
expect:
  - {step: 3, result: 99}
"""
    )
    code, _ = cli("workload", str(scenario))
    assert code == 1


def test_workload_transcript_is_deterministic(cli, tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    code_a, docs_a = cli("workload", str(scenario), root_override=str(tmp_path / "ra"))
    code_b, docs_b = cli("workload", str(scenario), root_override=str(tmp_path / "rb"))
    assert code_a == code_b == 0
    assert docs_a == docs_b
