"""Manifest fold semantics: action application, replay, reconcile, checkpoint
equivalence. Oracle: a brute-force dict fold maintained independently."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstx import manifest as mf
from lstx.datafile import DataFileMeta
from lstx.errors import (
    CorruptManifestError,
    DanglingRemoveError,
    ManifestError,
    SequenceGapError,
)


def meta(path: str, rows: int = 10, rev: int = 1) -> DataFileMeta:
    return DataFileMeta(path=path, row_count=rows, size_bytes=rows * 8,
                        created_rev=rev, stats=(("k", 0, rows - 1),))


def dvmeta(target: str, card: int = 1, rows: int = 10) -> mf.DvMeta:
    return mf.DvMeta(target=target, cardinality=card, target_row_count=rows,
                     created_rev=1, size_bytes=32)


# ---------------------------------------------------------------------------
# encode / decode

def test_actions_line_roundtrip():
    actions = (
        mf.add_file(meta("f1")),
        mf.add_dv("v1", dvmeta("f1", 2)),
        mf.remove_dv("v1", dvmeta("f1", 2)),
        mf.remove_file("f1"),
    )
    assert mf.decode_manifest(mf.encode_actions(actions)) == actions


def test_block_concatenation_is_a_valid_manifest():
    a = (mf.add_file(meta("f1")),)
    b = (mf.add_file(meta("f2")), mf.remove_file("f1"))
    joined = mf.encode_actions(a) + mf.encode_actions(b)
    assert mf.decode_manifest(joined) == a + b


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=8))
def test_concat_of_encoded_blocks_property(splits):
    actions = tuple(mf.add_file(meta(f"f{i}")) for i in range(len(splits)))
    blob = b"".join(mf.encode_actions([a]) for a in actions)
    assert mf.decode_manifest(blob) == actions


def test_decode_reports_line_numbers():
    blob = mf.encode_actions([mf.add_file(meta("f1"))]) + b'{"a":"wat","f":"x"}\n'
    with pytest.raises(CorruptManifestError, match="line 2"):
        mf.decode_manifest(blob)


def test_action_validation():
    with pytest.raises(ManifestError):
        mf.Action(mf.ADD, "f1", None)
    with pytest.raises(ManifestError):
        mf.Action(mf.ADD_DV, "v1", None)
    with pytest.raises(ManifestError):
        mf.Action("noop", "f1", None)


# ---------------------------------------------------------------------------
# apply

def test_apply_lifecycle():
    s = mf.empty_state(1)
    s = mf.apply(s, [mf.add_file(meta("f1")), mf.add_file(meta("f2"))], 1)
    assert set(s.live) == {"f1", "f2"}
    assert s.sequence == 1
    s = mf.apply(s, [mf.add_dv("v1", dvmeta("f1", 3))], 2)
    assert s.live["f1"].dv.path == "v1"
    assert s.live["f1"].visible_rows == 7
    s = mf.apply(s, [mf.remove_dv("v1", dvmeta("f1", 3)),
                     mf.add_dv("v2", dvmeta("f1", 5))], 3)
    assert s.live["f1"].dv.path == "v2"
    assert s.live["f1"].visible_rows == 5
    s = mf.apply(s, [mf.remove_dv("v2", dvmeta("f1", 5)), mf.remove_file("f1")], 4)
    assert set(s.live) == {"f2"}
    assert "f1" in s.removed
    assert s.visible_row_count() == 10


def test_apply_never_mutates_input():
    s0 = mf.empty_state(1)
    s1 = mf.apply(s0, [mf.add_file(meta("f1"))], 1)
    mf.apply(s1, [mf.remove_file("f1")], 2)
    assert "f1" in s1.live
    assert s0.live == {}


def test_apply_errors():
    s = mf.empty_state(1)
    s = mf.apply(s, [mf.add_file(meta("f1"))], 1)
    with pytest.raises(ManifestError):
        mf.apply(s, [mf.add_file(meta("f1"))], 2)  # double add
    with pytest.raises(DanglingRemoveError):
        mf.apply(s, [mf.remove_file("ghost")], 2)
    with pytest.raises(ManifestError):
        mf.apply(s, [mf.add_dv("v1", dvmeta("ghost"))], 2)
    with pytest.raises(ManifestError):
        mf.apply(s, [mf.remove_dv("v1", dvmeta("f1"))], 2)  # no dv attached
    removed = mf.apply(s, [mf.remove_file("f1")], 2)
    with pytest.raises(ManifestError):
        mf.apply(removed, [mf.add_file(meta("f1"))], 3)  # re-add after remove


def test_replay_checks_sequence_monotonicity():
    m1 = [mf.add_file(meta("f1"))]
    m2 = [mf.add_file(meta("f2"))]
    state = mf.replay(None, [(1, m1), (2, m2)], table_id=1)
    assert set(state.live) == {"f1", "f2"}
    with pytest.raises(SequenceGapError):
        mf.replay(None, [(1, m1), (1, m2)], table_id=1)
    with pytest.raises(SequenceGapError):
        mf.replay(state, [(2, m2)])


def test_overlay_does_not_advance_sequence():
    base = mf.replay(None, [(1, [mf.add_file(meta("f1"))])], table_id=1)
    over = mf.overlay(base, [mf.add_file(meta("f2"))])
    assert over.sequence == base.sequence
    assert set(over.live) == {"f1", "f2"}


# ---------------------------------------------------------------------------
# reconcile

def test_reconcile_cancels_own_add_remove_pair():
    own = (mf.add_file(meta("f1")), mf.add_file(meta("f2")))
    new = (mf.remove_file("f1"),)
    assert mf.reconcile(own, new) == (mf.add_file(meta("f2")),)


def test_reconcile_cancels_own_dv_chain():
    own = (mf.add_dv("v1", dvmeta("f", 2)),)
    new = (mf.remove_dv("v1", dvmeta("f", 2)), mf.add_dv("v2", dvmeta("f", 5)))
    assert mf.reconcile(own, new) == (mf.add_dv("v2", dvmeta("f", 5)),)


def test_reconcile_keeps_foreign_removes():
    merged = mf.reconcile((), (mf.remove_file("committed-file"),))
    assert merged == (mf.remove_file("committed-file"),)


def test_reconcile_rejects_contradictions():
    own = (mf.add_file(meta("f1")),)
    with pytest.raises(ManifestError):
        mf.reconcile(own, (mf.add_file(meta("f1")),))
    assert mf.reconcile(own, (mf.remove_file("f1"),)) == ()
    with pytest.raises(ManifestError):
        mf.reconcile((mf.remove_file("f1"),), (mf.remove_file("f1"),))


def test_reconcile_preserves_statement_order():
    own = (mf.add_file(meta("f1")),)
    new = (mf.add_file(meta("f2")), mf.add_dv("v1", dvmeta("f0", 1)))
    assert mf.reconcile(own, new) == own + new


# ---------------------------------------------------------------------------
# checkpoints

def history(n: int):
    """n manifests mixing adds, delete-vector growth and removals, valid by
    construction: each step consults the running state."""
    manifests = []
    state = mf.empty_state(1)
    for seq in range(1, n + 1):
        if seq % 5 == 0 and state.live:
            path = sorted(state.live)[0]
            lf = state.live[path]
            actions = []
            if lf.dv is not None:
                actions.append(mf.remove_dv(lf.dv.path, lf.dv.meta))
            actions.append(mf.remove_file(path))
            actions = tuple(actions)
        elif seq % 3 == 0 and state.live:
            path = sorted(state.live)[-1]
            lf = state.live[path]
            actions = []
            card = (seq % lf.meta.row_count) + 1
            if lf.dv is not None:
                card = min(lf.meta.row_count, lf.dv.meta.cardinality + 1)
                actions.append(mf.remove_dv(lf.dv.path, lf.dv.meta))
            actions.append(mf.add_dv(f"v{seq}", dvmeta(path, card, lf.meta.row_count)))
            actions = tuple(actions)
        else:
            actions = (mf.add_file(meta(f"f{seq}", rows=10 + seq)),)
        state = mf.apply(state, actions, seq)
        manifests.append((seq, actions))
    return manifests


def test_checkpoint_roundtrip_equals_state():
    manifests = history(20)
    state = mf.replay(None, manifests, table_id=1)
    blob = mf.encode_checkpoint(state, created_rev=9)
    decoded, rev = mf.decode_checkpoint(blob)
    assert decoded == state
    assert rev == 9


def test_checkpoint_plus_tail_matches_full_replay():
    manifests = history(20)
    full = mf.replay(None, manifests, table_id=1)
    for k in range(1, len(manifests)):
        head = mf.replay(None, manifests[:k], table_id=1)
        base, _ = mf.decode_checkpoint(mf.encode_checkpoint(head, created_rev=1))
        tail = mf.replay(base, manifests[k:])
        assert tail == full, f"cut at {k} diverged"


def test_checkpoint_encoding_deterministic():
    manifests = history(12)
    state = mf.replay(None, manifests, table_id=1)
    assert mf.encode_checkpoint(state, 3) == mf.encode_checkpoint(state, 3)
