"""Columnar file and delete-vector codecs, checked against independent
oracles: stats recomputed by brute force, roundtrips over generated data."""

import json
import math
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstx.datafile import (
    DataFileMeta,
    DeleteVector,
    Schema,
    content_digest,
    created_rev_of,
    decode_data_file,
    decode_delete_vector,
    encode_data_file,
    encode_delete_vector,
    file_meta_for,
)
from lstx.errors import CorruptFileError, SchemaError

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

SCHEMA = Schema.of(("k", "int64"), ("x", "float64"), ("s", "utf8"), ("b", "bool"))


def rows_strategy(min_size=0, max_size=40):
    row = st.tuples(
        st.integers(INT64_MIN, INT64_MAX),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=12),
        st.booleans(),
    )
    return st.lists(row, min_size=min_size, max_size=max_size)


# ---------------------------------------------------------------------------
# schema

def test_schema_roundtrip_and_lookup():
    s = Schema.from_json(SCHEMA.to_json())
    assert s == SCHEMA
    assert s.names == ("k", "x", "s", "b")
    assert s.type_of("x") == "float64"
    assert s.index_of("b") == 3
    with pytest.raises(SchemaError):
        s.type_of("missing")


def test_schema_rejects_bad_definitions():
    with pytest.raises(SchemaError):
        Schema.of()
    with pytest.raises(SchemaError):
        Schema.of(("a", "int64"), ("a", "utf8"))
    with pytest.raises(SchemaError):
        Schema.of(("a", "decimal"))


def test_coerce_row_strictness():
    assert SCHEMA.coerce_row((1, 2, "s", True)) == (1, 2.0, "s", True)
    with pytest.raises(SchemaError):
        SCHEMA.coerce_row((1, 2.0, "s"))  # arity
    with pytest.raises(SchemaError):
        SCHEMA.coerce_row(("1", 2.0, "s", True))  # utf8 where int64 expected
    with pytest.raises(SchemaError):
        SCHEMA.coerce_row((True, 2.0, "s", True))  # bool is not an int64
    with pytest.raises(SchemaError):
        SCHEMA.coerce_row((2**63, 2.0, "s", True))  # out of int64 range
    with pytest.raises(SchemaError):
        SCHEMA.coerce_row((1, float("nan"), "s", True))
    with pytest.raises(SchemaError):
        SCHEMA.coerce_row((1, float("inf"), "s", True))
    with pytest.raises(SchemaError):
        SCHEMA.coerce_row((1, 2.0, "s", 1))  # int is not a bool


# ---------------------------------------------------------------------------
# data files

def stats_oracle(schema, rows):
    """Independent min/max per column, skipping empty files."""
    out = []
    for i, (name, _) in enumerate(schema.columns):
        values = [r[i] for r in rows]
        if values:
            out.append((name, min(values), max(values)))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy())
def test_data_roundtrip_property(rows):
    rows = [SCHEMA.coerce_row(r) for r in rows]
    payload = encode_data_file(SCHEMA, rows, created_rev=7)
    schema, decoded, rev = decode_data_file(payload)
    assert schema == SCHEMA
    assert decoded == rows
    assert rev == 7
    meta = file_meta_for("p", payload)
    assert meta.row_count == len(rows)
    assert meta.size_bytes == len(payload)
    assert meta.stats == stats_oracle(SCHEMA, rows)
    assert created_rev_of(payload) == 7


def test_projection_decodes_named_columns_only():
    rows = [(1, 1.5, "a", True), (2, 2.5, "b", False)]
    payload = encode_data_file(SCHEMA, rows, created_rev=1)
    _, decoded, _ = decode_data_file(payload, projection=("s", "k"))
    assert decoded == [("a", 1), ("b", 2)]


def test_unicode_and_extremes_roundtrip():
    rows = [
        (INT64_MIN, -0.0, "", True),
        (INT64_MAX, 1e308, "проверка ☃ \U0001F600", False),
        (0, 5e-324, "newline\nand\ttab", True),
    ]
    payload = encode_data_file(SCHEMA, rows, created_rev=3)
    _, decoded, _ = decode_data_file(payload)
    assert decoded == [SCHEMA.coerce_row(r) for r in rows]
    # -0.0 must survive as a float (equality treats it as 0.0, sign preserved)
    assert math.copysign(1.0, decoded[0][1]) == -1.0


def test_encode_is_deterministic():
    rows = [(i, i / 3, f"s{i}", i % 2 == 0) for i in range(50)]
    a = encode_data_file(SCHEMA, rows, created_rev=2)
    b = encode_data_file(SCHEMA, rows, created_rev=2)
    assert a == b
    assert content_digest(a) == content_digest(b)
    assert encode_data_file(SCHEMA, rows, created_rev=3) != a


def test_corruption_detected():
    payload = bytearray(encode_data_file(SCHEMA, [(1, 1.0, "a", True)], created_rev=1))
    flipped = bytearray(payload)
    flipped[len(flipped) // 2] ^= 0xFF
    with pytest.raises(CorruptFileError):
        decode_data_file(bytes(flipped))
    with pytest.raises(CorruptFileError):
        decode_data_file(bytes(payload[:10]))
    with pytest.raises(CorruptFileError):
        decode_data_file(b"XXXX" + bytes(payload[4:]))


def resign(payload: bytes, edit) -> bytes:
    """The file with its footer JSON passed through edit, and the footer
    length and CRC recomputed, so that only the decoder's consistency checks
    stand between the edited footer and the rows."""
    (flen,) = struct.unpack_from("<I", payload, len(payload) - 8)
    start = len(payload) - 8 - flen
    footer = json.loads(payload[start : len(payload) - 8])
    edit(footer)
    fbytes = json.dumps(footer).encode("utf-8")
    body = payload[:start] + fbytes + struct.pack("<I", len(fbytes))
    return body + struct.pack("<I", zlib.crc32(body))


def _set(path, value):
    def edit(footer):
        *parents, last = path
        node = footer
        for key in parents:
            node = node[key]
        node[last] = value
    return edit


def test_footer_that_disagrees_with_the_body_is_corrupt():
    rows = [(1, 1.5, "a", True), (2, 2.5, "bc", False), (3, 3.5, "", True)]
    payload = encode_data_file(SCHEMA, rows, created_rev=1)
    footer_start = len(payload) - 8 - struct.unpack_from("<I", payload, len(payload) - 8)[0]
    # re-signing an unedited footer keeps the file readable
    assert decode_data_file(resign(payload, lambda f: None))[1] == rows
    blocks = json.loads(payload[footer_start : len(payload) - 8])["columns"]
    (k_off, k_len), (s_off, s_len) = blocks["k"], blocks["s"]
    edits = {
        "rows one too low": _set(["rows"], 2),
        "rows one too high": _set(["rows"], 4),
        "negative rows": _set(["rows"], -1),
        "int64 block one value short": _set(["columns", "k"], [k_off, k_len - 8]),
        "utf8 block one byte short": _set(["columns", "s"], [s_off, s_len - 1]),
        "utf8 block one byte long": _set(["columns", "s"], [s_off, s_len + 1]),
        "offset into the magic": _set(["columns", "k"], [0, k_len]),
        "offset into the footer": _set(["columns", "k"], [footer_start, 0]),
        "offset past the end": _set(["columns", "b"], [len(payload) + 10, 3]),
        "negative length": _set(["columns", "b"], [k_off, -3]),
        "column missing from columns": lambda f: f["columns"].pop("x"),
    }
    for what, edit in edits.items():
        with pytest.raises(CorruptFileError):
            decode_data_file(resign(payload, edit))
            pytest.fail(what)
    with pytest.raises(CorruptFileError):  # a projection checks what it decodes
        decode_data_file(resign(payload, _set(["columns", "s"], [s_off, s_len - 1])),
                         projection=("s",))


def test_bool_byte_other_than_0_or_1_is_corrupt():
    payload = encode_data_file(SCHEMA, [(1, 1.0, "a", True), (2, 2.0, "b", False)],
                               created_rev=1)
    footer_start = len(payload) - 8 - struct.unpack_from("<I", payload, len(payload) - 8)[0]
    b_off, b_len = json.loads(payload[footer_start : len(payload) - 8])["columns"]["b"]
    assert payload[b_off : b_off + b_len] == b"\x01\x00"
    body = payload[:b_off] + b"\x02" + payload[b_off + 1 : -4]
    edited = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(CorruptFileError):
        decode_data_file(edited)
    with pytest.raises(CorruptFileError):
        decode_data_file(edited, projection=("b",))


def test_meta_json_roundtrip():
    payload = encode_data_file(SCHEMA, [(1, 1.0, "a", True)], created_rev=9)
    meta = file_meta_for("w/t/f.col", payload)
    assert DataFileMeta.from_json(meta.to_json()) == meta
    assert meta.stat_for("k") == (1, 1)
    assert meta.stat_for("missing") is None


# ---------------------------------------------------------------------------
# delete vectors

@settings(max_examples=60, deadline=None)
@given(
    bits=st.sets(st.integers(0, 499), max_size=60),
    rows=st.integers(500, 600),
)
def test_dv_roundtrip_property(bits, rows):
    dv = DeleteVector("w/t/f.col", frozenset(bits))
    payload = encode_delete_vector(dv, rows, created_rev=4)
    decoded, target_rows, rev = decode_delete_vector(payload)
    assert decoded == dv
    assert decoded.cardinality == len(bits)
    assert target_rows == rows
    assert rev == 4
    assert created_rev_of(payload) == 4


def test_dv_rejects_out_of_range_ordinal():
    dv = DeleteVector("f", frozenset({10}))
    with pytest.raises(SchemaError):
        encode_delete_vector(dv, 10, created_rev=1)


def test_dv_corruption_detected():
    dv = DeleteVector("f", frozenset({0, 3, 9}))
    payload = bytearray(encode_delete_vector(dv, 16, created_rev=1))
    payload[-1] ^= 0x01
    with pytest.raises(CorruptFileError):
        decode_delete_vector(bytes(payload))


def test_digest_is_stable_hex():
    d = content_digest(b"abc")
    assert d == content_digest(b"abc")
    assert len(d) == 16
    int(d, 16)


def test_crc_guard_matches_zlib():
    # the trailing u32 is crc32 of everything before it
    payload = encode_data_file(SCHEMA, [(5, 1.0, "z", False)], created_rev=1)
    body, crc = payload[:-4], int.from_bytes(payload[-4:], "little")
    assert zlib.crc32(body) == crc
