"""Columnar data files and delete vectors.

Data files are immutable: a header magic, one contiguous block per column,
a JSON footer (schema, per-column offsets, row count, min/max stats, creation
revision), the footer length, and a CRC32 over everything before the CRC
field. Deletes never touch these bytes; they are expressed as delete vectors,
small side files holding the set of deleted row ordinals of one target file.

Exact byte layouts are documented in docs/format.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
import sys
import zlib
from dataclasses import dataclass, field

from .errors import CorruptFileError, SchemaError

DATA_MAGIC = b"LSC1"
DV_MAGIC = b"LSV1"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

INT64 = "int64"
FLOAT64 = "float64"
UTF8 = "utf8"
BOOL = "bool"
COLUMN_TYPES = (INT64, FLOAT64, UTF8, BOOL)

_WIDTHS = {INT64: 8, FLOAT64: 8, BOOL: 1}  # bytes per value of fixed-width types

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Schema:
    """Ordered (name, type) column list. Rows are plain tuples in this order."""

    columns: tuple[tuple[str, str], ...]
    names: tuple = field(init=False, repr=False, compare=False)  # column names in order
    _index: dict = field(init=False, repr=False, compare=False)  # name -> position

    def __post_init__(self):
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        index = {}
        for name, typ in self.columns:
            if not name or not isinstance(name, str):
                raise SchemaError(f"bad column name: {name!r}")
            if name in index:
                raise SchemaError(f"duplicate column: {name}")
            index[name] = len(index)
            if typ not in COLUMN_TYPES:
                raise SchemaError(f"unknown column type: {typ}")
        object.__setattr__(self, "names", tuple(index))
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, *columns: tuple[str, str]) -> "Schema":
        return cls(tuple((n, t) for n, t in columns))

    def type_of(self, name: str) -> str:
        return self.columns[self.index_of(name)][1]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise SchemaError(f"no such column: {name}") from None

    def coerce_row(self, row) -> tuple:
        """Validate one row against the schema; ints are accepted for float64
        columns. Nulls and non-finite floats are rejected."""
        vals = tuple(row)
        if len(vals) != len(self.columns):
            raise SchemaError(f"row arity {len(vals)} != schema arity {len(self.columns)}")
        out = []
        for (name, typ), v in zip(self.columns, vals):
            if typ == INT64:
                if type(v) is not int or not (_I64_MIN <= v <= _I64_MAX):
                    raise SchemaError(f"column {name}: expected int64, got {v!r}")
            elif typ == FLOAT64:
                if type(v) is int:
                    v = float(v)
                if type(v) is not float:
                    raise SchemaError(f"column {name}: expected float64, got {v!r}")
                if not math.isfinite(v):
                    raise SchemaError(f"column {name}: non-finite float64")
            elif typ == UTF8:
                if type(v) is not str:
                    raise SchemaError(f"column {name}: expected utf8 string, got {v!r}")
            elif typ == BOOL:
                if type(v) is not bool:
                    raise SchemaError(f"column {name}: expected bool, got {v!r}")
            out.append(v)
        return tuple(out)

    def to_json(self):
        return [[n, t] for n, t in self.columns]

    @classmethod
    def from_json(cls, data) -> "Schema":
        """One shared Schema per distinct column list: every data file footer
        carries its schema, and files of one table repeat it."""
        columns = tuple((n, t) for n, t in data)
        try:
            return _schema_of(columns)
        except TypeError:  # an unhashable entry; let Schema name the bad column
            return cls(columns)


@functools.lru_cache(maxsize=256)
def _schema_of(columns: tuple) -> Schema:
    return Schema(columns)


@dataclass(frozen=True, slots=True)
class DataFileMeta:
    """Catalog-visible description of one immutable data file.

    Slotted, with interned stat names: predicate pruning reads a stat of
    every live file, and with no instance dict and one name string per
    column it touches fewer objects on the way."""

    path: str
    row_count: int
    size_bytes: int
    created_rev: int  # begin revision of the creating txn, catalog commit clock
    stats: tuple = ()  # ((column, min, max), ...) in schema order

    def stat_for(self, column: str):
        for name, lo, hi in self.stats:
            if name == column:
                return lo, hi
        return None

    def to_json(self):
        return {
            "path": self.path,
            "rows": self.row_count,
            "size": self.size_bytes,
            "created_rev": self.created_rev,
            "stats": [[n, lo, hi] for n, lo, hi in self.stats],
        }

    @classmethod
    def from_json(cls, data) -> "DataFileMeta":
        return cls(
            path=data["path"],
            row_count=data["rows"],
            size_bytes=data["size"],
            created_rev=data["created_rev"],
            stats=tuple((sys.intern(n), lo, hi) for n, lo, hi in data["stats"]),
        )


@dataclass(frozen=True)
class DeleteVector:
    """Set of deleted row ordinals (file order, zero-based) of one data file."""

    target: str
    bits: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        for b in self.bits:
            if not isinstance(b, int) or b < 0:
                raise SchemaError(f"bad delete ordinal: {b!r}")

    @property
    def cardinality(self) -> int:
        return len(self.bits)


# ---------------------------------------------------------------------------
# data file codec

def _encode_column(typ: str, values) -> bytes:
    if typ == INT64:
        return b"".join(_I64.pack(v) for v in values)
    if typ == FLOAT64:
        return b"".join(_F64.pack(v) for v in values)
    if typ == BOOL:
        return bytes(1 if v else 0 for v in values)
    # utf8: u32 length prefix per value
    parts = []
    for v in values:
        raw = v.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _decode_column(typ: str, raw: bytes, row_count: int) -> list:
    """The row_count values of one column block; CorruptFileError unless the
    block holds exactly that many."""
    width = _WIDTHS.get(typ)
    if width is not None and len(raw) != width * row_count:
        raise CorruptFileError(f"{len(raw)}-byte {typ} block for {row_count} rows")
    if typ == INT64:
        return [v[0] for v in _I64.iter_unpack(raw)]
    if typ == FLOAT64:
        return [v[0] for v in _F64.iter_unpack(raw)]
    if typ == BOOL:
        if raw.strip(b"\x00\x01"):
            raise CorruptFileError("bool block holds a byte other than 0 or 1")
        return [b == 1 for b in raw]
    vals = []
    off = 0
    try:
        for _ in range(row_count):
            (n,) = _U32.unpack_from(raw, off)
            off += 4
            vals.append(raw[off : off + n].decode("utf-8"))
            off += n
    except (struct.error, UnicodeDecodeError) as exc:
        raise CorruptFileError(f"bad utf8 block: {exc}") from None
    if off != len(raw):
        raise CorruptFileError(f"{len(raw)}-byte utf8 block for {row_count} rows")
    return vals


def encode_data_file(schema: Schema, rows, created_rev: int) -> bytes:
    """Serialize rows (already coerced) into one immutable file image."""
    cols = list(zip(*rows)) if rows else [[] for _ in schema.columns]
    blocks = []
    offsets = {}
    stats = []
    pos = len(DATA_MAGIC)
    for (name, typ), values in zip(schema.columns, cols):
        raw = _encode_column(typ, values)
        offsets[name] = [pos, len(raw)]
        pos += len(raw)
        blocks.append(raw)
        if values:
            stats.append([name, min(values), max(values)])
    footer = {
        "schema": schema.to_json(),
        "rows": len(rows),
        "columns": offsets,
        "stats": stats,
        "created_rev": created_rev,
    }
    fbytes = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = DATA_MAGIC + b"".join(blocks) + fbytes + _U32.pack(len(fbytes))
    return body + _U32.pack(zlib.crc32(body))


def _read_footer(data: bytes, magic: bytes) -> tuple[dict, int]:
    """The footer of a checksummed data file and the offset it starts at,
    which is where the column blocks end."""
    if len(data) < len(magic) + 8 or not data.startswith(magic):
        raise CorruptFileError("bad magic or truncated file")
    (crc,) = _U32.unpack_from(data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc:
        raise CorruptFileError("checksum mismatch")
    (flen,) = _U32.unpack_from(data, len(data) - 8)
    start = len(data) - 8 - flen
    if start < len(magic):
        raise CorruptFileError("footer length out of range")
    try:
        return json.loads(data[start : start + flen]), start
    except ValueError as exc:
        raise CorruptFileError(f"unreadable footer: {exc}") from None


def decode_data_file(data: bytes, projection: "tuple[str, ...] | None" = None):
    """Decode a file image into (schema, rows, created_rev).

    projection limits decoding to the named columns, in the given order.
    Raises CorruptFileError on checksum or framing mismatch, and when a
    checksummed footer disagrees with the body: a column with no block, a
    block outside the bytes between magic and footer, or a block that does
    not hold exactly `rows` values.
    """
    footer, body_end = _read_footer(data, DATA_MAGIC)
    schema = Schema.from_json(footer["schema"])
    row_count = footer["rows"]
    if type(row_count) is not int or row_count < 0:
        raise CorruptFileError(f"bad row count: {row_count!r}")
    names = schema.names if projection is None else tuple(projection)
    cols = []
    for name in names:
        typ = schema.type_of(name)
        if name not in footer["columns"]:
            raise CorruptFileError(f"footer has no block for column {name}")
        off, length = footer["columns"][name]
        if not len(DATA_MAGIC) <= off <= off + length <= body_end:
            raise CorruptFileError(f"column {name} block [{off}, {off + length}) "
                                   f"outside the body [{len(DATA_MAGIC)}, {body_end})")
        cols.append(_decode_column(typ, data[off : off + length], row_count))
    rows = list(zip(*cols)) if cols else []
    if row_count and not rows:
        rows = [()] * row_count
    return schema, rows, footer["created_rev"]


def file_meta_for(path: str, payload: bytes) -> DataFileMeta:
    """Recompute the catalog meta of an encoded file (oracle and write path)."""
    footer, _ = _read_footer(payload, DATA_MAGIC)
    return DataFileMeta(
        path=path,
        row_count=footer["rows"],
        size_bytes=len(payload),
        created_rev=footer["created_rev"],
        stats=tuple((sys.intern(n), lo, hi) for n, lo, hi in footer["stats"]),
    )


# ---------------------------------------------------------------------------
# delete vector codec

def _varint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def encode_delete_vector(dv: DeleteVector, target_row_count: int, created_rev: int) -> bytes:
    """Header JSON + sorted varint-delta ordinals + CRC32."""
    ordinals = sorted(dv.bits)
    if ordinals and ordinals[-1] >= target_row_count:
        raise SchemaError(
            f"ordinal {ordinals[-1]} out of range for {target_row_count}-row target"
        )
    header = {
        "target": dv.target,
        "rows": target_row_count,
        "cardinality": len(ordinals),
        "created_rev": created_rev,
    }
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [DV_MAGIC, _U32.pack(len(hbytes)), hbytes]
    prev = -1
    for o in ordinals:
        parts.append(_varint(o - prev - 1))
        prev = o
    body = b"".join(parts)
    return body + _U32.pack(zlib.crc32(body))


def decode_delete_vector(data: bytes):
    """Inverse of encode_delete_vector -> (DeleteVector, target_row_count, created_rev)."""
    if len(data) < len(DV_MAGIC) + 8 or not data.startswith(DV_MAGIC):
        raise CorruptFileError("bad delete vector magic")
    (crc,) = _U32.unpack_from(data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc:
        raise CorruptFileError("delete vector checksum mismatch")
    off = len(DV_MAGIC)
    (hlen,) = _U32.unpack_from(data, off)
    off += 4
    try:
        header = json.loads(data[off : off + hlen])
    except ValueError as exc:
        raise CorruptFileError(f"unreadable delete vector header: {exc}") from None
    off += hlen
    end = len(data) - 4
    ordinals = []
    prev = -1
    while off < end:
        shift = 0
        val = 0
        while True:
            if off >= end:
                raise CorruptFileError("truncated varint")
            b = data[off]
            off += 1
            val |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        prev = prev + 1 + val
        ordinals.append(prev)
    if len(ordinals) != header["cardinality"]:
        raise CorruptFileError("delete vector cardinality mismatch")
    dv = DeleteVector(header["target"], frozenset(ordinals))
    return dv, header["rows"], header["created_rev"]


def created_rev_of(payload: bytes) -> int:
    """Creation revision stamp of an encoded data file or delete vector,
    without decoding row data (garbage collection reads this for files whose
    names carry no stamp)."""
    if payload[:4] == DATA_MAGIC:
        return _read_footer(payload, DATA_MAGIC)[0]["created_rev"]
    return decode_delete_vector(payload)[2]


def content_digest(payload: bytes, n: int = 16) -> str:
    return hashlib.sha256(payload).hexdigest()[:n]
