"""Object store with write-once objects and a block staging protocol.

Two write paths exist on purpose:

* ``put_object`` writes a whole object at once and enforces write-once
  semantics (immutability of data files).
* ``stage_block`` / ``commit_block_list`` let any number of uncoordinated
  writers stage named blocks against a path. Staged blocks are invisible to
  readers. A later ``commit_block_list`` atomically replaces the object with
  the concatenation of the listed blocks, in list order, and discards every
  staged block that was not listed. This is how distributed statement tasks
  publish manifest fragments without talking to each other.

The backend is a local directory tree. Each object directory has one hidden
staging directory, made by the first stage into it and never removed: a block
of ``<dir>/<name>`` is the file ``<dir>/.staged/<name>.<block id>``. Block ids
are exactly 32 hex chars, which tells the blocks of ``obj`` from those of
``obj.<x>``. Readers and ``list_prefix`` never see a staging directory. A
multi-block commit appends blocks 2..k to the first block's file and renames
that file onto the object path, so staging and committing create no file the
store does not keep.

One store-wide staging lock serialises every change to a staging directory:
staging a block, committing a block list, discarding staged blocks and
deleting an object. The store keeps no per-path state, so its memory does not
grow with the number of paths written.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field

from .errors import (
    AlreadyExistsError,
    InvalidPathError,
    NotFoundError,
    UnknownBlockError,
)

# the staging directory's name; any segment ending in it is reserved, which
# also hides per-path staging directories that older roots left behind
_STAGED = ".staged"
_TMP_DIR = ".tmpstage"
_MAX_PATH = 1024
_ID_LEN = 32
_HEX = frozenset("0123456789abcdef")


def _check_segment(seg: str) -> None:
    if not seg or seg in (".", ".."):
        raise InvalidPathError(f"bad path segment: {seg!r}")
    if "/" in seg or "\\" in seg or "\x00" in seg:
        raise InvalidPathError(f"separator inside path segment: {seg!r}")
    if seg.endswith(_STAGED) or seg == _TMP_DIR:
        raise InvalidPathError(f"segment uses reserved name: {seg!r}")


@dataclass(frozen=True)
class ObjectPath:
    """Slash-joined logical path, validated segment by segment."""

    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidPathError("empty path")
        for seg in self.segments:
            _check_segment(seg)
        if len(str(self)) > _MAX_PATH:
            raise InvalidPathError("encoded path longer than 1024 chars")

    @classmethod
    def parse(cls, text: str) -> "ObjectPath":
        return cls(tuple(text.split("/")))

    def __str__(self) -> str:
        return "/".join(self.segments)


def as_path(path: "ObjectPath | str") -> ObjectPath:
    return path if isinstance(path, ObjectPath) else ObjectPath.parse(path)


@dataclass(frozen=True)
class BlockId:
    """128-bit block identifier, 32 hex chars, plus the writer that minted it.

    Ids are derived by hashing the writer identity so a fixed workload yields
    identical block lists run after run; uniqueness comes from the writer key
    (txn, statement, task, attempt), not from shared entropy.
    """

    id: str
    origin: str = ""

    def __post_init__(self):
        if len(self.id) != _ID_LEN or not _HEX.issuperset(self.id):
            raise InvalidPathError(f"block id must be 32 lowercase hex chars: {self.id!r}")

    @classmethod
    def derive(cls, writer_key: str) -> "BlockId":
        digest = hashlib.sha256(writer_key.encode("utf-8")).hexdigest()[:_ID_LEN]
        return cls(digest, origin=writer_key)


def _split_entry(entry: str) -> "tuple[str, str] | None":
    """(object name, block id) of a staging-directory entry
    ``<name>.<32 hex>``, or None for any other entry."""
    cut = len(entry) - _ID_LEN - 1
    if cut > 0 and entry[cut] == "." and _HEX.issuperset(entry[cut + 1:]):
        return entry[:cut], entry[cut + 1:]
    return None


@dataclass
class LocalObjectStore:
    """Directory-tree backend. Object content becomes visible only when
    put_object or commit_block_list returns; partial writes never do
    (temp file or staged file + atomic rename)."""

    root: str
    _staging: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        os.makedirs(os.path.join(self.root, _TMP_DIR), exist_ok=True)

    # internal helpers ----------------------------------------------------

    def _fs(self, path: ObjectPath) -> str:
        return os.path.join(self.root, *path.segments)

    def _staged_dir(self, path: ObjectPath) -> str:
        return os.path.join(self.root, *path.segments[:-1], _STAGED)

    def _staged(self, path: ObjectPath) -> dict[str, str]:
        """{block id: staged file} for each block staged against path."""
        sdir = self._staged_dir(path)
        try:
            entries = os.listdir(sdir)
        except FileNotFoundError:
            return {}
        name = path.segments[-1]
        return {
            split[1]: os.path.join(sdir, entry)
            for entry in entries
            if (split := _split_entry(entry)) is not None and split[0] == name
        }

    def _tmp_file(self, payload: bytes) -> str:
        # a thread holds one temp file at a time: every caller renames or
        # unlinks it before returning, so process and thread name it uniquely
        tmp = os.path.join(self.root, _TMP_DIR, f"w{os.getpid()}.{threading.get_ident()}")
        with open(tmp, "wb") as fh:
            fh.write(payload)
        return tmp

    # whole-object API -----------------------------------------------------

    def put_object(self, path, payload: bytes) -> None:
        """Write-once put. Raises AlreadyExistsError if the path is committed."""
        p = as_path(path)
        fs = self._fs(p)
        os.makedirs(os.path.dirname(fs), exist_ok=True)
        tmp = self._tmp_file(payload)
        try:
            # link+unlink instead of rename: rename silently overwrites.
            os.link(tmp, fs)
        except FileExistsError:
            raise AlreadyExistsError(str(p)) from None
        finally:
            os.unlink(tmp)

    def get_object(self, path) -> bytes:
        p = as_path(path)
        try:
            with open(self._fs(p), "rb") as fh:
                return fh.read()
        except (FileNotFoundError, IsADirectoryError):
            raise NotFoundError(str(p)) from None

    def object_exists(self, path) -> bool:
        return os.path.isfile(self._fs(as_path(path)))

    def delete_object(self, path) -> None:
        """Idempotent delete; also drops any staged blocks for the path."""
        p = as_path(path)
        with self._staging:
            try:
                os.unlink(self._fs(p))
            except FileNotFoundError:
                pass
            for staged in self._staged(p).values():
                os.unlink(staged)

    def list_prefix(self, prefix) -> list[str]:
        """Committed object paths under prefix, sorted. Staging directories
        are never listed."""
        p = as_path(prefix)
        base = self._fs(p)
        out = []
        if os.path.isfile(base):
            out.append(str(p))
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.endswith(_STAGED)]
            for name in filenames:
                rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                out.append("/".join(rel.split(os.sep)))
        return sorted(out)

    # block staging API ----------------------------------------------------

    def stage_block(self, path, block: BlockId, payload: bytes) -> None:
        """Stage a named block against path. Invisible to readers until a
        commit lists it. Re-staging the same block id replaces its payload."""
        p = as_path(path)
        if not payload:
            raise InvalidPathError(f"empty block payload for {p}")
        tmp = self._tmp_file(payload)
        sdir = self._staged_dir(p)
        staged = os.path.join(sdir, f"{p.segments[-1]}.{block.id}")
        with self._staging:
            try:
                os.replace(tmp, staged)
            except FileNotFoundError:  # first stage into this directory
                os.makedirs(sdir, exist_ok=True)
                os.replace(tmp, staged)

    def staged_blocks(self, path) -> list[str]:
        """Ids of currently staged blocks for path (diagnostics and tests)."""
        return sorted(self._staged(as_path(path)))

    def commit_block_list(self, path, blocks: list[BlockId]) -> None:
        """Atomically set the object content to the concatenation of the listed
        staged blocks, in list order. Every staged block not in the list is
        discarded. Raises UnknownBlockError (and changes nothing) if any listed
        id is not currently staged, and InvalidPathError for an empty list:
        as with an empty block, staging makes no empty object.

        The first listed block's staged file becomes the object: blocks 2..k
        are appended to it (an append that fails is truncated back to the
        staged length) and it is renamed onto the object path, so the object
        still appears whole or not at all."""
        p = as_path(path)
        if not blocks:
            raise InvalidPathError(f"empty block list for {p}")
        with self._staging:
            staged = self._staged(p)
            missing = [b.id for b in blocks if b.id not in staged]
            if missing:
                raise UnknownBlockError(f"{p}: blocks not staged: {missing}")
            head = staged.pop(blocks[0].id)
            if len(blocks) > 1:
                tail = []
                for b in blocks[1:]:
                    with open(staged.get(b.id, head), "rb") as fh:
                        tail.append(fh.read())
                size = os.path.getsize(head)
                try:
                    with open(head, "ab") as fh:
                        fh.write(b"".join(tail))
                except OSError:
                    os.truncate(head, size)
                    raise
            # staging made the object's directory
            os.replace(head, self._fs(p))
            for other in staged.values():
                os.unlink(other)

    def discard_staged(self, path) -> None:
        """Drop any staged blocks for path without touching the object itself.

        Not part of the minimal store contract; garbage collection uses it to
        sweep blocks abandoned by dead transactions.
        """
        p = as_path(path)
        with self._staging:
            for staged in self._staged(p).values():
                os.unlink(staged)

    def list_staged(self, prefix) -> list[str]:
        """Object paths under prefix that currently have staged blocks, each
        once.

        Not part of the minimal store contract; garbage collection uses it to
        find blocks abandoned by dead transactions.
        """
        base = self._fs(as_path(prefix))
        out = set()
        for dirpath, dirnames, _ in os.walk(base):
            if _STAGED in dirnames:
                rel = os.path.relpath(dirpath, self.root).split(os.sep)
                for entry in os.listdir(os.path.join(dirpath, _STAGED)):
                    split = _split_entry(entry)
                    if split is not None:
                        out.add("/".join(rel + [split[0]]))
            dirnames[:] = [d for d in dirnames if not d.endswith(_STAGED)]
        return sorted(out)
