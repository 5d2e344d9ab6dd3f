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

The backend is a local directory tree. Staged blocks for ``<path>`` live in a
reserved sibling directory ``<path>.staged/``; readers and ``list_prefix``
never see it.

One store-wide staging lock serialises every change to a staged directory:
staging a block, committing a block list, discarding staged blocks and
deleting an object. A block staged while another call removes that directory
therefore lands either before the removal or in a fresh directory after it,
never in a directory that is being torn down. The store keeps no per-path
state, so its memory does not grow with the number of paths written.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
from dataclasses import dataclass, field

from .errors import (
    AlreadyExistsError,
    InvalidPathError,
    NotFoundError,
    UnknownBlockError,
)

STAGED_SUFFIX = ".staged"
_TMP_DIR = ".tmpstage"
_MAX_PATH = 1024


def _check_segment(seg: str) -> None:
    if not seg or seg in (".", ".."):
        raise InvalidPathError(f"bad path segment: {seg!r}")
    if "/" in seg or "\\" in seg or "\x00" in seg:
        raise InvalidPathError(f"separator inside path segment: {seg!r}")
    if seg.endswith(STAGED_SUFFIX) or seg == _TMP_DIR:
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
        if len(self.id) != 32 or any(c not in "0123456789abcdef" for c in self.id):
            raise InvalidPathError(f"block id must be 32 lowercase hex chars: {self.id!r}")

    @classmethod
    def derive(cls, writer_key: str) -> "BlockId":
        digest = hashlib.sha256(writer_key.encode("utf-8")).hexdigest()[:32]
        return cls(digest, origin=writer_key)


@dataclass
class LocalObjectStore:
    """Directory-tree backend. Object content becomes visible only when
    put_object or commit_block_list returns; partial writes never do
    (temp file + atomic rename)."""

    root: str
    _mutex: threading.Lock = field(default_factory=threading.Lock, repr=False)
    # not _mutex: a multi-block commit calls _tmp_file, which takes _mutex
    _staging: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _clock: int = 0

    def __post_init__(self):
        os.makedirs(os.path.join(self.root, _TMP_DIR), exist_ok=True)

    # internal helpers ----------------------------------------------------

    def _fs(self, path: ObjectPath) -> str:
        return os.path.join(self.root, *path.segments)

    def _staged_dir(self, path: ObjectPath) -> str:
        return self._fs(path) + STAGED_SUFFIX

    def _next_tick(self) -> int:
        with self._mutex:
            self._clock += 1
            return self._clock

    def _tmp_file(self, payload: bytes) -> str:
        tmp = os.path.join(
            self.root, _TMP_DIR, f"w{os.getpid()}.{threading.get_ident()}.{self._next_tick()}"
        )
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
            shutil.rmtree(self._staged_dir(p), ignore_errors=True)

    def list_prefix(self, prefix) -> list[str]:
        """Committed object paths under prefix, sorted. Staged directories are
        never listed."""
        p = as_path(prefix)
        base = self._fs(p)
        out = []
        if os.path.isfile(base):
            out.append(str(p))
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.endswith(STAGED_SUFFIX)]
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
        with self._staging:
            sdir = self._staged_dir(p)
            os.makedirs(sdir, exist_ok=True)
            os.replace(tmp, os.path.join(sdir, block.id))

    def staged_blocks(self, path) -> list[str]:
        """Ids of currently staged blocks for path (diagnostics and tests)."""
        sdir = self._staged_dir(as_path(path))
        try:
            return sorted(os.listdir(sdir))
        except FileNotFoundError:
            return []

    def commit_block_list(self, path, blocks: list[BlockId]) -> None:
        """Atomically set the object content to the concatenation of the listed
        staged blocks, in list order. Every staged block not in the list is
        discarded. Raises UnknownBlockError (and changes nothing) if any listed
        id is not currently staged.

        A one-block list moves the staged file onto the object path instead
        of copying it; stage_block wrote that file whole before renaming it
        into the staging directory, so the object still appears whole or not
        at all."""
        p = as_path(path)
        with self._staging:
            sdir = self._staged_dir(p)
            staged = set()
            if os.path.isdir(sdir):
                staged = set(os.listdir(sdir))
            missing = [b.id for b in blocks if b.id not in staged]
            if missing:
                raise UnknownBlockError(f"{p}: blocks not staged: {missing}")
            fs = self._fs(p)
            os.makedirs(os.path.dirname(fs), exist_ok=True)
            if len(blocks) == 1:
                os.replace(os.path.join(sdir, blocks[0].id), fs)
            else:
                parts = []
                for b in blocks:
                    with open(os.path.join(sdir, b.id), "rb") as fh:
                        parts.append(fh.read())
                os.replace(self._tmp_file(b"".join(parts)), fs)
            shutil.rmtree(sdir, ignore_errors=True)

    def discard_staged(self, path) -> None:
        """Drop any staged blocks for path without touching the object itself.

        Not part of the minimal store contract; garbage collection uses it to
        sweep blocks abandoned by dead transactions.
        """
        p = as_path(path)
        with self._staging:
            shutil.rmtree(self._staged_dir(p), ignore_errors=True)

    def list_staged(self, prefix) -> list[str]:
        """Object paths under prefix that currently have staged blocks.

        Not part of the minimal store contract; garbage collection uses it to
        find blocks abandoned by dead transactions.
        """
        p = as_path(prefix)
        base = self._fs(p)
        out = []
        for dirpath, dirnames, _ in os.walk(base):
            for d in list(dirnames):
                if d.endswith(STAGED_SUFFIX):
                    dirnames.remove(d)
                    rel = os.path.relpath(os.path.join(dirpath, d), self.root)
                    logical = "/".join(rel.split(os.sep))[: -len(STAGED_SUFFIX)]
                    out.append(logical)
        return sorted(out)
