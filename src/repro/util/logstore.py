"""Append-only, sharded JSON-lines log: the one persistence core.

:class:`~repro.obs.store.RunStore` (run history) and
:class:`~repro.serve.store.DecisionStore` (tuned decisions) are thin
schemas over :class:`LogStore`.  A :class:`Schema` says which shard
directory a record lives in and which records a compacted segment
keeps, in what order; the file layout, lock-free appends, torn-line
reads, segments, compaction and the change feed live here, once.

Layout of one shard directory:

- ``open.jsonl`` -- the append tail.  An append is one ``O_APPEND``
  write of one canonical line (``json.dumps(doc, sort_keys=True)``), so
  any number of processes share a store without locks.
- ``seg-<sha256(body)[:12]>.jsonl`` -- an immutable, content-named
  segment written by :meth:`LogStore.compact`, with a ``.idx.json``
  sidecar mapping each record key to its line offsets (rebuilt by the
  first read that misses it).
- ``pend-<hex>.jsonl`` -- an open tail snapshotted by a compaction.
- any other ``*.jsonl`` -- a legacy file: read like the tail and folded
  into a segment by the next compaction.

Every record is a JSON object with a non-empty ``"key"``.  A line that
is not -- a torn write from a dead process, or bit rot -- is dropped by
the read that meets it and counted in :attr:`LogStore.skipped`.
History order is ``(wall_time, canonical line)``: a total order, so it
is the same in any append, merge or compaction order.

:func:`write_atomic` is the repository's one temp-file-and-rename
publisher; the stores and :class:`~repro.tuning.cache.MeasurementCache`
write through it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "LogStore",
    "Schema",
    "canonical_line",
    "history",
    "order_key",
    "write_atomic",
]

OPEN = "open.jsonl"


def write_atomic(path: os.PathLike, text: str) -> None:
    """Publish ``text`` at ``path`` in one step (temp file + rename).

    Readers see the old file or the new one, never a torn one, and
    racing writers of the same content agree on the result.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_line(doc: dict) -> str:
    """The canonical JSON line of a record -- its dedup identity."""
    return json.dumps(doc, sort_keys=True)


def order_key(doc: dict, line: str) -> tuple[float, str]:
    """History order: ``(wall_time, canonical line)``.

    The tiebreak on the full line makes the order total, so sorting is
    reproducible in any merge or compaction order.
    """
    try:
        wt = float(doc.get("wall_time", 0.0))
    except (TypeError, ValueError):
        wt = 0.0
    return (wt, line)


def history(records: dict[str, dict]) -> list[dict]:
    """``{canonical line: record}`` as a list in history order."""
    return [records[line] for line in
            sorted(records, key=lambda ln: order_key(records[ln], ln))]


def _parse(line: str) -> Optional[dict]:
    """The record on ``line``, or None if it is not a keyed JSON object."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and doc.get("key") else None


def _idx_path(seg: Path) -> Path:
    return seg.with_suffix(".idx.json")


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return -1


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False
    return True


@dataclass(frozen=True)
class Schema:
    """What one store on the core decides for itself."""

    #: stamped on index sidecars and tail cursors
    version: int
    #: glob, relative to the root, matching every shard directory
    shard_glob: str
    #: record -> its shard directory, relative to the root
    shard: Callable[[dict], str]
    #: ``{canonical line: record}`` of a shard -> the lines its compacted
    #: segment keeps, in segment order
    survivors: Callable[[dict[str, dict]], list[str]]


class LogStore:
    """A root directory of append-only shards under one :class:`Schema`."""

    def __init__(self, root: os.PathLike, schema: Schema):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.schema = schema
        #: torn or corrupt lines dropped by this handle's reads
        self.skipped = 0
        #: segment indexes; segments are immutable and content-named, so
        #: a path's index never goes stale
        self._idx: dict[Path, dict] = {}

    # -- layout ------------------------------------------------------------------

    def shard_dir(self, doc: dict) -> Path:
        return self.root / self.schema.shard(doc)

    def shards(self) -> list[Path]:
        return sorted(d for d in self.root.glob(self.schema.shard_glob)
                      if d.is_dir())

    @staticmethod
    def segments(shard: Path) -> list[Path]:
        return sorted(shard.glob("seg-*.jsonl"))

    @staticmethod
    def mutable_files(shard: Path) -> list[Path]:
        """Files read line by line: the open tail, ``pend-*`` snapshots
        and legacy files."""
        return [f for f in sorted(shard.glob("*.jsonl"))
                if not f.name.startswith("seg-")]

    # -- writing -----------------------------------------------------------------

    def append(self, doc: dict) -> None:
        """Land one record on its shard's open tail."""
        f = self.shard_dir(doc) / OPEN
        f.parent.mkdir(parents=True, exist_ok=True)
        data = (canonical_line(doc) + "\n").encode("utf-8")
        for _ in range(16):
            fd = os.open(f, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, data)
                ino = os.fstat(fd).st_ino
            finally:
                os.close(fd)
            # A concurrent compact() may have renamed (or renamed and
            # already removed) the tail between our open and write, in
            # which case the line could die with the snapshot.  Re-land
            # it on the live tail; if the snapshot is folded after all,
            # the duplicate collapses by canonical-line dedup.
            try:
                if os.stat(f).st_ino == ino:
                    break
            except OSError:
                pass

    # -- reading -----------------------------------------------------------------

    def read(self, path: Path, start: int = 0, final: bool = True,
             ) -> tuple[list[tuple[dict, str]], int]:
        """``(record, line)`` pairs of ``path`` from byte ``start``, and
        the offset just past the last complete line.

        A trailing line with no newline yet (a live or dead writer) is
        left unconsumed for a later read; a ``final`` read counts it as
        skipped, as every read counts a complete line that is not a
        keyed JSON object.
        """
        try:
            with open(path, "rb") as fh:
                fh.seek(start)
                blob = fh.read()
        except OSError:
            return [], start
        end = blob.rfind(b"\n") + 1
        if final and blob[end:].strip():
            self.skipped += 1
        out = []
        for line in blob[:end].decode("utf-8", errors="replace").split("\n"):
            line = line.strip()
            if not line:
                continue
            doc = _parse(line)
            if doc is None:
                self.skipped += 1
            else:
                out.append((doc, line))
        return out, start + end

    def _mutable(self, shard: Path) -> Iterator[tuple[dict, str]]:
        for f in self.mutable_files(shard):
            for doc, _line in self.read(f)[0]:
                yield doc, canonical_line(doc)

    def _write_index(self, seg: Path,
                     entries: Iterable[tuple[Optional[str], int]]) -> dict:
        """Index ``seg`` from its ``(key or None, line bytes)`` entries."""
        keys: dict[str, list[int]] = {}
        off = 0
        for key, size in entries:
            if key is not None:
                keys.setdefault(key, []).append(off)
            off += size
        idx = {"schema": self.schema.version,
               "records": sum(map(len, keys.values())), "keys": keys}
        try:
            write_atomic(_idx_path(seg), json.dumps(idx, sort_keys=True))
        except OSError:
            pass  # a read-only store keeps the index in memory
        self._idx[seg] = idx
        return idx

    def index(self, seg: Path) -> dict:
        """``seg``'s index, read from its sidecar or rebuilt if lost."""
        idx = self._idx.get(seg)
        if idx is not None:
            return idx
        try:
            idx = json.loads(_idx_path(seg).read_text())
            if not isinstance(idx["keys"], dict):
                raise ValueError("malformed index")
        except (OSError, ValueError, TypeError, KeyError):
            try:
                blob = seg.read_bytes()
            except OSError:
                blob = b""
            entries = []
            for raw in blob.split(b"\n")[:-1]:  # complete lines only
                doc = _parse(raw.decode("utf-8", errors="replace"))
                entries.append((doc["key"] if doc else None, len(raw) + 1))
            return self._write_index(seg, entries)
        self._idx[seg] = idx
        return idx

    def _at(self, seg: Path, offsets) -> Iterator[tuple[dict, str]]:
        try:
            with open(seg, "rb") as fh:
                for off in offsets:
                    fh.seek(off)
                    line = fh.readline().decode("utf-8", errors="replace")
                    doc = _parse(line)
                    if doc is None:
                        self.skipped += 1
                    else:
                        yield doc, line.strip()
        except OSError:
            return

    def records(self, shard: Path, key: Optional[str] = None,
                ) -> dict[str, dict]:
        """``{canonical line: record}`` of a shard, or of one key in it."""
        out: dict[str, dict] = {}
        for seg in self.segments(shard):
            idx = self.index(seg)["keys"]
            if key is None:
                pairs = self.read(seg)[0]
            else:
                pairs = self._at(seg, idx.get(key, ()))
            for doc, line in pairs:
                out[line] = doc
        for doc, line in self._mutable(shard):
            if key is None or doc["key"] == key:
                out[line] = doc
        return out

    def keys(self, shard: Path) -> set[str]:
        """Every record key of a shard, from segment indexes plus tails."""
        out: set[str] = set()
        for seg in self.segments(shard):
            out.update(self.index(seg)["keys"])
        out.update(doc["key"] for doc, _line in self._mutable(shard))
        return out

    def latest(self, shard: Path, key: str) -> Optional[dict]:
        """The last record of ``key`` in history order.

        Segment lines of one key are in history order when the schema
        keeps them so, as :class:`~repro.obs.store.RunStore` does: each
        segment contributes only its index-addressed last record for the
        key, and only the small mutable tail is parsed in full.
        """
        cands = [pair for seg in self.segments(shard)
                 for pair in self._at(seg, self.index(seg)["keys"]
                                      .get(key, [])[-1:])]
        cands += [(doc, line) for doc, line in self._mutable(shard)
                  if doc["key"] == key]
        return max(cands, key=lambda pair: order_key(*pair),
                   default=(None, None))[0]

    # -- compaction --------------------------------------------------------------

    def compact(self, shard: Path) -> dict:
        """Fold every file of ``shard`` into one immutable segment.

        The segment holds the schema's survivors of the shard's record
        set, re-canonicalized, so its bytes (and name) are a pure
        function of that set: any append interleaving compacts to the
        same segment, and re-compacting is a no-op.  Returns the segment's
        ``records`` (0 when the shard holds none and nothing changed),
        the ``removed`` file count and the ``skipped`` line count.

        Concurrent writers lose nothing.  The open tail is first renamed
        to a ``pend-*`` snapshot: writers opening by path start a fresh
        tail, and :meth:`append` re-lands a line that a stale descriptor
        put in the snapshot.  Lines that reach a snapshot after it was
        read are moved to the live tail before the snapshot is removed.
        """
        skipped0 = self.skipped
        open_f = shard / OPEN
        if open_f.exists():
            try:
                os.rename(open_f, shard / f"pend-{uuid.uuid4().hex[:12]}.jsonl")
            except OSError:
                pass
        folded = [f for f in sorted(shard.glob("*.jsonl")) if f.name != OPEN]
        consumed: dict[Path, int] = {}
        recs: dict[str, dict] = {}
        for f in folded:
            pairs, consumed[f] = self.read(f, final=False)
            for doc, _line in pairs:
                recs[canonical_line(doc)] = doc
        kept = self.schema.survivors(recs) if recs else []
        removed = 0
        if kept:
            body = "".join(ln + "\n" for ln in kept)
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
            seg = shard / f"seg-{digest[:12]}.jsonl"
            if not seg.exists():
                write_atomic(seg, body)
            self._write_index(seg, ((recs[ln]["key"], len(ln.encode("utf-8")) + 1)
                                    for ln in kept))
            for f in folded:
                if f == seg:
                    continue
                start = consumed[f]
                while f.name.startswith("pend-"):  # drain late lines
                    late, start = self.read(f, start, final=False)
                    if not late:
                        break
                    for doc, _line in late:
                        if canonical_line(doc) not in recs:
                            self.append(doc)
                if _size(f) > start:
                    self.skipped += 1  # a torn tail dies with its file
                removed += _unlink(f)
                _unlink(_idx_path(f))
                self._idx.pop(f, None)
        return {"records": len(kept), "removed": removed,
                "skipped": self.skipped - skipped0}

    # -- change feed -------------------------------------------------------------

    def tail(self, cursor: Optional[dict] = None) -> tuple[list[dict], dict]:
        """Records appended since ``cursor``, in history order.

        Returns ``(records, cursor)``; pass the cursor back to get only
        newer records.  The cursor is a plain JSON-serializable dict, so
        a follower can persist it across processes.  Steady state reads
        only the bytes appended to each shard's files; when a shard's
        file set changed underneath the cursor (a compaction), the shard
        is re-read and already-delivered records are filtered out by the
        cursor's high-water mark (max delivered ``(wall_time, line)``),
        so followers see no duplicates.  Records back-dated below the
        mark that land *during* a compaction window may be skipped --
        followers needing them should re-ingest from scratch.
        """
        state = {} if cursor is None else dict(cursor.get("shards", {}))
        batch: list[tuple[tuple[float, str], dict]] = []
        new_state: dict[str, dict] = {}
        for shard in self.shards():
            name = shard.relative_to(self.root).as_posix()
            files = {f.name: f for f in sorted(shard.glob("*.jsonl"))}
            st = state.get(name)
            mark = tuple(st["mark"]) if st and st.get("mark") else None
            offsets = dict(st.get("files", {})) if st else {}
            # unchanged file set, none truncated or replaced: read on
            same_files = (st is not None and set(offsets) == set(files)
                          and all(_size(f) >= offsets[fname]
                                  for fname, f in files.items()))
            got: dict[str, dict] = {}
            new_offsets: dict[str, int] = {}
            for fname, f in files.items():
                start = offsets[fname] if same_files else 0
                pairs, new_offsets[fname] = self.read(f, start, final=False)
                for doc, _line in pairs:
                    got[canonical_line(doc)] = doc
            # on a re-read (first sight, or compaction), drop what the
            # mark says was already delivered
            fresh = sorted(
                ((order_key(doc, line), doc) for line, doc in got.items()),
                key=lambda pair: pair[0])
            if not same_files and mark is not None:
                fresh = [pair for pair in fresh if pair[0] > mark]
            if fresh and (mark is None or fresh[-1][0] > mark):
                mark = fresh[-1][0]
            batch.extend(fresh)
            new_state[name] = {
                "files": new_offsets,
                "mark": list(mark) if mark is not None else None,
            }
        batch.sort(key=lambda pair: pair[0])
        return ([doc for _ok, doc in batch],
                {"schema": self.schema.version, "shards": new_state})
