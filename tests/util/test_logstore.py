"""Append-only log core: atomic publish, torn reads, re-land, late lines.

The store-level crash-consistency battery (both schemas) lives in
``tests/obs/test_store.py``; these cases drive the core directly under
a minimal schema.
"""

import json
import os

import pytest

from repro.util.logstore import LogStore, Schema, write_atomic

SCHEMA = Schema(version=1, shard_glob="*", shard=lambda doc: doc["key"][:1],
                survivors=sorted)


def _doc(key, wall):
    return {"key": key, "wall_time": float(wall)}


def test_write_atomic_replaces_whole_file_and_leaves_no_temp(tmp_path,
                                                             monkeypatch):
    path = tmp_path / "f.json"
    write_atomic(path, "old")
    write_atomic(path, "new")
    assert path.read_text() == "new"

    def broken(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", broken)
    with pytest.raises(OSError):
        write_atomic(path, "lost")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


def test_read_defers_a_partial_line_and_counts_bad_ones(tmp_path):
    log = LogStore(tmp_path, SCHEMA)
    f = tmp_path / "a" / "open.jsonl"
    f.parent.mkdir()
    good = json.dumps(_doc("a1", 0)) + "\n"
    bad = 'not json\n["a list"]\n{"no": "key"}\n'
    f.write_text(good + bad + '{"key": "a2"')
    pairs, end = log.read(f, final=False)
    assert [doc["key"] for doc, _line in pairs] == ["a1"]
    assert end == len(good) + len(bad)  # the partial line stays unread
    assert log.skipped == 3
    assert log.read(f, end) == ([], end)
    assert log.skipped == 4  # a final read counts the partial line too


def test_append_relands_a_line_whose_tail_was_renamed(tmp_path, monkeypatch):
    """A compaction that renames the tail between an append's open and
    its inode check must not take the line with it."""
    log = LogStore(tmp_path, SCHEMA)
    tail = tmp_path / "a" / "open.jsonl"
    real_write = os.write
    renamed = []

    def write(fd, data):
        n = real_write(fd, data)
        if not renamed:
            renamed.append(True)
            os.rename(tail, tail.with_name("pend-x.jsonl"))
        return n

    monkeypatch.setattr(os, "write", write)
    log.append(_doc("a1", 0))
    monkeypatch.undo()
    assert renamed and tail.exists()
    assert [doc["key"] for doc, _ in log.read(tail)[0]] == ["a1"]
    assert list(log.records(tmp_path / "a").values()) == [_doc("a1", 0)]


def test_compact_moves_late_lines_to_the_live_tail(tmp_path, monkeypatch):
    """A writer holding the old tail's descriptor lands its line in the
    snapshot after compaction read it; the line moves to the live tail."""
    log = LogStore(tmp_path, SCHEMA)
    log.append(_doc("a1", 0))
    shard = tmp_path / "a"
    stale = os.open(shard / "open.jsonl", os.O_WRONLY | os.O_APPEND)
    real_replace = os.replace

    def replace(src, dst):
        name = os.path.basename(os.fspath(dst))
        if name.startswith("seg-") and name.endswith(".jsonl"):
            os.write(stale, (json.dumps(_doc("a2", 1)) + "\n").encode())
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    try:
        res = log.compact(shard)
    finally:
        os.close(stale)
    monkeypatch.undo()
    assert res == {"records": 1, "removed": 1, "skipped": 0}
    assert not list(shard.glob("pend-*"))
    assert [doc["key"] for doc, _ in log.read(shard / "open.jsonl")[0]] == ["a2"]
    assert sorted(doc["key"] for doc in log.records(shard).values()) == \
        ["a1", "a2"]


def test_lost_or_corrupt_index_sidecar_is_rebuilt(tmp_path):
    log = LogStore(tmp_path, SCHEMA)
    for i in range(3):
        log.append(_doc(f"a{i}", i))
    log.compact(tmp_path / "a")
    (seg,) = LogStore.segments(tmp_path / "a")
    sidecar = seg.with_suffix(".idx.json")
    want = json.loads(sidecar.read_text())
    assert want["records"] == 3
    sidecar.write_text("{torn")
    assert LogStore(tmp_path, SCHEMA).index(seg) == want
    assert json.loads(sidecar.read_text()) == want
    assert LogStore(tmp_path, SCHEMA).latest(tmp_path / "a", "a2") == \
        _doc("a2", 2)
