"""Run store: key contract, append/read round-trip, torn-line tolerance,
the one band identity, and the crash-consistency battery on both stores."""

import json
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.core.config import HanConfig
from repro.hardware.machines import shaheen2, tiny_cluster
from repro.obs.store import (
    RunStore,
    config_digest,
    run_key,
    summarize_measurement,
    summarize_point,
)
from repro.serve.store import DecisionStore, decision_record
from repro.tuning.cache import band_digest
from repro.tuning.measure import measure_collective

KiB = 1024


def _machine():
    return shaheen2(num_nodes=2, ppn=2)


def test_run_key_ignores_seed_and_time():
    m = _machine()
    a = run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB, seed=0))
    b = run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB, seed=99))
    assert a == b  # seed is not part of the tuning identity
    assert a != run_key(m, "bcast", 128 * KiB, HanConfig(fs=64 * KiB))
    assert a != run_key(m, "reduce", 64 * KiB, HanConfig(fs=64 * KiB))
    assert a != run_key(m, "bcast", 64 * KiB, HanConfig(fs=128 * KiB))
    assert a != run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB),
                        library="openmpi")
    assert a != run_key(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB),
                        extra={"plan": "noisy"})


def test_config_digest_stable_across_seeds():
    assert config_digest(HanConfig(fs=1, seed=0)) == \
        config_digest(HanConfig(fs=1, seed=7))
    assert config_digest(HanConfig(fs=1)) != config_digest(HanConfig(fs=2))
    assert config_digest(None) != config_digest(HanConfig(fs=1))


def test_store_append_read_round_trip(tmp_path):
    store = RunStore(tmp_path / "store")
    m = _machine()
    cfg = HanConfig(fs=64 * KiB)
    meas = measure_collective(m, "bcast", 64 * KiB, cfg)
    key = store.append(summarize_measurement(m, meas))
    store.append(summarize_measurement(m, meas))
    assert store.keys() == [key]
    runs = store.runs(key)
    assert len(runs) == 2 and len(store) == 2
    for doc in runs:
        assert doc["coll"] == "bcast"
        assert doc["time"] == meas.time
        assert doc["per_rank"] == list(meas.per_rank)
        assert doc["config_digest"] == config_digest(cfg)
        assert doc["source"] == "measure_collective"
        assert not doc["faulted"]
    assert store.latest(key) == runs[-1]


def test_store_rejects_keyless_docs(tmp_path):
    import pytest

    store = RunStore(tmp_path)
    with pytest.raises(ValueError):
        store.append({"coll": "bcast"})


def test_store_skips_torn_lines(tmp_path):
    store = RunStore(tmp_path)
    m = _machine()
    key = store.append(summarize_point(m, "bcast", 1024, 1e-4))
    f = store._open_file(key)
    with open(f, "a") as fh:
        fh.write('{"truncated": ')  # dead writer mid-line
    assert len(store.runs(key)) == 1


def test_measure_collective_appends_on_cache_hit(tmp_path):
    from repro.tuning.cache import MeasurementCache

    store = RunStore(tmp_path / "store")
    cache = MeasurementCache()
    m = _machine()
    cfg = HanConfig(fs=64 * KiB)
    a = measure_collective(m, "bcast", 64 * KiB, cfg, cache=cache,
                           store=store)
    b = measure_collective(m, "bcast", 64 * KiB, cfg, cache=cache,
                           store=store)
    assert a == b
    assert cache.stats()["hits"] == 1
    # both the fresh measurement and the replay entered the history
    (key,) = store.keys()
    assert len(store.runs(key)) == 2


def test_store_lines_are_valid_json(tmp_path):
    store = RunStore(tmp_path)
    m = _machine()
    key = store.append(summarize_point(m, "allreduce", 2048, 2e-4,
                                       library="openmpi"))
    f = store._open_file(key)
    lines = f.read_text().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["library"] == "openmpi"
    assert doc["schema_version"] == 1


# -- fleet-scale layout: shards, segments, compaction, tail -------------------


def _point(machine, coll, nbytes, time_s, wall):
    """A run summary with a pinned wall_time, for deterministic order."""
    doc = summarize_point(machine, coll, nbytes, time_s)
    doc["wall_time"] = float(wall)
    return doc


def _docs(machine, n=6):
    out = []
    for i in range(n):
        out.append(_point(machine, "bcast", 1024, 1e-3 + 1e-6 * i, wall=i))
        out.append(_point(machine, "allreduce", 2048, 2e-3 + 1e-6 * i,
                          wall=i))
    return out


def _segment_bytes(root):
    """{relative segment path: bytes} of every segment under a store."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.glob("*/seg-*.jsonl")}


def test_compact_is_order_independent_and_byte_identical(tmp_path):
    m = _machine()
    docs = _docs(m)
    a = RunStore(tmp_path / "a")
    b = RunStore(tmp_path / "b")
    for doc in docs:
        a.append(doc)
    for doc in reversed(docs):
        b.append(doc)
        b.append(doc)  # exact duplicates must fold away
    a.compact()
    b.compact()
    segs_a, segs_b = _segment_bytes(a.root), _segment_bytes(b.root)
    assert segs_a and segs_a == segs_b
    for key in a.keys():
        assert a.runs(key) == b.runs(key)


def test_compact_preserves_history_and_is_idempotent(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    for doc in _docs(m):
        store.append(doc)
    before = {key: runs for key, runs in store.groups()}
    res = store.compact()
    assert res["records"] == len(store) == sum(map(len, before.values()))
    assert {key: runs for key, runs in store.groups()} == before
    for key in before:
        assert store.latest(key) == before[key][-1]
    segs = _segment_bytes(store.root)
    store.compact()  # re-compacting an already-compact store is a no-op
    assert _segment_bytes(store.root) == segs


def test_compact_folds_later_appends_into_one_segment(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    store.append(_point(m, "bcast", 1024, 1e-3, wall=0))
    store.compact()
    store.append(_point(m, "bcast", 1024, 1.1e-3, wall=1))
    store.compact()
    (key,) = store.keys()
    shard = store._shard_dir(key)
    assert len(store._log.segments(shard)) == 1
    assert store._log.mutable_files(shard) == []
    assert len(store.runs(key)) == 2


def test_concurrent_appends_during_compact_lose_nothing(tmp_path):
    import threading

    m = _machine()
    docs = [_point(m, "bcast", 1024, 1e-3 + 1e-6 * i, wall=i)
            for i in range(120)]

    def writer(chunk):
        store = RunStore(tmp_path)  # own handle, own fds
        for doc in chunk:
            store.append(doc)

    threads = [threading.Thread(target=writer, args=(docs[i::3],))
               for i in range(3)]
    for t in threads:
        t.start()
    compactor = RunStore(tmp_path)
    for _ in range(8):
        compactor.compact()
    for t in threads:
        t.join()
    compactor.compact()
    store = RunStore(tmp_path)
    (key,) = store.keys()
    got = store.runs(key)
    assert len(got) == len(docs)
    assert sorted(d["wall_time"] for d in got) == \
        [d["wall_time"] for d in docs]


def test_segment_index_sidecars(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    for doc in _docs(m):
        store.append(doc)
    store.compact()
    segs = list(store.root.glob("*/seg-*.jsonl"))
    assert segs
    for seg in segs:
        idx = json.loads(seg.with_suffix(".idx.json").read_text())
        assert idx["records"] == sum(map(len, idx["keys"].values()))
    # a lost sidecar is rebuilt transparently by a fresh handle
    expect = {key: runs for key, runs in store.groups()}
    for seg in segs:
        seg.with_suffix(".idx.json").unlink()
    fresh = RunStore(tmp_path)
    assert {key: runs for key, runs in fresh.groups()} == expect
    assert all(seg.with_suffix(".idx.json").exists() for seg in segs)


def test_legacy_per_group_layout_reads_and_compacts(tmp_path):
    m = _machine()
    doc = _point(m, "bcast", 1024, 1e-3, wall=0)
    key = doc["key"]
    legacy_dir = tmp_path / key[:2]
    legacy_dir.mkdir(parents=True)
    legacy = legacy_dir / f"{key}.jsonl"
    legacy.write_text(json.dumps(doc, sort_keys=True) + "\n")
    store = RunStore(tmp_path)
    assert store.keys() == [key]
    assert store.runs(key) == [doc]
    assert store.latest(key) == doc
    store.append(_point(m, "bcast", 1024, 1.1e-3, wall=1))
    store.compact()
    assert not legacy.exists()
    assert len(store.runs(key)) == 2


def test_runs_are_in_wall_time_order_across_files(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    store.append(_point(m, "bcast", 1024, 3e-3, wall=2))
    store.compact()
    store.append(_point(m, "bcast", 1024, 1e-3, wall=0))  # back-dated
    store.append(_point(m, "bcast", 1024, 2e-3, wall=1))
    (key,) = store.keys()
    assert [d["wall_time"] for d in store.runs(key)] == [0.0, 1.0, 2.0]
    assert store.latest(key)["wall_time"] == 2.0


def test_tail_cursor_sees_each_record_once(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    for i in range(3):
        store.append(_point(m, "bcast", 1024, 1e-3, wall=i))
    records, cur = store.tail()
    assert [d["wall_time"] for d in records] == [0.0, 1.0, 2.0]
    records, cur = store.tail(cur)
    assert records == []  # nothing new
    store.append(_point(m, "bcast", 1024, 1e-3, wall=3))
    store.append(_point(m, "allreduce", 2048, 2e-3, wall=4))
    records, cur = store.tail(cur)
    assert [d["wall_time"] for d in records] == [3.0, 4.0]
    store.compact()
    records, cur = store.tail(cur)
    assert records == []  # compaction moved bytes, not records
    store.append(_point(m, "bcast", 1024, 1e-3, wall=5))
    records, cur = store.tail(cur)
    assert [d["wall_time"] for d in records] == [5.0]


def test_tail_cursor_is_json_serializable(tmp_path):
    m = _machine()
    store = RunStore(tmp_path)
    store.append(_point(m, "bcast", 1024, 1e-3, wall=0))
    _records, cur = store.tail()
    revived = json.loads(json.dumps(cur))
    store.append(_point(m, "bcast", 1024, 1e-3, wall=1))
    records, _cur = store.tail(revived)
    assert [d["wall_time"] for d in records] == [1.0]


def test_merge_from_is_idempotent_union(tmp_path):
    m = _machine()
    a = RunStore(tmp_path / "a")
    b = RunStore(tmp_path / "b")
    docs = _docs(m, n=3)
    for doc in docs[: len(docs) // 2]:
        a.append(doc)
    for doc in docs:
        b.append(doc)
    a.merge_from(b)
    a.merge_from(b)  # duplicates collapse on read
    a.compact()
    b.compact()
    assert {k: r for k, r in a.groups()} == {k: r for k, r in b.groups()}


# -- one band identity ---------------------------------------------------------


def test_run_and_decision_stores_share_one_band():
    m = _machine()
    meas = measure_collective(m, "bcast", 64 * KiB, HanConfig(fs=64 * KiB))
    assert summarize_measurement(m, meas)["band"] == band_digest(m)
    for machine in (m, m.scaled(num_nodes=8, ppn=4)):
        summary = summarize_point(machine, "bcast", 1024, 1e-3)
        rec = decision_record(machine, "bcast", 1024, HanConfig())
        assert summary["band"] == rec["band"] == band_digest(m)


def test_band_digest_is_pinned():
    # decision-store band directories are named after this digest
    assert band_digest(tiny_cluster()) == (
        "4fa078bcfd72ac85c083ac45507522c30b3310897e4b0bbc14f048f1bab1e02e")


def test_cli_compact_reports_dropped_lines(tmp_path, capsys):
    from repro.obs import cli

    store = RunStore(tmp_path)
    key = store.append(_point(_machine(), "bcast", 1024, 1e-3, wall=0))
    with open(store._open_file(key), "a") as fh:
        fh.write("not json\n")
    assert cli.main(["compact", str(tmp_path)]) == 0
    assert "1 torn or corrupt line(s) dropped" in capsys.readouterr().out


# -- the crash-consistency battery, on both stores ------------------------------


class _Runs:
    """RunStore under the battery: record i is run i of one group."""

    open = RunStore

    @staticmethod
    def doc(i, coll="bcast"):
        return _point(_machine(), coll, 1024, 1e-3 + 1e-6 * i, wall=i)

    @staticmethod
    def records(store):
        return [doc for _key, runs in store.groups() for doc in runs]


class _Decisions:
    """DecisionStore under the battery: record i is point i of a shard."""

    open = DecisionStore

    @staticmethod
    def doc(i, coll="bcast"):
        return decision_record(_machine(), coll, (64 + i) * KiB,
                               HanConfig(fs=64 * KiB), expected_time=1e-4,
                               wall_time=float(i))

    @staticmethod
    def records(store):
        return [rec for band in store.bands() for coll in store.colls(band)
                for rec in store.records(band, coll)]


@pytest.fixture(params=[_Runs, _Decisions],
                ids=["RunStore", "DecisionStore"])
def kind(request):
    return request.param


def _walls(kind, root):
    """Wall times of every record a fresh handle on ``root`` reads."""
    return sorted(doc["wall_time"] for doc in kind.records(kind.open(root)))


def _all_segment_bytes(root):
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("seg-*.jsonl")}


def test_battery_torn_and_corrupt_lines_skipped_and_counted(tmp_path, kind):
    store = kind.open(tmp_path)
    store.append(kind.doc(0))
    with open(store._log.shard_dir(kind.doc(0)) / "open.jsonl", "a") as fh:
        fh.write('not json\n{"truncated": ')  # bit rot, then a dead writer
    assert _walls(kind, tmp_path) == [0.0]
    # both lines die with the folded files, and are counted doing so
    assert store.compact()["skipped"] == 2
    assert store.compact()["skipped"] == 0
    assert _walls(kind, tmp_path) == [0.0]


def test_battery_concurrent_appends_during_compact_lose_nothing(tmp_path,
                                                                kind):
    docs = [kind.doc(i) for i in range(120)]

    def writer(chunk):
        store = kind.open(tmp_path)  # own handle, own fds
        for doc in chunk:
            store.append(dict(doc))

    threads = [threading.Thread(target=writer, args=(docs[i::3],))
               for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave writers and compactions finely
    try:
        for t in threads:
            t.start()
        compactor = kind.open(tmp_path)
        for _ in range(8):
            compactor.compact()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    compactor.compact()
    assert _walls(kind, tmp_path) == [float(i) for i in range(120)]


def test_battery_compact_is_order_independent_and_byte_identical(tmp_path,
                                                                 kind):
    docs = [kind.doc(i, coll) for i in range(6)
            for coll in ("bcast", "allreduce")]
    a = kind.open(tmp_path / "a")
    b = kind.open(tmp_path / "b")
    for doc in docs:
        a.append(dict(doc))
    for doc in reversed(docs):
        b.append(dict(doc))
        b.append(dict(doc))  # exact duplicates must fold away
    a.compact()
    b.compact()
    segs = _all_segment_bytes(a.root)
    assert len(segs) >= 2 and segs == _all_segment_bytes(b.root)
    assert kind.records(kind.open(a.root)) == kind.records(kind.open(b.root))


def test_battery_recompact_is_a_no_op(tmp_path, kind):
    store = kind.open(tmp_path)
    for i in range(6):
        store.append(kind.doc(i))
    store.compact()
    files = {str(p.relative_to(tmp_path)): p.read_bytes()
             for p in tmp_path.rglob("*") if p.is_file()}
    res = store.compact()
    assert res["records"] == 6
    assert {str(p.relative_to(tmp_path)): p.read_bytes()
            for p in tmp_path.rglob("*") if p.is_file()} == files
    assert _walls(kind, tmp_path) == [float(i) for i in range(6)]


def test_battery_append_from_second_handle_mid_compaction(tmp_path, kind,
                                                          monkeypatch):
    """A record that lands while compact() is between reading a shard and
    removing its old files must survive the compaction."""
    store = kind.open(tmp_path)
    store.append(kind.doc(0))
    real_replace = os.replace
    fired = []

    def replace(src, dst):
        # the segment is published after the shard was read and before
        # the folded files are removed
        name = os.path.basename(os.fspath(dst))
        if not fired and name.startswith("seg-") and name.endswith(".jsonl"):
            fired.append(name)
            kind.open(tmp_path).append(kind.doc(1))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    store.compact()
    monkeypatch.undo()
    assert fired
    assert _walls(kind, tmp_path) == [0.0, 1.0]
