"""Decision serving: provenance, fallbacks, strict mode, observability."""

import pytest

from repro.core.config import HanConfig
from repro.core.han import HanModule
from repro.hardware import tiny_cluster
from repro.serve.service import DecisionService, Query
from repro.serve.store import DecisionStore, band_digest, decision_record
from repro.serve.warm import WARM_SPACES
from repro.tuning import Autotuner

KiB = 1024


def _machine(num_nodes=2, ppn=2):
    return tiny_cluster(num_nodes=num_nodes, ppn=ppn)


def _warmed(colls=("bcast",)):
    machine = _machine()
    store = DecisionStore()
    tuner = Autotuner(machine, space=WARM_SPACES["quick"])
    report = tuner.tune(colls=colls, method="task+h")
    store.put_report(machine, report)
    return machine, store, report


def _put(store, machine, nbytes, fs, t, coll="bcast"):
    store.put_decision(machine, coll, nbytes, HanConfig(fs=fs),
                       expected_time=t)


def test_exact_hits_are_bit_identical_to_tuner_winners():
    machine, store, report = _warmed(colls=("bcast", "allreduce"))
    svc = DecisionService(store)
    assert report.table.entries
    for (coll, n, p, m), cfg in report.table.entries.items():
        d = svc.decide(Query(coll=coll, nbytes=m, machine=machine))
        assert d.provenance == "exact"
        assert d.config == cfg
        assert d.verdict.ok
    assert svc.stats()["decisions"] == {"exact": len(report.table.entries)}


def test_empty_store_serves_default():
    svc = DecisionService(DecisionStore())
    m = _machine()
    d = svc.decide(Query(coll="bcast", nbytes=64 * KiB, machine=m))
    assert d.provenance == "default"
    assert d.config == HanModule.default_config(64 * KiB)
    assert d.expected_time is None and d.verdict.ok and not d.refused


def test_single_point_store():
    machine = _machine()
    store = DecisionStore()
    _put(store, machine, 64 * KiB, 64 * KiB, 1e-4)
    svc = DecisionService(store)
    hit = svc.decide(Query(coll="bcast", nbytes=64 * KiB, machine=machine))
    assert hit.provenance == "exact" and hit.config.fs == 64 * KiB
    # every other size resolves to the one sample
    for m in (1.0, 8 * KiB, 4096 * KiB):
        d = svc.decide(Query(coll="bcast", nbytes=m, machine=machine))
        assert d.provenance == "nearest" and d.config.fs == 64 * KiB


def test_out_of_range_is_nearest_on_both_ends():
    machine = _machine()
    store = DecisionStore()
    _put(store, machine, 1 * KiB, 64 * KiB, 1e-4)
    _put(store, machine, 4 * KiB, 128 * KiB, 2e-4)
    svc = DecisionService(store)
    lo = svc.decide(Query(coll="bcast", nbytes=64.0, machine=machine))
    assert lo.provenance == "nearest" and lo.config.fs == 64 * KiB
    hi = svc.decide(Query(coll="bcast", nbytes=64 * KiB, machine=machine))
    assert hi.provenance == "nearest" and hi.config.fs == 128 * KiB


def test_interior_query_interpolates_time_tie_breaks_canonically():
    machine = _machine()
    store = DecisionStore()
    _put(store, machine, 1 * KiB, 64 * KiB, 1e-4)
    _put(store, machine, 4 * KiB, 128 * KiB, 2e-4)
    svc = DecisionService(store)
    # 2KB is log-equidistant from 1KB and 4KB: the canonical (smaller
    # nbytes) sample's config is served, never insertion-order luck
    d = svc.decide(Query(coll="bcast", nbytes=2 * KiB, machine=machine))
    assert d.provenance == "interpolated"
    assert d.config.fs == 64 * KiB
    # expected time is log-log interpolated between the brackets
    assert d.expected_time == pytest.approx(1.5e-4)


def test_geometry_fallback_prefers_own_split_then_log_distance():
    machine = _machine()  # 2x2, commsize 4
    store = DecisionStore()
    # two splits of commsize 4 with different winners
    _put(store, machine, 64 * KiB, 64 * KiB, 1e-4)
    store.put_decision(machine, "bcast", 64 * KiB, HanConfig(fs=256 * KiB),
                       expected_time=1e-4, n=4, p=1)
    svc = DecisionService(store)
    # ambiguous commsize + no machine: falls back, still answers
    d = svc.decide(Query(coll="bcast", nbytes=64 * KiB, commsize=4,
                         band=band_digest(machine)))
    assert d.provenance in ("exact", "nearest")
    # with the machine present its own (2, 2) split wins the tie
    own = svc.decide(Query(coll="bcast", nbytes=64 * KiB, machine=machine))
    assert own.config.fs == 64 * KiB
    # a different commsize resolves to the nearest stored geometry
    far = svc.decide(Query(coll="bcast", nbytes=64 * KiB, commsize=64,
                           band=band_digest(machine)))
    assert far.provenance == "nearest"


def test_injected_violation_is_flagged_and_refused_under_strict():
    machine = _machine()
    rec = decision_record(machine, "bcast", 64 * KiB,
                          HanConfig(fs=64 * KiB), expected_time=1e-4)
    rec["config_digest"] = "0" * 64  # tampered entry
    for strict in (False, True):
        store = DecisionStore()
        store.append(dict(rec))
        svc = DecisionService(store, strict=strict)
        d = svc.decide(Query(coll="bcast", nbytes=64 * KiB, machine=machine))
        assert not d.verdict.ok
        assert svc.stats()["violations"] == 1
        if strict:
            assert d.refused and d.config is None
            assert d.rejected_config == HanConfig(fs=64 * KiB)
            assert svc.stats()["refused"] == 1
        else:
            assert not d.refused and d.config == HanConfig(fs=64 * KiB)
            assert svc.stats()["refused"] == 0


def test_mixed_thousand_query_batch_provenance():
    machine, store, report = _warmed(colls=("bcast", "allreduce"))
    band = band_digest(machine)
    samples = [(coll, m) for (coll, _n, _p, m) in report.table.entries]
    queries, want = [], []
    for i in range(1000):
        coll, m = samples[i % len(samples)]
        kind = ("exact", "interpolated", "nearest", "default")[i % 4]
        if kind == "exact":
            queries.append(Query(coll, m, machine=machine))
        elif kind == "interpolated":
            sizes = sorted(s for c, s in samples if c == coll)
            mid = (sizes[0] * sizes[1]) ** 0.5
            queries.append(Query(coll, mid, machine=machine))
        elif kind == "nearest":
            queries.append(Query(coll, max(s for c, s in samples
                                           if c == coll) * 2.0 ** 30,
                                 machine=machine))
        else:
            queries.append(Query(coll, m, commsize=4, band="f" * 64))
        want.append(kind)
    svc = DecisionService(store)
    decisions = svc.decide_batch(queries)
    assert [d.provenance for d in decisions] == want
    # every answer carries a verdict; the tuned shard is clean
    assert all(d.verdict.ok for d in decisions)
    stats = svc.stats()
    assert stats["queries"] == 1000
    assert stats["decisions"] == {k: 250 for k in
                                  ("exact", "interpolated", "nearest",
                                   "default")}


def test_batch_metrics_and_spans():
    machine, store, _ = _warmed()
    svc = DecisionService(store, max_spans=2)
    for _ in range(3):
        svc.decide_batch([Query("bcast", 64 * KiB, machine=machine)])
    assert len(svc.spans) == 2  # bounded
    assert svc.spans[0].track == "serve"
    names = {c.name for c in svc.metrics.counters}
    assert "serve.decisions" in names
    hist = svc.metrics.histogram("serve.batch_seconds")
    assert hist.count == 3


def test_as_decision_fn_matches_table_and_defaults_on_refusal():
    machine, store, report = _warmed()
    fn = DecisionService(store).as_decision_fn(machine)
    for (coll, n, p, m), cfg in report.table.entries.items():
        assert fn(n, p, m, coll) == cfg
    # strict refusal falls back to the untuned default, never None
    rec = decision_record(machine, "bcast", 64.0, HanConfig(fs=1 * KiB),
                          expected_time=1e-4)
    rec["config_digest"] = "0" * 64
    bad = DecisionStore()
    bad.append(rec)
    strict_fn = DecisionService(bad, strict=True).as_decision_fn(machine)
    assert strict_fn(2, 2, 64.0, "bcast") == HanModule.default_config(64.0)


def test_as_decision_fn_keeps_the_callers_own_split():
    machine = _machine()  # 2x2, commsize 4
    store = DecisionStore()
    _put(store, machine, 64 * KiB, 64 * KiB, 1e-4)
    store.put_decision(machine, "bcast", 64 * KiB, HanConfig(fs=256 * KiB),
                       expected_time=1e-4, n=4, p=1)
    fn = DecisionService(store).as_decision_fn(machine)
    # both splits of commsize 4 are stored: each job gets its own point
    assert fn(2, 2, 64 * KiB, "bcast").fs == 64 * KiB
    assert fn(4, 1, 64 * KiB, "bcast").fs == 256 * KiB
    # off-sample sizes stay on the caller's split too
    assert fn(4, 1, 48 * KiB, "bcast").fs == 256 * KiB


def test_query_needs_platform_identity():
    svc = DecisionService(DecisionStore())
    with pytest.raises(ValueError):
        svc.decide(Query(coll="bcast", nbytes=64.0))
    with pytest.raises(ValueError):
        svc.decide(Query(coll="bcast", nbytes=64.0, band="f" * 64))


def test_service_sees_store_mutations():
    machine = _machine()
    store = DecisionStore()
    svc = DecisionService(store)
    q = Query(coll="bcast", nbytes=64 * KiB, machine=machine)
    assert svc.decide(q).provenance == "default"
    _put(store, machine, 64 * KiB, 64 * KiB, 1e-4)
    assert svc.decide(q).provenance == "exact"  # index cache invalidated
