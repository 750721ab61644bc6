"""Differential test of the runtime decision paths (paper III-C step 2).

Three callers turn a sampled tuning table into a decision for an
arbitrary ``(coll, n, p, nbytes)``:

- :meth:`LookupTable.decide` (and its ``as_decision_fn`` hook),
- :meth:`DecisionService.decide` with a ``Query(machine=...)``,
- :meth:`DecisionService.as_decision_fn`.

Over every committed ``results/tuning_*.json`` table they must agree on
a grid of on- and off-geometry, on- and off-sample queries.  Each
committed table holds one ``(n, p)`` per collective, as every Autotuner
report does.

The union of one machine family's tables holds several geometries per
collective.  There the table's old rule (nearest by ``dn + dp``, the sum
of the per-axis log distances) and the service's rule (nearest by
commsize log distance, the caller's own split winning ties) pick
different geometries for some off-geometry queries.  Both paths now
resolve through the one lookup core, so they agree there too; the
old rule is kept below as an oracle, and the queries it answers
differently are pinned.
"""

import math
from pathlib import Path

import pytest

from repro.core.han import HanModule
from repro.hardware import shaheen2, stampede2
from repro.serve.service import DecisionService, Query
from repro.serve.store import DecisionStore
from repro.tuning.lookup import LookupTable

RESULTS = Path(__file__).resolve().parents[2] / "results"
FAMILIES = {"shaheen2": shaheen2, "stampede2": stampede2}

NODES = (1, 2, 3, 4, 6, 8, 12, 16, 32)
PPNS = (1, 2, 4, 6, 8, 12, 16)
#: sampled sizes (1 KiB, 64 KiB, 1 MiB), a log-midpoint tie (2 KiB),
#: interior off-sample sizes and sizes outside the sampled range
SIZES = (256.0, 1024.0, 2048.0, 3000.0, 65536.0, 100000.0, 1048576.0,
         2.0 ** 26)
COLLS = ("bcast", "allreduce")


#: the committed tables (a local experiment run may add more files)
TABLES = (
    "tuning_shaheen2_16x16_bcast.json",
    "tuning_shaheen2_6x6_allreduce_bcast.json",
    "tuning_shaheen2_8x8_allreduce.json",
    "tuning_shaheen2_8x8_bcast.json",
    "tuning_stampede2_2x12_allreduce.json",
    "tuning_stampede2_4x12_allreduce.json",
    "tuning_stampede2_6x6_allreduce_bcast.json",
    "tuning_stampede2_8x12_allreduce.json",
    "tuning_stampede2_8x8_allreduce.json",
    "tuning_stampede2_8x8_bcast.json",
)


def _tables():
    return [(name.split("_")[1], LookupTable.load(RESULTS / name))
            for name in TABLES]


def _union(family):
    union = LookupTable()
    for fam, table in _tables():
        if fam == family:
            for (t, n, p, m), cfg in table.entries.items():
                union.put(t, n, p, m, cfg)
    return union


def _serving(family, table):
    """The table as a decision store under the family's hardware band."""
    base = FAMILIES[family]()
    store = DecisionStore()
    for (t, n, p, m), cfg in table.entries.items():
        store.put_decision(base, t, m, cfg, n=n, p=p, wall_time=0.0)
    return base, DecisionService(store)


def _old_key(table, n, p, m, t):
    """The table's pre-core rule: nearest by ``dn + dp``, then size.

    Returns the chosen key, or None when the collective has no samples.
    """
    keys = [k for k in table.entries if k[0] == t]
    if not keys:
        return None

    def key_distance(k):
        _t, kn, kp, km = k
        dn = abs(math.log2(max(kn, 1)) - math.log2(max(n, 1)))
        dp = abs(math.log2(max(kp, 1)) - math.log2(max(p, 1)))
        dm = abs(math.log2(max(km, 1.0)) - math.log2(max(m, 1.0)))
        return (dn + dp, dm, kn, kp, km)

    return min(keys, key=key_distance)


def _old_rule(table, n, p, m, t):
    key = _old_key(table, n, p, m, t)
    return HanModule.default_config(m) if key is None else table.entries[key]


def _paths(family, table):
    """Yield ``(n, p, m, t, answers)`` over the grid, one answer per path."""
    base, svc = _serving(family, table)
    table_fn = table.as_decision_fn()
    svc_fn = svc.as_decision_fn(base)
    for n in NODES:
        for p in PPNS:
            machine = FAMILIES[family](num_nodes=n, ppn=p)
            for m in SIZES:
                for t in COLLS:
                    answers = {
                        "table": table.decide(n, p, m, t),
                        "table_fn": table_fn(n, p, m, t),
                        "service": svc.decide(
                            Query(t, m, machine=machine)).config,
                        "service_fn": svc_fn(n, p, m, t),
                    }
                    yield n, p, m, t, answers


def test_all_paths_agree_on_every_committed_table():
    queries = 0
    for family, table in _tables():
        for n, p, m, t, answers in _paths(family, table):
            want = answers["table"]
            for path, got in answers.items():
                assert got == want, (family, n, p, m, t, path)
            # one geometry per collective: the old rule agrees as well
            assert _old_rule(table, n, p, m, t) == want
            queries += 1
    assert queries == 10_080


#: Union tables: how many grid queries the old ``dn + dp`` rule answers
#: differently from the service, and the query geometries ``(coll, n, p)``
#: they fall on.  Before the lookup core, ``LookupTable.decide`` was that
#: rule and disagreed with the service on exactly these queries.  None is
#: a sampled geometry.
OLD_RULE_DIFFERS = {
    "shaheen2": (2, {("bcast", 32, 6), ("bcast", 32, 8)}),
    "stampede2": (246, {
        ("allreduce", 2, 16), ("allreduce", 3, 1), ("allreduce", 3, 2),
        ("allreduce", 3, 4), ("allreduce", 3, 6), ("allreduce", 3, 8),
        ("allreduce", 3, 12), ("allreduce", 4, 1), ("allreduce", 4, 2),
        ("allreduce", 4, 4), ("allreduce", 4, 6), ("allreduce", 4, 8),
        ("allreduce", 4, 16), ("allreduce", 6, 1), ("allreduce", 6, 2),
        ("allreduce", 6, 4), ("allreduce", 6, 8), ("allreduce", 6, 12),
        ("allreduce", 8, 1), ("allreduce", 8, 2), ("allreduce", 8, 6),
        ("allreduce", 12, 1), ("allreduce", 12, 2), ("allreduce", 12, 4),
        ("allreduce", 12, 6), ("allreduce", 12, 8), ("allreduce", 16, 1),
        ("allreduce", 16, 4), ("allreduce", 16, 6), ("allreduce", 16, 8),
        ("allreduce", 32, 2), ("allreduce", 32, 4), ("allreduce", 32, 6),
        ("allreduce", 32, 8),
    }),
}


def _commsize_distance(kn, kp, n, p):
    return abs(math.log2(kn * kp) - math.log2(n * p))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_union_tables_resolve_by_the_service_rule(family):
    table = _union(family)
    sampled = {(t, n, p) for (t, n, p, _m) in table.entries}
    geoms = {t: {(n, p) for (tt, n, p) in sampled if tt == t} for t in COLLS}
    differs, where = 0, set()
    for n, p, m, t, answers in _paths(family, table):
        want = answers["service"]
        for path, got in answers.items():
            assert got == want, (family, n, p, m, t, path)
        if _old_rule(table, n, p, m, t) != want:
            differs += 1
            where.add((t, n, p))
            # the old rule strayed from the commsize-nearest geometry
            _t, kn, kp, _km = _old_key(table, n, p, m, t)
            nearest = min(_commsize_distance(gn, gp, n, p)
                          for gn, gp in geoms[t])
            assert _commsize_distance(kn, kp, n, p) > nearest
    assert (differs, where) == OLD_RULE_DIFFERS[family]
    assert not where & sampled
