"""Cross-run observatory: a sharded, content-addressed store of run records.

Every experiment in the repo used to emit a one-off JSON under
``results/`` — impossible to compare across runs.  :class:`RunStore` is
the metrics plane's persistence layer: an append-only JSON-lines store
under ``results/store/`` where every measured collective appends one
*run summary* (headline time, per-rank profile, metrics registry
document, provenance), grouped by a content-addressed key so "the same
point, measured again" lands in the same group.

Key contract — deliberately the :class:`~repro.tuning.cache.MeasurementCache`
contract (same :func:`~repro.tuning.cache.canonical` /
:func:`~repro.tuning.cache.digest` machinery, same ``HanConfig.key()``
tuning identity):

- key = SHA-256 of (machine spec, collective, nbytes, config identity,
  library, store schema version) — everything that defines *what* was
  measured, nothing about *when* or *how well* it went;
- values (the JSONL lines) carry the measured outcome plus provenance
  (``source`` experiment, wall-clock timestamp, schema version);
- appends are a single ``O_APPEND`` write of one line, so concurrent
  experiments can share a store directory without locks.

Storage is the append-only log core (:mod:`repro.util.logstore`: shards
with ``O_APPEND`` tails, torn-line-tolerant reads, content-named
segments with index sidecars, pend-rename compaction, the ``tail``
change feed).  This module adds only the run-history schema:

- **shard** -- one directory per key prefix: ``<root>/<key[:2]>/``;
- **dedup** -- every distinct record is kept (identity = canonical
  line), and a compacted segment sorts them by ``(key, wall_time,
  line)``, so :meth:`RunStore.latest` is one index seek per segment;
- **history order** -- :meth:`RunStore.runs` returns a group sorted by
  ``(wall_time, canonical line)``, identical before and after
  compaction and in any merge order;
- **legacy files** -- the pre-sharding layout (one
  ``<key[:2]>/<key>.jsonl`` per group) is read transparently and folded
  into segments by the first :meth:`RunStore.compact`.

The incremental insight engine (:class:`~repro.obs.insights.InsightEngine`)
follows :meth:`RunStore.tail` so insights update per appended record.
The insight engine (:mod:`repro.obs.insights`) consumes these groups
for guideline checks and MAD-band regression detection.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.tuning.cache import band_digest, digest
from repro.util.logstore import OPEN, LogStore, Schema, history, order_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import HanConfig
    from repro.hardware.spec import MachineSpec
    from repro.obs.core import RunRecord
    from repro.tuning.measure import CollectiveMeasurement

__all__ = [
    "STORE_SCHEMA_VERSION",
    "RunStore",
    "config_digest",
    "run_key",
    "summarize_measurement",
    "summarize_point",
    "summarize_record",
    "traffic_digest",
]

#: bump when the summary-line layout changes incompatibly
STORE_SCHEMA_VERSION = 1

#: key-prefix characters that name a shard directory
_SHARD_CHARS = 2


def config_digest(config: Optional["HanConfig"]) -> str:
    """Stable digest of a configuration's tuning identity (seed excluded)."""
    key = list(config.key()) if config is not None else None
    return digest("hanconfig", config=key)


def traffic_digest(traffic) -> str:
    """Stable digest of a resolved :class:`~repro.tenancy.TrafficPlan`.

    Identifies one background-traffic realization (tenants + seed +
    trial) so loaded measurements can be grouped, compared and served
    without shipping the whole plan around.
    """
    return digest("trafficplan", traffic=traffic)


def run_key(
    machine: "MachineSpec",
    coll: str,
    nbytes: float,
    config: Optional["HanConfig"] = None,
    library: str = "han",
    extra=None,
) -> str:
    """Content-addressed group key: *what* was measured, never when.

    ``extra`` folds additional platform identity into the key (e.g. the
    resolved fault plan) so perturbed runs never share a group — and
    hence a regression band — with clean ones.
    """
    return digest(
        "runstore",
        schema=STORE_SCHEMA_VERSION,
        machine=machine,
        coll=coll,
        nbytes=float(nbytes),
        config=list(config.key()) if config is not None else None,
        library=library,
        extra=extra,
    )


def summarize_measurement(
    machine: "MachineSpec",
    meas: "CollectiveMeasurement",
    source: str = "measure_collective",
    library: str = "han",
    metrics: Optional[dict] = None,
    plan=None,
    traffic=None,
) -> dict:
    """One store line for a :class:`CollectiveMeasurement`.

    ``plan`` is the resolved fault plan and ``traffic`` the resolved
    background :class:`~repro.tenancy.TrafficPlan` the measurement ran
    under (or ``None``); both are part of the group key, keeping noisy,
    loaded and clean runs in separate comparison groups.  ``traffic_digest``
    lets consumers (serve store, dashboards) group loaded runs by the
    exact traffic plan without re-canonicalizing it.
    """
    extra = {}
    if plan is not None:
        extra["plan"] = plan
    if traffic is not None:
        extra["traffic"] = traffic
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "key": run_key(machine, meas.coll, meas.nbytes, meas.config,
                       library=library, extra=extra or None),
        "faulted": plan is not None,
        "loaded": traffic is not None,
        "traffic_digest": traffic_digest(traffic) if traffic is not None else None,
        "machine": f"{machine.name} {machine.num_nodes}x{machine.ppn}",
        "band": band_digest(machine),
        "coll": meas.coll,
        "nbytes": float(meas.nbytes),
        "library": library,
        "config": meas.config.describe(),
        "config_digest": config_digest(meas.config),
        "time": meas.time,
        "per_rank": list(meas.per_rank),
        "trials": len(meas.trial_times) or 1,
        "spread": meas.spread,
        "sim_cost": meas.sim_cost,
        "metrics": dict(metrics) if metrics else {},
        "source": source,
        "wall_time": time.time(),
    }


def summarize_point(
    machine: "MachineSpec",
    coll: str,
    nbytes: float,
    time_s: float,
    config: Optional["HanConfig"] = None,
    library: str = "han",
    source: str = "bench",
    per_rank=(),
    sim_cost: float = 0.0,
) -> dict:
    """One store line for a bare (collective, size, time) data point.

    The escape hatch for benchmarks that only produce a headline number
    (e.g. the IMB-style library sweeps, where rival libraries have no
    :class:`HanConfig` at all).
    """
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "key": run_key(machine, coll, nbytes, config, library=library),
        "faulted": False,
        "machine": f"{machine.name} {machine.num_nodes}x{machine.ppn}",
        "band": band_digest(machine),
        "coll": coll,
        "nbytes": float(nbytes),
        "library": library,
        "config": config.describe() if config is not None else "",
        "config_digest": config_digest(config),
        "time": float(time_s),
        "per_rank": list(per_rank),
        "trials": 1,
        "spread": 0.0,
        "sim_cost": float(sim_cost),
        "metrics": {},
        "source": source,
        "wall_time": time.time(),
    }


def summarize_record(
    record: "RunRecord",
    machine: Optional["MachineSpec"] = None,
    config: Optional["HanConfig"] = None,
    source: str = "record_collective",
    library: str = "han",
) -> dict:
    """One store line for an observed run (:class:`RunRecord`).

    When ``machine`` is given the summary gets the content-addressed
    group key; without it the line is stored under a digest of the
    record's own meta (still stable, but only as comparable as the meta).
    """
    meta = record.meta
    coll = meta.get("coll", "?")
    nbytes = float(meta.get("nbytes", 0.0))
    if machine is not None:
        key = run_key(machine, coll, nbytes, config, library=library)
        machine_label = f"{machine.name} {machine.num_nodes}x{machine.ppn}"
        band = band_digest(machine)
    else:
        key = digest(
            "runstore-meta",
            schema=STORE_SCHEMA_VERSION,
            coll=coll, nbytes=nbytes,
            machine=str(meta.get("machine", "?")),
            config=str(meta.get("config", "")),
            library=library,
        )
        machine_label = str(meta.get("machine", "?"))
        band = None
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "key": key,
        "machine": machine_label,
        "band": band,
        "coll": coll,
        "nbytes": nbytes,
        "library": library,
        "config": config.describe() if config is not None
        else str(meta.get("config", "")),
        "config_digest": config_digest(config),
        "time": float(meta.get("time", record.sim_time)),
        "per_rank": list(meta.get("per_rank", ())),
        "trials": 1,
        "spread": 0.0,
        "sim_cost": record.sim_time,
        "metrics": dict(record.metrics),
        "source": source,
        "wall_time": time.time(),
    }


def _survivors(records: dict[str, dict]) -> list[str]:
    """Segment rule: every distinct line, sorted by (key, history order)."""
    return sorted(records,
                  key=lambda ln: (records[ln]["key"], order_key(records[ln], ln)))


_SCHEMA = Schema(
    version=STORE_SCHEMA_VERSION,
    shard_glob="*",
    shard=lambda doc: doc["key"][:_SHARD_CHARS],
    survivors=_survivors,
)


class RunStore:
    """Sharded append-only JSON-lines store of run summaries.

    A schema over :class:`~repro.util.logstore.LogStore`: one shard
    directory per key prefix (``<root>/<key[:2]>/``), every distinct
    record kept (dedup by canonical line), history in ``(wall_time,
    line)`` order.  The pre-sharding per-group layout
    (``<key[:2]>/<key>.jsonl``) is read as a legacy file.
    """

    def __init__(self, root: os.PathLike):
        self._log = LogStore(root, _SCHEMA)
        self.root = self._log.root
        self.appends = 0

    def _shard_dir(self, key: str) -> Path:
        return self._log.shard_dir({"key": key})

    def _open_file(self, key: str) -> Path:
        return self._shard_dir(key) / OPEN

    # -- writing ---------------------------------------------------------------

    def append(self, doc: dict) -> str:
        """Append one run summary; returns its group key."""
        key = doc.get("key")
        if not key:
            raise ValueError("run summary must carry a 'key' (see run_key)")
        doc.setdefault("schema_version", STORE_SCHEMA_VERSION)
        self._log.append(doc)
        self.appends += 1
        return key

    def merge_from(self, other: "RunStore") -> int:
        """Append every record of ``other``; returns records copied.

        Records already present collapse on read (dedup by canonical
        line) and fold away at the next :meth:`compact`, so merging is
        idempotent and order-independent at the record-set level.
        """
        copied = 0
        for _key, runs in other.groups():
            for doc in runs:
                self.append(dict(doc))
                copied += 1
        return copied

    # -- reading ---------------------------------------------------------------

    def keys(self) -> list[str]:
        """Every group key -- from segment indexes plus the open tails."""
        out: set[str] = set()
        for shard in self._log.shards():
            out |= self._log.keys(shard)
        return sorted(out)

    def runs(self, key: str) -> list[dict]:
        """Every stored run for a group, in deterministic history order
        (``wall_time``, then canonical line)."""
        return history(self._log.records(self._shard_dir(key), key))

    def latest(self, key: str) -> Optional[dict]:
        """Newest run of a group (index seek into each segment)."""
        return self._log.latest(self._shard_dir(key), key)

    def groups(self) -> Iterator[tuple[str, list[dict]]]:
        """Stream ``(key, runs)`` pairs, one shard in memory at a time."""
        for shard in self._log.shards():
            by_key: dict[str, dict[str, dict]] = {}
            for line, doc in self._log.records(shard).items():
                by_key.setdefault(doc["key"], {})[line] = doc
            for key in sorted(by_key):
                yield key, history(by_key[key])

    def __len__(self) -> int:
        """Total stored runs (not groups); streams shard by shard."""
        return sum(len(runs) for _, runs in self.groups())

    # -- compaction and streaming ----------------------------------------------

    def compact(self, prefix: Optional[str] = None) -> dict:
        """Fold each shard's files into one immutable, deduped segment
        (see :meth:`~repro.util.logstore.LogStore.compact`).

        ``skipped`` counts the torn or corrupt lines the folded files
        held; they are gone once their files are.
        """
        out = {"shards": 0, "records": 0, "removed_files": 0, "skipped": 0}
        for shard in self._log.shards():
            if prefix is not None and shard.name != prefix[:_SHARD_CHARS]:
                continue
            res = self._log.compact(shard)
            out["skipped"] += res["skipped"]
            if res["records"]:
                out["shards"] += 1
                out["records"] += res["records"]
                out["removed_files"] += res["removed"]
        return out

    def tail(self, cursor: Optional[dict] = None,
             ) -> tuple[list[dict], dict]:
        """Change feed: records appended since ``cursor``
        (see :meth:`~repro.util.logstore.LogStore.tail`)."""
        return self._log.tail(cursor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunStore {self.root} groups={len(self.keys())}>"
