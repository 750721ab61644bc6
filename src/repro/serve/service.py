"""The high-traffic query API over a :class:`~repro.serve.store.DecisionStore`.

:class:`DecisionService` answers batches of
``(machine | band, collective, nbytes, commsize)`` queries at memory
speed.  Resolution is the one lookup core,
:meth:`repro.tuning.lookup.LookupIndex.resolve` -- the same rule
:meth:`~repro.tuning.lookup.LookupTable.decide` answers with: exact
probe, nearest commsize geometry with the querying machine's own split
winning ties, log-nearest size with the canonical ``(dm, n, p, nbytes)``
tie-break.  Every answer is stamped with provenance:

=============  ==================================================
``exact``      the point was tuned: geometry and nbytes both hit
``nearest``    resolved to the log-scale nearest sampled point
``interpolated``  nbytes falls strictly between two samples of the
               matching geometry; the nearer sample's config is
               served and ``expected_time`` is log-log interpolated
``default``    no shard for (band, coll): the untuned
               :meth:`~repro.core.han.HanModule.default_config`
=============  ==================================================

Before an answer leaves the service it gets a guideline verdict
(:func:`~repro.serve.guidelines.validate_decision`); violations are
counted, and under ``strict=True`` the config is *refused* (the answer
carries the verdict and the rejected config, but no servable config).
Verdicts are cached per underlying record, so validation costs nothing
on the hot repeated-hit path.

The service keeps a metrics registry
(:class:`~repro.obs.metrics.MetricsRegistry`) — decision counters per
(provenance, collective), violation/refusal counters, a batch-latency
histogram — and bounded wall-clock :class:`~repro.obs.core.Span` records
on the batch query path, so a serving process exports through the same
observability plane as the simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import HanConfig
from repro.obs.core import Span
from repro.obs.metrics import MetricsRegistry
from repro.serve.guidelines import Verdict, validate_decision, verdict_from
from repro.serve.guidelines import COMPOSITIONS, GuidelineCheck
from repro.serve.store import DecisionStore, band_digest
from repro.tuning.lookup import LookupIndex

__all__ = ["Decision", "DecisionService", "Query"]


@dataclass(frozen=True)
class Query:
    """One runtime decision request.

    Identify the platform either by ``machine`` (a
    :class:`~repro.hardware.spec.MachineSpec`; its band digest and
    ``num_ranks`` are derived) or directly by ``band`` digest plus
    ``commsize``.
    """

    coll: str
    nbytes: float
    commsize: int = 0  # 0 = derive from machine.num_ranks
    machine: Optional[object] = None
    band: Optional[str] = None


@dataclass(frozen=True)
class Decision:
    """One served answer: config + provenance + guideline verdict."""

    query: Query
    config: Optional[HanConfig]
    provenance: str  # "exact" | "nearest" | "interpolated" | "default"
    expected_time: Optional[float]
    verdict: Verdict
    refused: bool = False
    #: point key of the underlying store record ("" for default answers)
    source_key: str = ""
    #: config withheld by strict mode (None unless refused)
    rejected_config: Optional[HanConfig] = None

    def to_doc(self) -> dict:
        from repro.tuning.lookup import config_to_dict

        q = self.query
        return {
            "coll": q.coll,
            "nbytes": float(q.nbytes),
            "commsize": int(q.commsize),
            "band": q.band or "",
            "provenance": self.provenance,
            "config": (config_to_dict(self.config)
                       if self.config is not None else None),
            "rejected_config": (config_to_dict(self.rejected_config)
                                if self.rejected_config is not None else None),
            "expected_time": self.expected_time,
            "refused": self.refused,
            "verdict": self.verdict.to_doc(),
            "source_key": self.source_key,
        }


def _default_verdict(reason: str) -> Verdict:
    return verdict_from([GuidelineCheck(
        name="default config", passed=True, severity="ok",
        detail=reason, cost_seconds=0.0,
    )])


class DecisionService:
    """Batched tuned-decision serving over a sharded store."""

    def __init__(
        self,
        store: DecisionStore,
        strict: bool = False,
        validate: bool = True,
        registry: Optional[MetricsRegistry] = None,
        max_spans: int = 256,
    ):
        self.store = store
        self.strict = strict
        self.validate = validate
        self.metrics = registry if registry is not None else MetricsRegistry()
        #: bounded wall-clock spans over decide_batch calls
        self.spans: list[Span] = []
        self.max_spans = max_spans
        self._next_sid = 0
        self._indexes: dict[tuple[str, str], tuple[int, LookupIndex]] = {}
        self._verdicts: dict[str, Verdict] = {}
        self._band_cache: dict[int, str] = {}
        # hot-path caches: parsed configs per record, resolved counter
        # handles per label set (label resolution sorts + tuples)
        self._configs: dict[str, HanConfig] = {}
        self._counters: dict[tuple, object] = {}

    # -- plumbing ----------------------------------------------------------------

    def _band_for(self, machine) -> str:
        band = self._band_cache.get(id(machine))
        if band is None:
            band = band_digest(machine)
            self._band_cache[id(machine)] = band
        return band

    def _index(self, band: str, coll: str) -> LookupIndex:
        """The shard's lookup index; each point's payload is its record."""
        cached = self._indexes.get((band, coll))
        if cached is not None and cached[0] == self.store.version:
            return cached[1]
        idx = LookupIndex()
        for rec in self.store.records(band, coll):
            idx.add(int(rec["n"]), int(rec["p"]), float(rec["nbytes"]), rec)
        self._indexes[(band, coll)] = (self.store.version, idx)
        return idx

    def _resolve(self, q: Query) -> tuple[str, int]:
        band = q.band or (self._band_for(q.machine)
                          if q.machine is not None else None)
        if band is None:
            raise ValueError("query needs a machine or a band digest")
        commsize = int(q.commsize) if q.commsize else (
            q.machine.num_ranks if q.machine is not None else 0
        )
        if commsize <= 0:
            raise ValueError("query needs a positive commsize or a machine")
        return band, commsize

    # -- validation --------------------------------------------------------------

    def _verdict_for(self, band: str, rec: dict) -> Verdict:
        cached = self._verdicts.get(rec["key"])
        if cached is not None:
            return cached
        n, p, m = int(rec["n"]), int(rec["p"]), float(rec["nbytes"])
        coll = rec["coll"]
        idx = self._index(band, coll)
        neighbors = [
            idx.points[(n, p, ms)]
            for ms in idx.sizes.get((n, p), ()) if ms != m
        ]
        comp_times = None
        operands = COMPOSITIONS.get(coll, ())
        if operands:
            comp_times = {}
            for op in operands:
                op_rec = self._index(band, op).points.get((n, p, m))
                comp_times[op] = (op_rec or {}).get("expected_time")
        verdict = validate_decision(rec, neighbors=neighbors,
                                    composition_times=comp_times)
        self._verdicts[rec["key"]] = verdict
        return verdict

    # -- the decision path -------------------------------------------------------

    def decide(self, q: Query) -> Decision:
        band, commsize = self._resolve(q)
        own = ((q.machine.num_nodes, q.machine.ppn)
               if q.machine is not None else None)
        return self._decide(q, band, commsize, own)

    def _decide(self, q: Query, band: str, commsize: int,
                own: Optional[tuple[int, int]]) -> Decision:
        m = float(q.nbytes)
        hit = self._index(band, q.coll).resolve(m, commsize, own)
        if hit is None:
            decision = Decision(
                query=Query(q.coll, m, commsize, None, band),
                config=_default_config(m),
                provenance="default",
                expected_time=None,
                verdict=_default_verdict(
                    f"no decisions stored for band {band[:12]}/{q.coll}"),
            )
            self._count(decision)
            return decision
        rec, provenance, bracket = hit
        served_time = rec.get("expected_time")
        if bracket is not None:
            # log-log interpolation between the bracketing samples
            lo, hi, w = bracket
            t_lo, t_hi = lo.get("expected_time"), hi.get("expected_time")
            if t_lo is not None and t_hi is not None:
                served_time = t_lo + w * (t_hi - t_lo)
        verdict = (self._verdict_for(band, rec) if self.validate
                   else _default_verdict("validation disabled"))
        config = self._configs.get(rec["key"])
        if config is None:
            config = HanConfig(**rec["config"])
            self._configs[rec["key"]] = config
        refused = self.strict and not verdict.ok
        decision = Decision(
            query=Query(q.coll, m, commsize, None, band),
            config=None if refused else config,
            provenance=provenance,
            expected_time=served_time,
            verdict=verdict,
            refused=refused,
            source_key=rec["key"],
            rejected_config=config if refused else None,
        )
        self._count(decision)
        return decision

    def decide_batch(self, queries: Sequence[Query]) -> list[Decision]:
        t0 = time.perf_counter()
        out = [self.decide(q) for q in queries]
        dt = time.perf_counter() - t0
        self.metrics.histogram("serve.batch_seconds").observe(dt)
        if dt > 0:
            self.metrics.gauge("serve.last_batch_qps").set(len(out) / dt)
        if len(self.spans) < self.max_spans:
            self.spans.append(Span(
                sid=self._next_sid, track="serve",
                name=f"decide_batch[{len(queries)}]", cat="serve",
                t0=t0, t1=t0 + dt,
                args={"queries": len(queries),
                      "refused": sum(1 for d in out if d.refused)},
            ))
            self._next_sid += 1
        return out

    def _counter(self, name: str, **labels):
        key = (name, *sorted(labels.items()))
        c = self._counters.get(key)
        if c is None:
            c = self.metrics.counter(name, **labels)
            self._counters[key] = c
        return c

    def _count(self, decision: Decision) -> None:
        coll = decision.query.coll
        self._counter("serve.decisions",
                      provenance=decision.provenance, coll=coll).inc()
        if not decision.verdict.ok:
            self._counter("serve.violations", coll=coll).inc()
        if decision.refused:
            self._counter("serve.refused", coll=coll).inc()

    # -- adapters ----------------------------------------------------------------

    def as_decision_fn(self, machine):
        """A ``(n, p, nbytes, coll) -> HanConfig`` hook for HanModule.

        Refused (strict-mode) answers fall back to the untuned default
        config — the runtime must always get *some* decision.
        """
        from repro.core.han import HanModule

        band = self._band_for(machine)

        def decide(n: int, p: int, nbytes: float, coll: str) -> HanConfig:
            n, p = int(n), int(p)
            d = self._decide(Query(coll=coll, nbytes=nbytes, band=band),
                             band, n * p, (n, p))
            if d.config is None:
                return HanModule.default_config(nbytes)
            return d.config

        return decide

    def stats(self) -> dict:
        """Counter snapshot (hit/fallback/violation totals)."""
        out = {"decisions": {}, "violations": 0, "refused": 0}
        for c in self.metrics.counters:
            labels = dict(c.labels)
            if c.name == "serve.decisions":
                prov = labels.get("provenance", "?")
                out["decisions"][prov] = (
                    out["decisions"].get(prov, 0) + int(c.value))
            elif c.name == "serve.violations":
                out["violations"] += int(c.value)
            elif c.name == "serve.refused":
                out["refused"] += int(c.value)
        out["queries"] = sum(out["decisions"].values())
        return out


def _default_config(nbytes: float) -> HanConfig:
    """The untuned default config (lazy import keeps serving light)."""
    from repro.core.han import HanModule

    return HanModule.default_config(nbytes)
