"""The autotuning lookup table and the one runtime lookup core.

Step 2 of autotuning (paper III-C): the offline search stores the best
configuration per sampled input (t, n, p, m) "to a lookup table in a
file"; at runtime, inputs that fall between samples are resolved to the
nearest sampled point (log-scale nearest -- the simple, robust variant
of the quadtree/decision-tree encodings the paper cites [35, 36]).

:class:`LookupIndex` is that resolution rule, and the only copy of it:
:meth:`LookupTable.decide` and
:class:`~repro.serve.service.DecisionService` both answer through it.
Per collective, it resolves a query ``(nbytes, commsize, own split)``:

1. **exact** -- the caller's own ``(n, p)`` sampled at ``nbytes``, else
   the one geometry sampled at this commsize (one dict probe each);
2. **geometry** -- the sampled geometries nearest in ``log2(commsize)``,
   all ties kept; the caller's own split wins outright when among them;
3. **size** -- the log-nearest sampled ``nbytes`` of those geometries,
   equidistant candidates broken on the canonical ``(dm, n, p, m)``
   order, never on insertion order;
4. **bracket** -- on an exact geometry, a size strictly between two
   samples is *interpolated*; anything else is *nearest*.

``decide`` is a hot path (one call per collective invocation), so the
index is built once per collective and kept current incrementally.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from math import log2
from pathlib import Path
from typing import Optional

from repro.core.config import HanConfig
from repro.core.han import HanModule
from repro.util.logstore import write_atomic

__all__ = ["LookupIndex", "LookupTable", "config_to_dict"]

_EPS = 1e-12


def config_to_dict(cfg: HanConfig) -> dict:
    """The tuned fields of a config, JSON-ready (seed excluded)."""
    return {
        "fs": cfg.fs,
        "imod": cfg.imod,
        "smod": cfg.smod,
        "ibalg": cfg.ibalg,
        "iralg": cfg.iralg,
        "ibs": cfg.ibs,
        "irs": cfg.irs,
    }


class LookupIndex:
    """Sampled ``(n, p, nbytes)`` points of one collective.

    Each point carries an opaque payload -- whatever its owner answers
    with: a table key for :class:`LookupTable`, a store record for the
    serving layer.
    """

    __slots__ = ("points", "geoms", "sizes", "comm_geom")

    def __init__(self):
        #: (n, p, nbytes) -> payload  (the O(1) exact-hit path)
        self.points: dict[tuple[int, int, float], object] = {}
        #: sorted [(commsize, n, p)] for geometry-distance scans
        self.geoms: list[tuple[int, int, int]] = []
        #: (n, p) -> sorted sampled nbytes
        self.sizes: dict[tuple[int, int], list[float]] = {}
        #: commsize -> its (n, p) when exactly one geometry has it
        self.comm_geom: dict[int, Optional[tuple[int, int]]] = {}

    def add(self, n: int, p: int, nbytes: float, payload) -> None:
        point = (n, p, nbytes)
        if point not in self.points:
            sizes = self.sizes.get((n, p))
            if sizes is None:
                sizes = self.sizes[(n, p)] = []
                insort(self.geoms, (n * p, n, p))
                # a second split of one commsize makes it ambiguous
                self.comm_geom[n * p] = (
                    None if n * p in self.comm_geom else (n, p))
            insort(sizes, nbytes)
        self.points[point] = payload

    def resolve(self, nbytes: float, commsize: int,
                own: Optional[tuple[int, int]] = None):
        """``(payload, provenance, bracket)``, or None when empty.

        ``provenance`` is ``"exact"``, ``"interpolated"`` or
        ``"nearest"``.  ``bracket`` is None except for interpolated
        answers, where it is ``(lo payload, hi payload, w)``: the two
        samples around ``nbytes`` and its log-scale weight between them.
        """
        points = self.points
        if own is not None:
            hit = points.get((own[0], own[1], nbytes))
            if hit is not None:
                return hit, "exact", None
        geom = self.comm_geom.get(commsize)
        if geom:
            hit = points.get((geom[0], geom[1], nbytes))
            if hit is not None:
                return hit, "exact", None
        if not self.geoms:
            return None

        lc = log2(max(commsize, 1))
        dists = [(abs(log2(c) - lc), n, p) for c, n, p in self.geoms]
        best_gd = min(dists)[0]
        geo = [(n, p) for d, n, p in dists if d <= best_gd + _EPS]
        if own in geo:
            geo = [own]

        lm = log2(max(nbytes, 1.0))
        cands: list[tuple[float, int, int, float]] = []
        for n, p in geo:
            sizes = self.sizes[(n, p)]
            i = bisect_left(sizes, nbytes)
            for j in (i - 1, i):
                if 0 <= j < len(sizes):
                    ms = sizes[j]
                    cands.append((abs(log2(max(ms, 1.0)) - lm), n, p, ms))
        dm, n, p, ms = min(cands)
        hit = points[(n, p, ms)]

        if best_gd > _EPS:
            return hit, "nearest", None
        if dm <= _EPS:
            return hit, "exact", None
        sizes = self.sizes[(n, p)]
        i = bisect_left(sizes, nbytes)
        if not 0 < i < len(sizes):
            return hit, "nearest", None  # outside the sampled range
        lo, hi = sizes[i - 1], sizes[i]
        span = log2(hi) - log2(lo)
        w = (lm - log2(lo)) / span if span > 0 else 0.0
        return hit, "interpolated", (points[(n, p, lo)], points[(n, p, hi)], w)


def _table_digest(rows: list[dict]) -> str:
    """Content digest of the serialized rows (integrity stamp)."""
    from repro.tuning.cache import digest

    return digest("lookup-table", rows=rows)


@dataclass
class LookupTable:
    """(t, n, p, m) -> HanConfig with nearest-sample decisions."""

    entries: dict = field(default_factory=dict)  # (t, n, p, m) -> HanConfig
    #: t -> LookupIndex over that collective's keys (configs stay in
    #: ``entries``, so an overwrite is never served stale)
    _indexes: dict = field(default_factory=dict, repr=False, compare=False)
    #: keys put since the last decide, indexed on the next one
    _pending: list = field(default_factory=list, repr=False, compare=False)
    _indexed: int = field(default=0, repr=False, compare=False)

    def put(self, t: str, n: int, p: int, m: float, cfg: HanConfig) -> None:
        key = (t, int(n), int(p), float(m))
        if key not in self.entries:
            self._pending.append(key)
        self.entries[key] = cfg

    def get(self, t: str, n: int, p: int, m: float) -> Optional[HanConfig]:
        return self.entries.get((t, int(n), int(p), float(m)))

    def _index(self, t: str) -> Optional[LookupIndex]:
        """The collective's index, current with ``entries``."""
        if self._indexed + len(self._pending) != len(self.entries):
            # entries was written to directly: re-index every key
            self._indexes, self._indexed = {}, 0
            self._pending = list(self.entries)
        if self._pending:
            for key in self._pending:
                self._indexes.setdefault(key[0], LookupIndex()).add(*key[1:], key)
            self._indexed += len(self._pending)
            self._pending.clear()
        return self._indexes.get(t)

    # -- runtime decision ---------------------------------------------------------

    def decide(self, n: int, p: int, m: float, t: str) -> HanConfig:
        """Nearest-sample decision; signature matches HanModule hooks."""
        index = self._index(t)
        n, p = int(n), int(p)
        hit = index.resolve(float(m), n * p, (n, p)) if index is not None else None
        if hit is None:
            return HanModule.default_config(m)
        return self.entries[hit[0]]

    def as_decision_fn(self):
        """Plug into :class:`~repro.core.HanModule`(decision_fn=...)."""
        return self.decide

    # -- persistence ----------------------------------------------------------------

    def save(self, path) -> None:
        # lazy import: experiments.common imports repro.tuning at module
        # load, so the shared header constant is fetched at call time
        from repro.experiments.common import RESULT_SCHEMA_VERSION
        from repro.obs.store import config_digest

        rows = [
            {"t": t, "n": n, "p": p, "m": m, "config": config_to_dict(cfg)}
            for (t, n, p, m), cfg in sorted(self.entries.items())
        ]
        write_atomic(path, json.dumps({
            "version": 1,
            "schema_version": RESULT_SCHEMA_VERSION,
            "config_digest": config_digest(None),
            "table_digest": _table_digest(rows),
            "rows": rows,
        }, indent=1))

    @classmethod
    def load(cls, path) -> "LookupTable":
        doc = json.loads(Path(path).read_text())
        # unknown extra keys (the provenance header) are deliberately
        # tolerated; only the table layout version gates
        if doc.get("version") != 1:
            raise ValueError(f"unsupported lookup table version: {doc.get('version')}")
        # the content stamp is verified when present (a table that was
        # hand-edited or torn mid-write must not serve silently wrong
        # decisions) but its absence is tolerated: pre-stamp files load
        stamped = doc.get("table_digest")
        if stamped is not None and stamped != _table_digest(doc["rows"]):
            raise ValueError(
                f"lookup table {path} rows do not match their "
                "table_digest stamp (torn write or hand edit)"
            )
        table = cls()
        for row in doc["rows"]:
            table.put(
                row["t"], row["n"], row["p"], row["m"], HanConfig(**row["config"])
            )
        return table

    def __len__(self) -> int:
        return len(self.entries)
