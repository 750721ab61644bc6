"""The HAN collective module: task-based hierarchical collectives.

Implements the paper's designs:

- **MPI_Bcast** (Fig 1): node leaders run ``ib(0), sbib(1) ... sbib(u-1),
  sb(u-1)`` -- each ``sbib`` starts the non-blocking inter-node broadcast
  of segment *i* and overlaps it with the intra-node broadcast of segment
  *i-1*; other processes run ``sb(0) ... sb(u-1)``.
- **MPI_Allreduce** (Fig 5): a four-stage pipeline per segment --
  intra-node reduce ``sr``, inter-node reduce ``ir``, inter-node
  broadcast ``ib``, intra-node broadcast ``sb`` -- with the inter-node
  allreduce deliberately split into explicit ``ir`` + ``ib`` "to further
  increase the pipeline and improve the performance for large messages"
  (paper III-B1).  ``ir``/``ib`` use the same algorithm and root to
  maximize their overlap on opposite network directions (Fig 6).
- extensions the paper mentions (section III): Reduce, Gather, Allgather,
  Scatter, Barrier, built from the same task vocabulary.

Configurations come from an explicit :class:`HanConfig`, a decision
function (usually an autotuned lookup table, :mod:`repro.tuning`), or the
built-in static default.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from repro.colls.allgather import allgather_ring
from repro.colls.alltoall import alltoall_pairwise
from repro.colls.bcast import bcast_linear
from repro.colls.gather import gather_binomial
from repro.colls.reduce import reduce_linear
from repro.colls.reduce_scatter import reduce_scatter_ring
from repro.colls.scatter import scatter_binomial
from repro.core.config import HanConfig
from repro.core.subcomms import build_hierarchy
from repro.modules import make_module
from repro.modules.base import CollModule
from repro.mpi.constants import INTERNAL_TAG_BASE
from repro.mpi.op import SUM
from repro.sim.engine import AnyOf

__all__ = ["HanModule", "han_segments"]

# Runtime-internal tags for the degraded-mode probe protocol (far above
# the collective tag blocks and the dissemination-barrier tag window).
_PROBE_TAG = INTERNAL_TAG_BASE + 2048
_VOTE_TAG = INTERNAL_TAG_BASE + 2049
_VERDICT_TAG = INTERNAL_TAG_BASE + 2050
_SHARE_TAG = INTERNAL_TAG_BASE + 2051


def _coll_span(fn):
    """Observe a collective generator method: one span per call.

    When no recorder is attached (``engine.obs is None``) the original
    generator is returned untouched — zero wrapping, zero overhead.
    """
    coll_name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self, comm, *args, **kwargs):
        gen = fn(self, comm, *args, **kwargs)
        rec = comm.runtime.engine.obs
        if rec is None:
            return gen
        nbytes = args[0] if args and isinstance(args[0], (int, float)) else (
            kwargs.get("nbytes", 0)
        )
        return _spanned(rec, comm, coll_name, nbytes, gen)

    return wrapper


def _count_fallback(comm, coll):
    """Count one flat-star fallback; rank 0 counts for the whole communicator."""
    rec = comm.runtime.engine.obs
    if rec is not None and comm.rank == 0:
        rec.metrics.counter("han.fallbacks", coll=coll).inc()


def _spanned(rec, comm, name, nbytes, gen):
    sid = rec.begin(
        f"rank{comm.world_rank}", name, "coll", nbytes=nbytes, size=comm.size
    )
    try:
        result = yield from gen
    finally:
        rec.end(sid)
    return result


def han_segments(nbytes: float, fs: Optional[float], payload=None):
    """Split a message into HAN pipeline segments.

    Returns ``(u, seg_bytes, views)``: the segment count (identical on
    every rank because it depends only on ``nbytes`` and ``fs``), the
    nominal byte size of each segment, and element-aligned views of
    ``payload`` (``None`` entries when no payload).
    """
    if fs is None or fs <= 0 or nbytes <= fs:
        u = 1
    else:
        u = int(math.ceil(nbytes / fs))
    seg_bytes = [min(fs, nbytes - i * fs) if u > 1 else nbytes for i in range(u)]
    if payload is None:
        views = [None] * u
    else:
        bounds = np.linspace(0, payload.size, u + 1).astype(int)
        views = [payload[bounds[i] : bounds[i + 1]] for i in range(u)]
    return u, seg_bytes, views


class HanModule(CollModule):
    """HAN, usable anywhere a collective module is expected."""

    name = "han"
    nonblocking = False

    def __init__(
        self,
        config: Optional[HanConfig] = None,
        decision_fn: Optional[Callable[[int, int, float, str], HanConfig]] = None,
        degraded_timeout: Optional[float] = None,
        probe_bytes: float = 4096.0,
    ):
        #: fixed configuration (overrides the decision function)
        self.config = config
        #: callable ``(n_nodes, ppn, nbytes, coll_type) -> HanConfig``
        self.decision_fn = decision_fn
        #: seconds to wait for an inter-node probe reply before declaring
        #: the fabric degraded; ``None`` (default) disables the probe and
        #: leaves every schedule bit-identical to the pre-probe module
        self.degraded_timeout = degraded_timeout
        #: payload size of the probe message -- nonzero so it rides the
        #: fluid network and actually stalls on a dead link
        self.probe_bytes = probe_bytes
        self._mods: dict[str, CollModule] = {}

    # -- configuration ------------------------------------------------------------

    def module(self, name: str) -> CollModule:
        mod = self._mods.get(name)
        if mod is None:
            mod = self._mods[name] = make_module(name)
        return mod

    def _intra_module(self, hier, cfg) -> CollModule:
        """The module driving intra-node stages.

        Plain ``smod`` on flat nodes; on split-NVLink nodes a fabric-
        aware ``smod`` (gpu) is wrapped in the fabric/host composite so
        the intra stage itself becomes a 2-level island/bridge schedule
        -- HAN's third hardware level.
        """
        smod = self.module(cfg.smod)
        if hier.fab is None or not getattr(smod, "fabric_tier", False):
            return smod
        comp = getattr(hier, "_fabric_composite", None)
        if comp is None:
            from repro.core.fabric_tier import FabricComposite

            comp = FabricComposite(hier, smod, self.module("sm"))
            hier._fabric_composite = comp
        return comp

    @staticmethod
    def _position_map(comm, hier) -> dict:
        """(node position, local rank) -> parent rank, cached per hierarchy."""
        pos = getattr(hier, "_pos_to_parent", None)
        if pos is None:
            pos = {
                (hier.up_rank_of(i), hier.local_rank_of(i)): i
                for i in range(comm.size)
            }
            hier._pos_to_parent = pos
        return pos

    def resolve_config(
        self, hier, nbytes: float, coll: str, config: Optional[HanConfig]
    ) -> HanConfig:
        if config is not None:
            return config
        if self.config is not None:
            return self.config
        if self.decision_fn is not None:
            return self.decision_fn(
                hier.num_nodes, hier.local_size, nbytes, coll
            )
        return self.default_config(nbytes)

    @staticmethod
    def default_config(nbytes: float) -> HanConfig:
        """Untuned static fallback (what HAN ships before autotuning).

        Mirrors the shipped coll/han defaults: latency-friendly binomial
        trees for small and mid-range messages, a pipelined chain once
        there are enough segments to fill it, SOLO above the 512KB
        SM/SOLO crossover (paper III-C).
        """
        if nbytes <= 64 * 1024:
            return HanConfig(fs=None, imod="libnbc", smod="sm")
        if nbytes <= 4 * 1024 * 1024:
            return HanConfig(
                fs=512 * 1024,
                imod="adapt",
                smod="sm" if nbytes <= 512 * 1024 else "solo",
                ibalg="binary",
                iralg="binary",
                ibs=256 * 1024,
                irs=256 * 1024,
            )
        return HanConfig(
            fs=2 * 1024 * 1024,
            imod="adapt",
            smod="solo",
            ibalg="chain",
            iralg="chain",
            ibs=512 * 1024,
            irs=512 * 1024,
        )

    # -- degraded mode (dead inter-node link detection + flat fallback) -------------

    def _probe_up(self, up):
        """Leader-side liveness probe of every up-comm peer.

        Exchanges a ``probe_bytes`` message with each peer and races every
        reply against one shared deadline ``degraded_timeout`` seconds
        out.  A reply crossing a dead link stalls in the fluid network,
        so the deadline wins and the leader votes "degraded".
        """
        engine = up.runtime.engine
        peers = [p for p in range(up.size) if p != up.rank]
        recvs = [up.irecv(source=p, tag=_PROBE_TAG) for p in peers]
        for p in peers:
            up.isend(p, nbytes=self.probe_bytes, tag=_PROBE_TAG)
        deadline = engine.event("han:probe-deadline")
        token = engine.schedule(self.degraded_timeout, deadline.succeed)
        bad = False
        for req in recvs:
            idx, _ = yield AnyOf([req.event, deadline])
            bad = bad or idx == 1
        if not bad:
            engine.cancel(token)
        return bad

    def _check_degraded(self, comm, hier):
        """Collectively decide (once per communicator) if the inter-node
        fabric is unusable for hierarchical schedules.

        Node leaders probe their up-comm layer; the per-leader votes are
        OR-reduced at up-rank 0 and the verdict fanned back out — both
        over zero-byte control messages, which bypass the fluid network
        and therefore still arrive across the very link being diagnosed
        (a simulator artifact standing in for an out-of-band RAS plane).
        The verdict is cached per parent rank, so only the first
        collective on a communicator pays the probe cost.
        """
        if self.degraded_timeout is None or hier.up.size == 1:
            return False
        state = comm.runtime.coll_state(("han:degraded", comm.cid))
        if comm.rank in state:
            return state[comm.rank]
        low, up = hier.low, hier.up
        verdict = False
        if hier.local_rank == 0:
            bad = yield from self._probe_up(up)
            if up.rank == 0:
                for src in range(1, up.size):
                    msg = yield from up.recv(source=src, tag=_VOTE_TAG)
                    bad = bad or msg.payload
                reqs = [
                    up.isend(dst, nbytes=0, payload=bad, tag=_VERDICT_TAG)
                    for dst in range(1, up.size)
                ]
                yield from up.waitall(reqs)
            else:
                yield from up.send(0, nbytes=0, payload=bad, tag=_VOTE_TAG)
                msg = yield from up.recv(source=0, tag=_VERDICT_TAG)
                bad = msg.payload
            verdict = bad
        if low.size > 1:
            if hier.local_rank == 0:
                reqs = [
                    low.isend(dst, nbytes=0, payload=verdict, tag=_SHARE_TAG)
                    for dst in range(1, low.size)
                ]
                yield from low.waitall(reqs)
            else:
                msg = yield from low.recv(source=0, tag=_SHARE_TAG)
                verdict = msg.payload
        state[comm.rank] = verdict
        return verdict

    # -- MPI_Bcast (paper Fig 1) -----------------------------------------------------

    @_coll_span
    def bcast(
        self, comm, nbytes, root=0, payload=None, config=None,
        algorithm=None, segsize=None,
    ):
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm)
        degraded = yield from self._check_degraded(comm, hier)
        if degraded:
            # Dead inter-node link: a hierarchical schedule would wedge on
            # it, so fall back to a flat star rooted at the coordinator
            # (linear bcast routes radiate from one node and can avoid a
            # failed non-root link).
            _count_fallback(comm, "bcast")
            out = yield from bcast_linear(comm, nbytes, root=root, payload=payload)
            return out
        cfg = self.resolve_config(hier, nbytes, "bcast", config)
        if segsize is not None:
            cfg = cfg.with_(fs=segsize)
        imod, smod = self.module(cfg.imod), self._intra_module(hier, cfg)
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)
        on_ib_layer = hier.local_rank == root_local
        u, seg_bytes, views = han_segments(
            nbytes, cfg.fs, payload if comm.rank == root else None
        )
        low, up = hier.low, hier.up
        pieces: list = [None] * u
        rec = comm.runtime.engine.obs
        trk = f"rank{comm.world_rank}" if rec is not None else ""

        if low.size == 1:
            # Degenerate: one rank per node -> pure inter-node bcast.
            out = yield from imod.bcast(
                up, nbytes, root=root_up, payload=payload,
                algorithm=cfg.ibalg, segsize=cfg.ibs,
            )
            return out if payload is None or comm.rank == root else out

        if on_ib_layer and up.size > 1:
            # leaders: ib(0), sbib(1..u-1), sb(u-1)
            s_ib = rec.begin(trk, "ib", "phase", seg=0) if rec else -1
            req = imod.ibcast(
                up, seg_bytes[0], root=root_up, payload=views[0],
                algorithm=cfg.ibalg, segsize=cfg.ibs,
            )
            prev = yield from up.wait(req)  # task ib(0)
            if rec:
                rec.end(s_ib)
            for i in range(1, u):
                if rec:
                    s_ib = rec.begin(trk, "ib", "phase", seg=i)
                req = imod.ibcast(
                    up, seg_bytes[i], root=root_up, payload=views[i],
                    algorithm=cfg.ibalg, segsize=cfg.ibs,
                )  # start ib(i) ...
                if rec:
                    s_sb = rec.begin(trk, "sb", "phase", seg=i - 1)
                pieces[i - 1] = yield from smod.bcast(
                    low, seg_bytes[i - 1], root=root_local, payload=prev
                )  # ... overlap with sb(i-1): the sbib(i) task
                if rec:
                    rec.end(s_sb)
                prev = yield from up.wait(req)
                if rec:
                    rec.end(s_ib)
            if rec:
                s_sb = rec.begin(trk, "sb", "phase", seg=u - 1)
            pieces[u - 1] = yield from smod.bcast(
                low, seg_bytes[u - 1], root=root_local, payload=prev
            )  # final sb(u-1)
            if rec:
                rec.end(s_sb)
        elif on_ib_layer:
            # single node: the "leader" just feeds the intra level
            for i in range(u):
                if rec:
                    s_sb = rec.begin(trk, "sb", "phase", seg=i)
                pieces[i] = yield from smod.bcast(
                    low, seg_bytes[i], root=root_local, payload=views[i]
                )
                if rec:
                    rec.end(s_sb)
        else:
            # other processes: sb(0) ... sb(u-1)
            for i in range(u):
                if rec:
                    s_sb = rec.begin(trk, "sb", "phase", seg=i)
                pieces[i] = yield from smod.bcast(
                    low, seg_bytes[i], root=root_local, payload=None
                )
                if rec:
                    rec.end(s_sb)

        if comm.rank == root:
            return payload
        if any(p is None for p in pieces):
            return None
        return pieces[0] if u == 1 else np.concatenate(pieces)

    # -- MPI_Allreduce (paper Fig 5) -----------------------------------------------------

    @_coll_span
    def allreduce(
        self, comm, nbytes, payload=None, op=SUM, config=None,
        algorithm=None, segsize=None,
    ):
        if comm.size == 1:
            return payload
        if not op.commutative:
            raise ValueError(
                "HAN's MPI_Allreduce assumes a commutative operation "
                "(paper section III-B1)"
            )
        hier = yield from build_hierarchy(comm)
        degraded = yield from self._check_degraded(comm, hier)
        if degraded:
            # Flat star fallback: reduce-to-root + broadcast-from-root
            # (star routes avoid a dead link between non-root nodes).
            _count_fallback(comm, "allreduce")
            red = yield from reduce_linear(comm, nbytes, root=0, payload=payload, op=op)
            out = yield from bcast_linear(comm, nbytes, root=0, payload=red)
            return out
        cfg = self.resolve_config(hier, nbytes, "allreduce", config)
        if segsize is not None:
            cfg = cfg.with_(fs=segsize)
        imod, smod = self.module(cfg.imod), self._intra_module(hier, cfg)
        low, up = hier.low, hier.up
        u, seg_bytes, views = han_segments(nbytes, cfg.fs, payload)
        pieces: list = [None] * u
        layer0 = hier.local_rank == 0
        rec = comm.runtime.engine.obs
        trk = f"rank{comm.world_rank}" if rec is not None else ""

        if low.size == 1:
            # one rank per node: explicit ir + ib on the wire
            result = yield from self._inter_allreduce(
                imod, up, nbytes, payload, op, cfg, u, seg_bytes, views
            )
            return result
        if up.size == 1:
            # single node: pure shared-memory allreduce
            result = yield from smod.allreduce(low, nbytes, payload=payload, op=op)
            return result

        if layer0:
            srres: dict[int, object] = {}
            irreq: dict[int, object] = {}
            ibreq: dict[int, object] = {}
            ir_sid: dict[int, int] = {}
            ib_sid: dict[int, int] = {}
            for i in range(u + 3):
                if 0 <= i - 1 < u:
                    # start ir(i-1): inter-node reduce of the intra result
                    if rec:
                        ir_sid[i - 1] = rec.begin(trk, "ir", "phase", seg=i - 1)
                    irreq[i - 1] = imod.ireduce(
                        up, seg_bytes[i - 1], root=0,
                        payload=srres.pop(i - 1), op=op,
                        algorithm=cfg.iralg, segsize=cfg.irs,
                    )
                if 0 <= i - 2 < u:
                    # start ib(i-2): broadcast the reduced segment back
                    red = yield from up.wait(irreq.pop(i - 2))
                    if rec:
                        rec.end(ir_sid.pop(i - 2))
                        ib_sid[i - 2] = rec.begin(trk, "ib", "phase", seg=i - 2)
                    ibreq[i - 2] = imod.ibcast(
                        up, seg_bytes[i - 2], root=0, payload=red,
                        algorithm=cfg.ibalg, segsize=cfg.ibs,
                    )
                if 0 <= i - 3 < u:
                    # sb(i-3): distribute on the node
                    res = yield from up.wait(ibreq.pop(i - 3))
                    if rec:
                        rec.end(ib_sid.pop(i - 3))
                        s_sb = rec.begin(trk, "sb", "phase", seg=i - 3)
                    pieces[i - 3] = yield from smod.bcast(
                        low, seg_bytes[i - 3], root=0, payload=res
                    )
                    if rec:
                        rec.end(s_sb)
                if i < u:
                    # sr(i): intra-node reduction of the next segment
                    if rec:
                        s_sr = rec.begin(trk, "sr", "phase", seg=i)
                    srres[i] = yield from smod.reduce(
                        low, seg_bytes[i], root=0, payload=views[i], op=op
                    )
                    if rec:
                        rec.end(s_sr)
        else:
            # other processes: the sbsr task stream
            for i in range(u + 3):
                if 0 <= i - 3 < u:
                    if rec:
                        s_sb = rec.begin(trk, "sb", "phase", seg=i - 3)
                    pieces[i - 3] = yield from smod.bcast(
                        low, seg_bytes[i - 3], root=0, payload=None
                    )
                    if rec:
                        rec.end(s_sb)
                if i < u:
                    if rec:
                        s_sr = rec.begin(trk, "sr", "phase", seg=i)
                    yield from smod.reduce(
                        low, seg_bytes[i], root=0, payload=views[i], op=op
                    )
                    if rec:
                        rec.end(s_sr)

        if any(p is None for p in pieces):
            return None
        return pieces[0] if u == 1 else np.concatenate(pieces)

    def _inter_allreduce(self, imod, up, nbytes, payload, op, cfg, u, seg_bytes, views):
        """Pipelined explicit ir+ib allreduce on a pure inter-node comm."""
        irreq: dict[int, object] = {}
        ibreq: dict[int, object] = {}
        pieces: list = [None] * u
        rec = up.runtime.engine.obs
        trk = f"rank{up.world_rank}" if rec is not None else ""
        ir_sid: dict[int, int] = {}
        ib_sid: dict[int, int] = {}
        for i in range(u + 2):
            if 0 <= i < u:
                if rec:
                    ir_sid[i] = rec.begin(trk, "ir", "phase", seg=i)
                irreq[i] = imod.ireduce(
                    up, seg_bytes[i], root=0, payload=views[i], op=op,
                    algorithm=cfg.iralg, segsize=cfg.irs,
                )
            if 0 <= i - 1 < u:
                red = yield from up.wait(irreq.pop(i - 1))
                if rec:
                    rec.end(ir_sid.pop(i - 1))
                    ib_sid[i - 1] = rec.begin(trk, "ib", "phase", seg=i - 1)
                ibreq[i - 1] = imod.ibcast(
                    up, seg_bytes[i - 1], root=0, payload=red,
                    algorithm=cfg.ibalg, segsize=cfg.ibs,
                )
            if 0 <= i - 2 < u:
                pieces[i - 2] = yield from up.wait(ibreq.pop(i - 2))
                if rec:
                    rec.end(ib_sid.pop(i - 2))
        if any(p is None for p in pieces):
            return None
        return pieces[0] if u == 1 else np.concatenate(pieces)

    # -- extensions (paper section III: "similar designs can be extended") ------------

    @_coll_span
    def reduce(
        self, comm, nbytes, root=0, payload=None, op=SUM, config=None,
        algorithm=None, segsize=None,
    ):
        """Hierarchical reduce: pipelined sr + ir (the irsr task stream)."""
        if comm.size == 1:
            return payload
        if not op.commutative:
            raise ValueError("HAN reduce assumes a commutative operation")
        hier = yield from build_hierarchy(comm)
        cfg = self.resolve_config(hier, nbytes, "reduce", config)
        if segsize is not None:
            cfg = cfg.with_(fs=segsize)
        imod, smod = self.module(cfg.imod), self._intra_module(hier, cfg)
        low, up = hier.low, hier.up
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)
        u, seg_bytes, views = han_segments(nbytes, cfg.fs, payload)
        on_layer = hier.local_rank == root_local
        pieces: list = [None] * u

        if up.size == 1:
            result = yield from smod.reduce(
                low, nbytes, root=root_local, payload=payload, op=op
            )
            return result if comm.rank == root else None

        rec = comm.runtime.engine.obs
        trk = f"rank{comm.world_rank}" if rec is not None else ""
        if on_layer:
            # the irsr task stream: irsr(i) starts the inter-node reduce
            # of segment i-1, overlaps it with the intra reduce of
            # segment i, and completes it at task end
            srres: dict[int, object] = {}
            irreq = None
            s_ir = -1
            for i in range(u + 1):
                if 0 <= i - 1 < u:
                    if rec:
                        s_ir = rec.begin(trk, "ir", "phase", seg=i - 1)
                    irreq = imod.ireduce(
                        up, seg_bytes[i - 1], root=root_up,
                        payload=srres.pop(i - 1), op=op,
                        algorithm=cfg.iralg, segsize=cfg.irs,
                    )
                if i < u:
                    if rec:
                        s_sr = rec.begin(trk, "sr", "phase", seg=i)
                    if low.size > 1:
                        srres[i] = yield from smod.reduce(
                            low, seg_bytes[i], root=root_local,
                            payload=views[i], op=op,
                        )
                    else:
                        srres[i] = views[i]
                    if rec:
                        rec.end(s_sr)
                if 0 <= i - 1 < u:
                    pieces[i - 1] = yield from up.wait(irreq)
                    if rec:
                        rec.end(s_ir)
        else:
            for i in range(u):
                if rec:
                    s_sr = rec.begin(trk, "sr", "phase", seg=i)
                yield from smod.reduce(
                    low, seg_bytes[i], root=root_local, payload=views[i], op=op
                )
                if rec:
                    rec.end(s_sr)
            return None

        if comm.rank != root:
            return None
        if any(p is None for p in pieces):
            return None
        return pieces[0] if u == 1 else np.concatenate(pieces)

    @_coll_span
    def gather(self, comm, nbytes, root=0, payload=None, config=None):
        """Intra-node gather (sg) then inter-node gather (ig) of node blocks."""
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm)
        cfg = self.resolve_config(hier, nbytes, "gather", config)
        smod = self._intra_module(hier, cfg)
        low, up = hier.low, hier.up
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)

        node_block = payload
        if low.size > 1:
            node_block = yield from smod.gather(
                low, nbytes, root=root_local, payload=payload
            )
        if hier.local_rank != root_local:
            return None
        if up.size > 1:
            gathered = yield from gather_binomial(
                up, nbytes * low.size, root=root_up, payload=node_block
            )
        else:
            gathered = node_block
        return gathered if comm.rank == root else None

    @_coll_span
    def allgather(self, comm, nbytes, payload=None, config=None):
        """sg + inter-node allgather + sb, as sketched in the paper."""
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm)
        cfg = self.resolve_config(hier, nbytes, "allgather", config)
        smod = self._intra_module(hier, cfg)
        low, up = hier.low, hier.up

        node_block = payload
        if low.size > 1:
            node_block = yield from smod.gather(
                low, nbytes, root=0, payload=payload
            )
        full = None
        if hier.local_rank == 0:
            if up.size > 1:
                full = yield from allgather_ring(
                    up, nbytes * low.size, payload=node_block
                )
            else:
                full = node_block
        if low.size > 1:
            full = yield from smod.bcast(
                low, nbytes * comm.size, root=0, payload=full
            )
        return full

    @_coll_span
    def scatter(self, comm, nbytes, root=0, payload=None, config=None):
        """Inter-node scatter of node blocks, then intra-node scatter."""
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm)
        cfg = self.resolve_config(hier, nbytes, "scatter", config)
        low, up = hier.low, hier.up
        root_local = hier.local_rank_of(root)
        root_up = hier.up_rank_of(root)

        node_block = None
        if hier.local_rank == root_local:
            if up.size > 1:
                node_block = yield from scatter_binomial(
                    up, nbytes, root=root_up, payload=payload
                )
            else:
                node_block = payload
        if low.size == 1:
            return node_block
        # intra-node scatter from the layer member (simple linear over shm)
        result = yield from self._intra_scatter(
            comm, hier, nbytes / up.size, root_local, node_block
        )
        return result

    def _intra_scatter(self, comm, hier, node_bytes, root_local, node_block):
        from repro.colls.scatter import scatter_linear

        result = yield from scatter_linear(
            hier.low, node_bytes, root=root_local, payload=node_block
        )
        return result

    @_coll_span
    def reduce_scatter(self, comm, nbytes, payload=None, op=SUM, config=None):
        """Hierarchical reduce-scatter: intra reduce-scatter of node
        slices, then an inter-node reduce-scatter per layer.

        ``nbytes`` is the TOTAL vector size; rank *i* ends with block
        *i* of the fully reduced vector (``nbytes / size`` bytes).  The
        send buffer is pre-permuted so the intra stage hands local rank
        *j* exactly the blocks owned by layer *j*, node-major; the
        per-layer inter stage then finishes the reduction and the
        scatter simultaneously -- no dedicated final intra scatter is
        needed because the layered up-comms already place block *m* of
        slice *j* on the rank at position ``(m, j)``.
        """
        if comm.size == 1:
            return payload
        if not op.commutative:
            raise ValueError(
                "hierarchical reduce_scatter requires a commutative op"
            )
        hier = yield from build_hierarchy(comm)
        cfg = self.resolve_config(hier, nbytes, "reduce_scatter", config)
        smod = self._intra_module(hier, cfg)
        low, up = hier.low, hier.up
        P, p, n_nodes = comm.size, low.size, up.size

        if payload is not None and payload.size % P != 0:
            # nested block splits only line up on divisible payloads
            out = yield from reduce_scatter_ring(
                comm, nbytes, payload=payload, op=op
            )
            return out
        if p == 1:
            out = yield from reduce_scatter_ring(
                up, nbytes, payload=payload, op=op
            )
            return out
        if n_nodes == 1:
            out = yield from smod.reduce_scatter(
                low, nbytes, payload=payload, op=op
            )
            return out

        send = payload
        if payload is not None:
            # group my P blocks by owning local rank, node-major inside
            # each group: slice j = the blocks of ranks (m, j), m ascending
            pos = self._position_map(comm, hier)
            per = payload.size // P
            blocks = payload.reshape(P, per)
            send = np.concatenate(
                [blocks[pos[(m, j)]] for j in range(p) for m in range(n_nodes)]
            )
        # intra: local rank j keeps slice j, reduced over this node
        slice_ = yield from smod.reduce_scatter(
            low, nbytes, payload=send, op=op
        )
        # inter (per layer): up-rank m keeps block m of the slice --
        # which is exactly this rank's own block of the full vector
        out = yield from reduce_scatter_ring(
            up, nbytes / p, payload=slice_, op=op
        )
        return out

    @_coll_span
    def alltoall(self, comm, nbytes, payload=None, config=None):
        """Truly hierarchical all-to-all, every rank active in both
        phases (no leader bottleneck):

        1. **intra**: node-local all-to-all of destination-layer groups
           (each group holds the ``n_nodes`` blocks bound for one local
           rank position, node-major),
        2. **inter**: per-layer all-to-all of node-sized groups,
        3. a free local reorder into global source-rank order.

        ``nbytes`` is one rank-to-rank block; every rank sends and
        receives ``size`` blocks, moving ``size * nbytes`` bytes across
        each of the two phases.
        """
        if comm.size == 1:
            return payload
        hier = yield from build_hierarchy(comm)
        cfg = self.resolve_config(hier, nbytes, "alltoall", config)
        smod = self._intra_module(hier, cfg)
        low, up = hier.low, hier.up
        P, p, n_nodes = comm.size, low.size, up.size

        if payload is not None and payload.size % P != 0:
            out = yield from alltoall_pairwise(comm, nbytes, payload=payload)
            return out
        if p == 1:
            out = yield from alltoall_pairwise(up, nbytes, payload=payload)
            return out
        if n_nodes == 1:
            out = yield from smod.alltoall(low, nbytes, payload=payload)
            return out

        send = payload
        if payload is not None:
            # group my P send blocks by destination local rank k,
            # node-major inside each group
            pos = self._position_map(comm, hier)
            per = payload.size // P
            blocks = payload.reshape(P, per)
            send = np.concatenate(
                [blocks[pos[(m, k)]] for k in range(p) for m in range(n_nodes)]
            )
        # 1) intra exchange: one block per local peer = n_nodes sub-blocks
        r1 = yield from smod.alltoall(low, nbytes * n_nodes, payload=send)
        send_up = None
        if r1 is not None:
            # [src_local][dst_node][per] -> [dst_node][src_local][per]
            per = r1.size // P
            send_up = (
                r1.reshape(p, n_nodes, per).transpose(1, 0, 2).reshape(-1)
            )
        # 2) inter exchange on my layer: one block per node = p sub-blocks
        r2 = yield from alltoall_pairwise(up, nbytes * p, payload=send_up)
        if r2 is None:
            return None
        # 3) reorder [src_node][src_local] into global source-rank order
        per = r2.size // P
        r3 = r2.reshape(n_nodes, p, per)
        out = np.concatenate(
            [r3[hier.up_rank_of(i), hier.local_rank_of(i)] for i in range(P)]
        )
        return out

    @_coll_span
    def barrier(self, comm, config=None):
        """sb-style barrier: low, then up (layer 0), then low again."""
        if comm.size == 1:
            return
        hier = yield from build_hierarchy(comm)
        cfg = self.resolve_config(hier, 0, "barrier", config)
        smod = self._intra_module(hier, cfg)
        low, up = hier.low, hier.up
        if low.size > 1:
            yield from smod.barrier(low)
        if hier.local_rank == 0 and up.size > 1:
            imod = self.module(cfg.imod)
            yield from imod.barrier(up)
        if low.size > 1:
            yield from smod.barrier(low)
