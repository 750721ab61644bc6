"""Instrumentation installed from outside ``src/``: counters, spans, layers.

Nothing here changes what the program computes.  Every probe wraps a
public entry point (or reads a public attribute) of a ``repro`` layer:

- :class:`Counters` -- the untraced run.  Exact work counts read from
  the objects every layer already keeps (``engine.events``/``batches``,
  ``fabric.progress[*].jobs``, ``solver.kernel_stats()``), plus call
  counts of a few entry points and the garbage collector's own
  callbacks.  The wrappers add one call frame per wrapped call.
- :class:`Tracer` -- the traced run.  A span (name, start, end, parent)
  around each listed entry point, aggregated in memory per
  ``(parent, name)`` edge, and :mod:`cProfile` self time charged to a
  layer by the source module of each function.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import time
import weakref
from functools import wraps

_pc = time.perf_counter

# -- layers ------------------------------------------------------------------------

#: top-level package under ``repro/`` -> layer name (``sim`` splits below)
_PACKAGE_LAYERS = {
    "mpi": "mpi",
    "netsim": "netsim",
    "topology": "topology",
    "hardware": "hardware",
    "core": "core",
    "modules": "modules",
    "colls": "colls",
    "tuning": "tuning",
    "serve": "serve",
}

#: every layer the traced run reports a ``<layer>.self_s`` for
LAYERS = (
    "sim.engine", "sim.fluid", "mpi", "netsim", "topology", "hardware",
    "core", "modules", "colls", "tuning", "serve",
)

_HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(path: str) -> str | None:
    """Layer of one source file; None for code outside ``repro``."""
    if os.path.abspath(path).startswith(_HERE + os.sep):
        return "bench"
    norm = path.replace("\\", "/")
    cut = norm.rfind("/repro/")
    if cut < 0:
        return None
    parts = norm[cut + len("/repro/"):].split("/")
    if len(parts) == 1:
        return "other"  # repro/__init__.py
    pkg = parts[0]
    if pkg == "sim":
        return "sim.fluid" if parts[1] == "fluid.py" else "sim.engine"
    return _PACKAGE_LAYERS.get(pkg, "other")


def attribute_layers(stats: dict) -> dict[str, float]:
    """Charge every profiled function's self time to a layer.

    ``stats`` is :attr:`pstats.Stats.stats`.  A function in a ``repro``
    module belongs to that module's layer.  Builtins, C code and Python
    code outside ``repro`` (stdlib, numpy) are charged to their callers,
    split by the self time each caller's calls accounted for, and
    through non-``repro`` callers recursively.  Time with no ``repro``
    caller at all (interpreter start-up, the harness) lands in
    ``harness``.
    """
    shares: dict = {}

    def share(func, active):
        cached = shares.get(func)
        if cached is not None:
            return cached
        own = layer_of_file(func[0])
        if own is not None:
            out = {own: 1.0}
            shares[func] = out
            return out
        callers = {c: v for c, v in stats[func][4].items()
                   if c != func and c not in active and c in stats}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: float(v[1]) for c, v in callers.items()}
            total = sum(weights.values())
        if total <= 0.0:
            out = {"harness": 1.0}
        else:
            out = {}
            active = active | {func}
            for c, w in weights.items():
                for layer, s in share(c, active).items():
                    out[layer] = out.get(layer, 0.0) + s * w / total
        shares[func] = out  # first resolution wins, cycles included
        return out

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, s in share(func, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + tt * s
    return totals


# -- patching ------------------------------------------------------------------------


def _patch(owner, name: str, make):
    """Replace ``owner.name`` with ``make(original)``; returns an undo."""
    orig = getattr(owner, name)
    setattr(owner, name, make(orig))
    return lambda: setattr(owner, name, orig)


def _patch_function(module, name: str, make):
    """Replace a module-level function in every ``repro`` module bound to it.

    ``from x import f`` copies the binding, so the wrapper has to land in
    each importing module's namespace, not only in the defining one.
    """
    orig = getattr(module, name)
    new = make(orig)
    undo = []
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                undo.append((mod, attr))
    return lambda: [setattr(m, a, orig) for m, a in undo]


def _layer_modules():
    """Import every module a probe wraps (the import itself is set-up)."""
    from repro.mpi import communicator, runtime
    from repro.netsim import fabric
    from repro.serve import service, store
    from repro.sim import engine, fluid
    from repro.tuning import (autotuner, costmodel, measure, parallel,
                              taskbench)
    return {
        "engine": engine, "fluid": fluid, "runtime": runtime,
        "communicator": communicator, "fabric": fabric,
        "autotuner": autotuner, "costmodel": costmodel, "measure": measure,
        "parallel": parallel, "taskbench": taskbench,
        "store": store, "service": service,
    }


# -- the untraced run: exact work counts --------------------------------------------


class Counters:
    """Exact per-layer work counts for one process.

    Counts cover everything from :meth:`install` to :meth:`snapshot`:
    the workload's set-up and its timed part.  Per-runtime counters are
    cumulative on their objects, so the latest reading of each runtime
    (taken when one of its ``Engine.run`` calls returns) is its total.
    """

    def __init__(self):
        self.n = {
            "mpi.runtimes": 0, "mpi.p2p_msgs": 0, "netsim.transfers": 0,
            "sim.engine.batches": 0, "sim.fluid.memo_lookups": 0,
            "tuning.measurements": 0, "tuning.task_points": 0,
            "tuning.estimates": 0,
            "serve.index_builds": 0, "serve.store.appends": 0,
            "serve.store.records": 0, "serve.store.opens": 0,
            "gc.collections": 0,
        }
        self.t = {
            "mpi.runtime_init_s": 0.0, "serve.store.append_s": 0.0,
            "serve.store.compact_s": 0.0, "serve.store.open_s": 0.0,
            "gc.pause_s": 0.0,
        }
        # engine -> (runtime serial, weakref to the runtime)
        self._runtime_of = weakref.WeakKeyDictionary()
        self._latest: dict[int, tuple] = {}  # serial -> per-runtime totals
        self._undo: list = []
        self._gc_t0 = 0.0
        self._events0 = 0

    # gc.callbacks entry
    def _gc(self, phase, _info):
        if phase == "start":
            self._gc_t0 = _pc()
        else:
            self.n["gc.collections"] += 1
            self.t["gc.pause_s"] += _pc() - self._gc_t0

    def _timed(self, count: str, timer: str):
        n, t = self.n, self.t

        def make(orig):
            @wraps(orig)
            def wrapper(*args, **kw):
                t0 = _pc()
                try:
                    return orig(*args, **kw)
                finally:
                    t[timer] += _pc() - t0
                    n[count] += 1
            return wrapper
        return make

    def _counted(self, count: str):
        n = self.n

        def make(orig):
            @wraps(orig)
            def wrapper(*args, **kw):
                n[count] += 1
                return orig(*args, **kw)
            return wrapper
        return make

    def _harvest(self, engine) -> None:
        entry = self._runtime_of.get(engine)
        if entry is None:
            return
        serial, ref = entry
        rt = ref()
        if rt is None:
            return
        solver = rt.fabric.solver
        self._latest[serial] = (
            sum(ps.jobs for ps in rt.fabric.progress),
            solver.total_flows, solver.recomputes,
            solver.kernel_flows_solved, solver.fill_cache_hits,
        )

    def install(self) -> None:
        mods = _layer_modules()
        gc.callbacks.append(self._gc)
        self._undo.append(lambda: gc.callbacks.remove(self._gc))
        Engine = mods["engine"].Engine
        self._events0 = Engine.events_total
        counters = self

        def wrap_run(orig):
            @wraps(orig)
            def run(engine, *args, **kw):
                b0 = engine.batches
                try:
                    return orig(engine, *args, **kw)
                finally:
                    counters.n["sim.engine.batches"] += engine.batches - b0
                    counters._harvest(engine)
            return run

        def wrap_runtime_init(orig):
            @wraps(orig)
            def init(rt, *args, **kw):
                t0 = _pc()
                orig(rt, *args, **kw)
                counters.t["mpi.runtime_init_s"] += _pc() - t0
                serial = counters.n["mpi.runtimes"]
                counters.n["mpi.runtimes"] += 1
                counters._runtime_of[rt.engine] = (serial, weakref.ref(rt))
            return init

        def wrap_compact(orig):
            @wraps(orig)
            def compact(store, *args, **kw):
                t0 = _pc()
                out = orig(store, *args, **kw)
                counters.t["serve.store.compact_s"] += _pc() - t0
                counters.n["serve.store.records"] += out["records"]
                return out
            return compact

        store = mods["store"].DecisionStore
        self._undo += [
            _patch(Engine, "run", wrap_run),
            _patch(mods["runtime"].MPIRuntime, "__init__", wrap_runtime_init),
            _patch(mods["communicator"].Communicator, "isend",
                   self._counted("mpi.p2p_msgs")),
            _patch(mods["fabric"].Fabric, "start_transfer",
                   self._counted("netsim.transfers")),
            _patch(mods["parallel"].TaskPoint, "run",
                   self._counted("tuning.task_points")),
            _patch(store, "__init__",
                   self._timed("serve.store.opens", "serve.store.open_s")),
            _patch(store, "append",
                   self._timed("serve.store.appends", "serve.store.append_s")),
            _patch(store, "records", self._counted("serve.index_builds")),
            _patch(store, "compact", wrap_compact),
            _patch_function(mods["measure"], "measure_collective",
                            self._counted("tuning.measurements")),
            # task-based tuning estimates every candidate from its task
            # costs; these are the model half of the task+h method
            *[_patch_function(mods["costmodel"], f"estimate_{coll}",
                              self._counted("tuning.estimates"))
              for coll in ("bcast", "allreduce", "reduce")],
            # the fill memo's lookup has no public counter; its hits do
            # (kernel_stats), so count lookups to get the hit ratio
            _patch_function(mods["fluid"], "_fill_memo_get",
                            self._counted("sim.fluid.memo_lookups")),
        ]

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def snapshot(self) -> dict:
        from repro.sim.engine import Engine

        jobs, flows, recomputes, solved, hits = (
            [sum(col) for col in zip(*self._latest.values())] or [0] * 5)
        events = Engine.events_total - self._events0
        msgs = self.n["mpi.p2p_msgs"]
        lookups = self.n["sim.fluid.memo_lookups"]
        out = dict(self.n)
        out.update(self.t)
        out.update({
            "sim.engine.events": events,
            "sim.engine.events_per_msg": events / msgs if msgs else 0.0,
            "netsim.progress_jobs": jobs,
            "sim.fluid.flows": flows,
            "sim.fluid.recomputes": recomputes,
            "sim.fluid.flows_solved": solved,
            "sim.fluid.memo_hits": hits,
            "sim.fluid.memo_hit_ratio": hits / lookups if lookups else 0.0,
        })
        return out


# -- the traced run: spans + profiler layers -----------------------------------------


class Tracer:
    """Spans around layer entry points plus profiler-attributed self time.

    Spans are aggregated as they close, per ``(parent, name)`` edge:
    count, total duration, and self time (duration minus the part its
    child spans cover).  Generator-driven layers (collective algorithms,
    modules, the fluid re-solve callback) have no call to wrap; the
    profiler's per-function self time covers them.
    """

    #: (span name, module key, owner attribute path, method)
    SPANS = (
        ("Autotuner.tune", "autotuner", "Autotuner", "tune"),
        ("TaskBench.bench_bcast_tasks", "taskbench", "TaskBench",
         "bench_bcast_tasks"),
        ("TaskBench.bench_allreduce_tasks", "taskbench", "TaskBench",
         "bench_allreduce_tasks"),
        ("TaskBench.bench_reduce_tasks", "taskbench", "TaskBench",
         "bench_reduce_tasks"),
        ("MPIRuntime()", "runtime", "MPIRuntime", "__init__"),
        ("MPIRuntime.run", "runtime", "MPIRuntime", "run"),
        ("Engine.run", "engine", "Engine", "run"),
        ("Communicator.isend", "communicator", "Communicator", "isend"),
        ("Communicator.irecv", "communicator", "Communicator", "irecv"),
        ("Fabric.start_transfer", "fabric", "Fabric", "start_transfer"),
        ("FluidSolver.start_flow", "fluid", "FluidSolver", "start_flow"),
        ("DecisionStore()", "store", "DecisionStore", "__init__"),
        ("DecisionStore.append", "store", "DecisionStore", "append"),
        ("DecisionStore.records", "store", "DecisionStore", "records"),
        ("DecisionStore.compact", "store", "DecisionStore", "compact"),
        ("DecisionService.decide", "service", "DecisionService", "decide"),
    )

    def __init__(self):
        self.profiler = cProfile.Profile()
        self.edges: dict[tuple[str, str], list] = {}  # -> [n, total, self]
        self._stack: list[list] = [["<root>", 0.0]]  # [name, child time]
        self._undo: list = []

    def start(self) -> None:
        """Turn the profiler on; call before importing ``repro``."""
        self.profiler.enable()

    def _span(self, name: str, orig):
        stack, edges = self._stack, self.edges

        @wraps(orig)
        def wrapper(*args, **kw):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = _pc()
            try:
                return orig(*args, **kw)
            finally:
                dt = _pc() - t0
                stack.pop()
                parent[1] += dt
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
        return wrapper

    def install(self) -> None:
        mods = _layer_modules()
        for name, mod, owner, attr in self.SPANS:
            cls = getattr(mods[mod], owner)
            self._undo.append(
                _patch(cls, attr, lambda orig, name=name: self._span(name, orig)))
        self._undo.append(_patch_function(
            mods["measure"], "measure_collective",
            lambda orig: self._span("measure_collective", orig)))

    def stop(self) -> None:
        self.profiler.disable()
        while self._undo:
            self._undo.pop()()

    def spans(self) -> list[dict]:
        """One row per (parent, name) edge, largest total first."""
        rows = [
            {"name": name, "parent": parent, "count": n,
             "total_s": total, "self_s": own}
            for (parent, name), (n, total, own) in self.edges.items()
        ]
        rows.sort(key=lambda r: -r["total_s"])
        return rows

    def layers(self) -> dict[str, float]:
        return attribute_layers(pstats.Stats(self.profiler).stats)
