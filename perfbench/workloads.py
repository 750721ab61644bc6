"""The three workloads: set-up, the timed part, and the output check.

Each workload is a class with ``setup(ctx)`` and ``timed(ctx)``, which
leave what they produced in ``ctx``.  ``timed`` returns one
``(wall_s, calibration_s)`` pair per timed unit, as measured by
``ctx["unit"]`` (see ``calib.py``): the unit's wall time and the host's
speed around and during it.  ``check(ctx, ref, ops)`` compares every
output with the recorded reference and tallies the operations in
``ops``; ``outputs(ctx)`` is what ``record.py`` stores as that
reference.  ``memory_bound`` picks the calibration loop
(:func:`calib.calibrate`) whose slowdowns track the workload's.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

KiB, MiB = 1024, 1024 * 1024
_pc = time.perf_counter


def config_digest(cfg) -> str:
    """16 hex digits over a config's tuned fields (``config_to_dict``)."""
    from repro.tuning.lookup import config_to_dict

    text = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Ops:
    """Operation tally: attempted, failed, and the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


# -- paper4096 ---------------------------------------------------------------------


class Paper4096:
    """HAN bcast + allreduce of 1 MiB on shaheen2 256x16 (4096 ranks)."""

    name = "paper4096"
    memory_bound = True

    def setup(self, ctx):
        from repro.experiments import scaling4096

        ctx["mod"] = scaling4096

    def timed(self, ctx):
        def unit():
            ctx["out"] = ctx["mod"].run(scale="paper", save=False)
        return [ctx["unit"](unit)]

    def outputs(self, ctx):
        return {"times": ctx["out"]["times"]}

    def check(self, ctx, ref, ops: Ops):
        got = ctx["out"]["times"]
        for coll, want in ref["times"].items():
            ops.check(got.get(coll) == want,
                      f"{coll}: simulated time {got.get(coll)!r} != {want!r}")


# -- tune16x12 ---------------------------------------------------------------------


def tune_space():
    """The full-workload space of the simulation-kernel bench (Fig-8 path)."""
    from repro.tuning import SearchSpace

    return SearchSpace(
        seg_sizes=(512 * KiB, 1 * MiB),
        messages=[2.0 ** k for k in range(14, 25, 2)],
        adapt_algorithms=("chain", "binomial"),
    )


class Tune16x12:
    """Task+h autotuning of bcast + allreduce on shaheen2 16x12."""

    name = "tune16x12"
    memory_bound = True

    def setup(self, ctx):
        from repro.hardware import shaheen2
        from repro.tuning import Autotuner
        from repro.tuning.cache import MeasurementCache

        ctx["make"] = lambda: Autotuner(
            shaheen2(num_nodes=16, ppn=12), space=tune_space(), warm_iters=6,
            workers=0, cache=MeasurementCache(),
        )

    def timed(self, ctx):
        def unit():
            ctx["report"] = ctx["make"]().tune(
                colls=("bcast", "allreduce"), method="task+h")
        return [ctx["unit"](unit)]

    def outputs(self, ctx):
        rep = ctx["report"]
        return {
            "tuning_cost": rep.tuning_cost,
            "winners": [
                [coll, n, p, m, config_digest(cfg), t]
                for coll, n, p, m, cfg, t in rep.winners()
            ],
        }

    def check(self, ctx, ref, ops: Ops):
        got = self.outputs(ctx)
        ops.check(got["tuning_cost"] == ref["tuning_cost"],
                  f"tuning_cost {got['tuning_cost']!r} != "
                  f"{ref['tuning_cost']!r}")
        table = {(w[0], w[3]): w for w in got["winners"]}
        for want in ref["winners"]:
            have = table.pop((want[0], want[3]), None)
            ops.check(have == want, f"winner {want[:4]}: {have} != {want}")
        for extra in table.values():
            ops.check(False, f"unexpected winner {extra}")


# -- serve_mixed -------------------------------------------------------------------

#: the warmed fleet; gpu_pod stays in it on purpose (see NOTES.md)
FLEET = "shaheen2:4x8,stampede2:4x12,tiny_cluster:2x2,gpu_pod"
#: presets with no shard in the store: their queries get ``default``
UNSERVED = ("small_cluster", "gpu_cluster")
COLLS = ("bcast", "allreduce")
#: decide() calls in one stream
STREAM = 50_000
#: decide_batch passes over the stream; each is one wall_s sample
BATCH_PASSES = 8
#: the kinds of query in the universe; the stream draws uniformly over
#: all its entries, so each kind's share is its share of the universe
KINDS = ("exact", "interpolated", "nearest", "default")


def query_universe():
    """Every query the stream can draw, grouped by kind.

    Returns ``{kind: [(label, Query), ...]}``; labels are stable names
    the reference answers are recorded under.  Machines are built once
    and shared by their queries, as a runtime would hold its own spec.
    """
    from repro.hardware.machines import MACHINE_PRESETS
    from repro.serve.service import Query
    from repro.serve.warm import WARM_SPACES, parse_fleet

    sizes = sorted(WARM_SPACES["small"].messages)
    fleet = parse_fleet(FLEET)
    kinds: dict[str, list] = {k: [] for k in KINDS}
    for machine in fleet:
        tag = f"{machine.name}:{machine.num_nodes}x{machine.ppn}"
        # same hardware band, commsize never sampled -> nearest
        wider = machine.scaled(num_nodes=2 * machine.num_nodes)
        wtag = f"{wider.name}:{wider.num_nodes}x{wider.ppn}"
        for coll in COLLS:
            for i, m in enumerate(sizes):
                kinds["exact"].append(
                    (f"exact/{tag}/{coll}/{m:g}", Query(coll, m, machine=machine)))
                kinds["nearest"].append(
                    (f"nearest/{wtag}/{coll}/{m:g}", Query(coll, m, machine=wider)))
                if i + 1 < len(sizes):
                    m15 = m * 1.5
                    kinds["interpolated"].append(
                        (f"interpolated/{tag}/{coll}/{m15:g}",
                         Query(coll, m15, machine=machine)))
            for m in (sizes[0] / 4, sizes[-1] * 4):  # outside the sampled range
                kinds["nearest"].append(
                    (f"nearest/{tag}/{coll}/{m:g}", Query(coll, m, machine=machine)))
    for name in UNSERVED:
        machine = MACHINE_PRESETS[name]()
        tag = f"{machine.name}:{machine.num_nodes}x{machine.ppn}"
        for coll in COLLS:
            for m in sizes:
                kinds["default"].append(
                    (f"default/{tag}/{coll}/{m:g}", Query(coll, m, machine=machine)))
    return kinds


def query_stream(seed: int, kinds: dict, n: int = STREAM):
    """``n`` seeded draws, uniform over every entry of the universe.

    The mix is synthetic: no serving traffic has been recorded, so no
    kind is weighted over another.
    """
    universe = [entry for k in KINDS for entry in kinds[k]]
    return random.Random(seed).choices(universe, k=n)


def answer(decision) -> list:
    """What the reference records per query: provenance + config digest."""
    cfg = decision.config
    return [decision.provenance, config_digest(cfg) if cfg is not None else None]


def _percentile(sorted_xs, q):
    """Nearest-rank percentile of an already sorted sample."""
    i = min(len(sorted_xs) - 1, max(0, int(round(q * len(sorted_xs))) - 1))
    return sorted_xs[i]


class ServeMixed:
    """Warm + compact + reopen a store, then a seeded mixed query stream."""

    name = "serve_mixed"
    # the warmed lookup structures stay in cache; against the
    # memory-touching loop, wall_cal spread up to 12% over 10 seeds,
    # against the cache-resident one 2-8%
    memory_bound = False

    def setup(self, ctx):
        from repro.serve.service import DecisionService
        from repro.serve.store import DecisionStore
        from repro.serve.warm import WARM_SPACES, parse_fleet, warm_machine

        root = ctx["store_dir"]
        store = DecisionStore(root)
        warms = {}
        for machine in parse_fleet(FLEET):
            tag = f"{machine.name}:{machine.num_nodes}x{machine.ppn}"
            try:
                s = warm_machine(machine, store, space=WARM_SPACES["small"])
                warms[tag] = [s["records"], s["searches"],
                              s["tuning_cost_simulated_s"]]
            except ValueError as exc:
                warms[tag] = {"raises": type(exc).__name__}
        store.compact()
        service = DecisionService(DecisionStore(root))
        kinds = query_universe()
        stream = query_stream(ctx["seed"], kinds)
        # lazy set-up a serving process pays once: shard indexes and
        # guideline verdicts, one query per universe entry
        universe = [q for group in kinds.values() for _label, q in group]
        for q in universe:
            try:
                service.decide(q)
            except ValueError:
                pass
        ctx.update(warms=warms, service=service, stream=stream,
                   decides=len(universe))

    def timed(self, ctx):
        service, stream = ctx["service"], ctx["stream"]
        decide = service.decide
        answers, ok, queries, ok_lat = [], [], [], []
        pc = _pc
        # closed loop, one caller: each call timed on its own; raised
        # queries are counted (check) but not timed
        for _label, q in stream:
            t0 = pc()
            try:
                d = decide(q)
            except ValueError as exc:
                answers.append({"raises": type(exc).__name__})
                continue
            ok_lat.append(pc() - t0)
            answers.append(d)
            ok.append(d)
            queries.append(q)
        # throughput: the answerable stream through decide_batch, which
        # aborts a whole batch on one raising query.  Each pass must
        # repeat the per-call answers, which check() holds to the
        # reference; a pass is compared and dropped before the next.
        samples, mismatches = [], []
        for _ in range(BATCH_PASSES):
            batch = []
            samples.append(ctx["unit"](
                lambda: batch.append(service.decide_batch(queries))))
            out = batch[0]
            if len(out) != len(ok):
                mismatches.append(f"decide_batch returned {len(out)} "
                                  f"answers for {len(ok)} queries")
                continue
            for i, (b, a) in enumerate(zip(out, ok)):
                if b.provenance != a.provenance or not (
                        b.config is a.config or b.config == a.config):
                    mismatches.append(f"decide_batch answer {i} differs "
                                      f"from decide(): {b.provenance}")
        ctx.update(
            answers=answers, mismatches=mismatches, answered=len(ok),
            ok_lat=sorted(ok_lat),
            decides=ctx["decides"] + len(stream) + BATCH_PASSES * len(ok),
        )
        return samples

    def latency(self, ctx) -> dict:
        xs = ctx["ok_lat"]
        return {
            "decide_p50_us": _percentile(xs, 0.50) * 1e6,
            "decide_p99_us": _percentile(xs, 0.99) * 1e6,
            "decide_samples": len(xs),
        }

    def outputs(self, ctx):
        service = ctx["service"]
        svc_answers = {}
        for group in query_universe().values():
            for label, q in group:
                try:
                    svc_answers[label] = answer(service.decide(q))
                except ValueError as exc:
                    svc_answers[label] = {"raises": type(exc).__name__}
        return {"warms": ctx["warms"], "answers": svc_answers}

    def check(self, ctx, ref, ops: Ops):
        for tag, want in ref["warms"].items():
            have = ctx["warms"].get(tag)
            if isinstance(want, dict) and have == want:
                ops.attempted += 1
                ops.known += 1  # recorded defect, see NOTES.md
            else:
                ops.check(have == want, f"warm {tag}: {have} != {want}")
        refs = ref["answers"]
        digests: dict[int, list] = {}

        def verify(label, got):
            want = refs[label]
            if isinstance(want, dict):  # recorded defect: it must raise
                if got == want:
                    ops.attempted += 1
                    ops.known += 1
                else:
                    ops.check(False, f"{label}: {got} != {want}")
                return
            if isinstance(got, dict):
                ops.check(False, f"{label}: raised {got['raises']}")
                return
            cfg = got.config
            key = id(cfg)
            have = digests.get(key)
            if have is None or have[0] is not cfg:
                have = digests[key] = [
                    cfg, config_digest(cfg) if cfg is not None else None]
            ops.check(got.provenance == want[0] and have[1] == want[1],
                      f"{label}: {[got.provenance, have[1]]} != {want}")

        for (label, _q), got in zip(ctx["stream"], ctx["answers"]):
            verify(label, got)
        passes = BATCH_PASSES * ctx["answered"]
        bad = ctx["mismatches"]
        ops.attempted += passes
        ops.failed += len(bad)
        ops.notes.extend(bad[:max(0, 20 - len(ops.notes))])

    def provenance_counts(self, ctx) -> dict:
        """Answers per provenance over the per-call and batch passes."""
        counts = {"exact": 0, "nearest": 0, "interpolated": 0, "default": 0}
        for d in ctx["answers"]:
            if not isinstance(d, dict):
                counts[d.provenance] += 1 + BATCH_PASSES
        return counts


WORKLOADS = {w.name: w for w in (Paper4096(), Tune16x12(), ServeMixed())}
