"""Event-engine semantics, regression tests and a recorded-digest oracle.

The engine's queue is one ``heapq`` of ``[time, key, fn]`` entries.
These tests pin its semantics:

- same-instant (priority, seq) total order, including entries scheduled
  *during* the instant being retired,
- ``schedule_at`` firing at the bit-exact requested instant (no
  ``now + delta`` round trip),
- lazy cancellation with threshold compaction (queue depth stays
  bounded under schedule-then-cancel churn),
- the drained ``run(until=T)`` path advancing ``now`` to exactly ``T``,
- the composite-wait callback sweeps (no dead-closure accumulation on
  long-lived events).

The oracle section replays 20 random raw-engine schedules and the 225
fluid fuzz schedules and checks a sha256 of every observable (fire log,
sampled rates, accounting integrals, ``events``, ``batches``, final
``now``) against ``engine_digests.json``.  The digests were recorded
while the engine still had two kernels (a batched numpy one and this
heap loop), which agreed on every value; the file stores the command
that produced them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sim.engine import (
    _COMPACT_MIN,
    PRIORITY_LATE,
    AllOf,
    AnyOf,
    Engine,
    SimEvent,
)
from repro.sim.fluid import FluidSolver
from tests.sim.test_fluid_differential import make_schedule

DIGESTS = Path(__file__).with_name("engine_digests.json")
DIGEST_COMMAND = (
    "PYTHONPATH=src python -m tests.sim.test_engine_kernels"
    " > tests/sim/engine_digests.json"
)
REPLAY_SEEDS = range(20)
FLUID_SEEDS = range(225)


@pytest.fixture(params=("batched", "scalar"))
def kernel(request):
    """The two ids of the retired kernel A/B, kept so every semantic
    test keeps its id; both build the one engine."""
    return request.param


# -- same-instant ordering ----------------------------------------------------


def test_same_instant_priority_then_seq_order(kernel):
    eng = Engine()
    order: list[str] = []
    eng.schedule_at(1.0, lambda: order.append("n0"))
    eng.schedule_at(1.0, lambda: order.append("late0"), priority=PRIORITY_LATE)
    eng.schedule_at(1.0, lambda: order.append("n1"))
    eng.schedule_at(1.0, lambda: order.append("late1"), priority=PRIORITY_LATE)
    eng.schedule_at(0.5, lambda: order.append("early"))
    eng.run()
    assert order == ["early", "n0", "n1", "late0", "late1"]


def test_mid_batch_scheduling_joins_the_batch(kernel):
    """Entries scheduled *during* a batch at the same instant keep the
    (priority, seq) total order: a fresh normal-priority entry still runs
    before a late-priority entry that was scheduled long before it."""
    eng = Engine()
    order: list[str] = []

    def first() -> None:
        order.append("first")
        eng.schedule(0.0, lambda: order.append("mid"))

    eng.schedule_at(2.0, first)
    eng.schedule_at(2.0, lambda: order.append("second"))
    eng.schedule_at(2.0, lambda: order.append("late"), priority=PRIORITY_LATE)
    eng.run()
    assert order == ["first", "second", "mid", "late"]


def test_batches_counts_distinct_instants(kernel):
    eng = Engine()
    for t in (1.0, 1.0, 1.0, 2.0, 2.0, 3.0):
        eng.schedule_at(t, lambda: None)
    eng.run()
    assert eng.events == 6
    assert eng.batches == 3


# -- schedule_at exactness ----------------------------------------------------


def test_schedule_at_fires_at_bit_exact_instant(kernel):
    # find a (now, when) pair where the naive now + (when - now) round
    # trip is off by an ulp; schedule_at must be immune to it
    a, b = next(
        (x, y)
        for x in (0.1, 0.2, 1 / 3, 0.7)
        for y in (0.9, 1.1, 1 / 7 + 1, 2.3)
        if x + (y - x) != y
    )
    eng = Engine()
    seen: list[float] = []

    def at_a() -> None:
        assert eng.now == a
        eng.schedule_at(b, lambda: seen.append(eng.now))

    eng.schedule_at(a, at_a)
    eng.run()
    assert seen == [b]  # exact ==, not approx


def test_schedule_at_current_instant_joins_current_batch(kernel):
    eng = Engine()
    order: list[str] = []

    def first() -> None:
        order.append("first")
        eng.schedule_at(1.0, lambda: order.append("same-instant"))

    eng.schedule_at(1.0, first)
    eng.run()
    assert order == ["first", "same-instant"]
    assert eng.now == 1.0


def test_schedule_at_past_rejected(kernel):
    eng = Engine()
    eng.schedule_at(1.0, lambda: eng.schedule_at(0.5, lambda: None))
    with pytest.raises(ValueError, match="in the past"):
        eng.run()


# -- run(until) drained path (regression: now must advance to T) -------------


def test_run_until_advances_now_when_queue_drains_early(kernel):
    eng = Engine()
    eng.schedule_at(1.0, lambda: None)
    assert eng.run(until=5.0) == 5.0
    assert eng.now == 5.0
    assert eng.events == 1


def test_run_until_on_empty_queue(kernel):
    eng = Engine()
    assert eng.run(until=3.0) == 3.0
    # an `until` in the past is a no-op, never a rewind
    assert eng.run(until=1.0) == 3.0
    assert eng.now == 3.0


def test_run_until_drained_with_blocked_process_is_not_deadlock(kernel):
    eng = Engine()
    never = eng.event("never")

    def prog():
        yield never

    eng.spawn(prog())
    # bounded run: the process is blocked forever, but with `until` that
    # is an observation window, not a deadlock
    assert eng.run(until=2.0) == 2.0
    assert eng.now == 2.0


# -- cancellation and compaction (regression: bounded queue) ------------------


def test_cancelled_callback_never_fires_and_clock_stays(kernel):
    eng = Engine()
    fired: list[str] = []
    tok = eng.schedule_at(1.0, lambda: fired.append("boom"))
    eng.cancel(tok)
    eng.cancel(tok)  # double cancel is a no-op
    eng.run()
    assert fired == []
    assert eng.events == 0
    assert eng.batches == 0
    # a drained queue of nothing but cancelled entries must not advance
    # the clock (matches the scalar kernel's skip-before-advance order)
    assert eng.now == 0.0


def test_stale_cancel_token_cannot_kill_a_recycled_slot(kernel):
    eng = Engine()
    fired: list[str] = []
    tok = eng.schedule_at(1.0, lambda: fired.append("a"))
    eng.run()
    assert fired == ["a"]
    eng.cancel(tok)  # entry already fired: no-op
    # the stale token is the fired entry, whose callback is already
    # cleared, so this cancel must not touch the new entry
    eng.schedule_at(2.0, lambda: fired.append("b"))
    eng.cancel(tok)
    eng.run()
    assert fired == ["a", "b"]


def test_schedule_then_cancel_churn_stays_bounded(kernel):
    """A pure lazy-deletion heap grows without bound under this load;
    the compacting queue must stay O(live entries)."""
    eng = Engine()
    live = [eng.schedule_at(1e9, lambda: None) for _ in range(8)]
    peak = 0
    for _ in range(200):
        tokens = [eng.schedule_at(1e9, lambda: None) for _ in range(64)]
        for tok in tokens:
            eng.cancel(tok)
        peak = max(peak, eng.queue_depth)
    assert peak <= 8 + 2 * _COMPACT_MIN
    assert eng.queue_depth < 8 + _COMPACT_MIN
    for tok in live:
        eng.cancel(tok)


def test_compaction_covers_the_bulk_tier():
    eng = Engine()
    n = 2048 + 100
    fired: list[int] = []
    tokens = [
        eng.schedule_at(10.0 + i, lambda i=i: fired.append(i))
        for i in range(n)
    ]
    eng.run(until=1.0)  # nothing is due; the whole queue stays pending
    keep = 10
    for tok in tokens[keep:]:
        eng.cancel(tok)
    # compaction reclaimed the dead span instead of leaving n-10 zombies
    assert eng.queue_depth < keep + _COMPACT_MIN
    eng.run()
    assert fired == list(range(keep))
    assert eng.events == keep


# -- composite waits ----------------------------------------------------------


def test_waitany_sweeps_losing_callbacks(kernel):
    """Regression: the losing events of an AnyOf must not retain the
    dead winner-selection closures (they capture the process and the
    whole event list)."""
    eng = Engine()
    evs = [eng.event(f"e{i}") for i in range(4)]

    def prog():
        got = yield AnyOf(evs)
        return got

    p = eng.spawn(prog())
    eng.schedule_at(1.0, lambda: evs[2].succeed("win"))
    eng.run()
    assert p.result == (2, "win")
    assert all(ev.callbacks == [] for ev in evs)


def test_waitany_no_accumulation_on_long_lived_events(kernel):
    eng = Engine()
    slow = eng.event("slow")

    def prog():
        for i in range(50):
            fast = eng.event(f"fast{i}")
            eng.schedule(0.0, lambda i=i, fast=fast: fast.succeed(i))
            idx, val = yield AnyOf([slow, fast])
            assert (idx, val) == (1, i)

    eng.spawn(prog())
    eng.run()
    assert slow.callbacks == []  # 50 rounds left zero dead closures


def test_waitall_with_already_triggered_events(kernel):
    eng = Engine()
    evs = [eng.event(f"e{i}") for i in range(3)]
    evs[0].succeed("a")
    evs[2].succeed("c")

    def prog():
        values = yield AllOf(evs)
        return values

    p = eng.spawn(prog())
    eng.schedule_at(1.0, lambda: evs[1].succeed("b"))
    eng.run()
    assert p.result == ["a", "b", "c"]


def test_waitall_all_pretriggered_resumes_at_current_time(kernel):
    eng = Engine()
    evs = [eng.event(f"e{i}") for i in range(3)]
    for i, ev in enumerate(evs):
        ev.succeed(i)

    def prog():
        values = yield AllOf(evs)
        return values

    p = eng.spawn(prog())
    eng.run()
    assert p.result == [0, 1, 2]
    assert eng.now == 0.0


def test_succeed_detaches_callbacks_before_firing(kernel):
    # callbacks appended *during* firing must not run in this round (the
    # pre-detach list was already snapshot) and must not linger after
    eng = Engine()
    ev = SimEvent(eng, "e")
    calls: list[str] = []

    def cb(_ev: SimEvent) -> None:
        calls.append("cb")
        ev.callbacks.append(lambda _e: calls.append("late-add"))

    ev.callbacks.append(cb)
    ev.succeed()
    assert calls == ["cb"]
    # the late addition landed on the fresh (detached) list and did not
    # fire in this round; the pre-fire list is gone
    assert len(ev.callbacks) == 1




# -- recorded-digest oracle ---------------------------------------------------


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def _random_schedule(seed: int):
    rng = np.random.default_rng(seed)
    # the first seeds are large (2548 entries), the rest 300; heavy
    # instant collisions throughout, plus enough cancels to trip
    # compaction
    n = 2548 if seed < 3 else 300
    times = rng.choice([0.0, 0.5, 1.0, 1.0, 1.0, 2.25, 4.0], size=n).tolist()
    prios = rng.integers(0, 2, size=n).tolist()
    cancels = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
    return times, prios, cancels


def _replay(times, prios, cancels):
    eng = Engine()
    fired: list[tuple[float, int]] = []
    tokens = {}
    for i, (t, p) in enumerate(zip(times, prios)):
        def fn(i=i):
            fired.append((eng.now, i))
            if i % 7 == 0:  # mid-instant child at the same instant
                eng.schedule(0.0, lambda i=i: fired.append((eng.now, 1000 + i)))
        tokens[i] = eng.schedule_at(t, fn, priority=p)
    for i in cancels:
        eng.cancel(tokens[i])
    eng.run()
    return fired, eng.events, eng.batches, eng.now


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_kernel_ab_random_schedules(seed, recorded):
    got = _replay(*_random_schedule(seed))
    assert _digest(got) == recorded["replay"][str(seed)]


def _run_fluid(schedule):
    """The fuzz replay of test_fluid_differential, instrumented with the
    engine counters so the oracle covers the execution *shape* (event
    count, batch count) and not just the observable timings."""
    caps, flows, cap_events, aborts, probes = schedule
    engine = Engine()
    solver = FluidSolver(engine, mode="incremental")
    rids = [solver.add_resource(c, name=f"r{i}") for i, c in enumerate(caps)]

    log: list = []
    fid_of: dict[int, int] = {}

    for i, (start, nbytes, route, rate_cap, weight) in enumerate(flows):
        def launch(i=i, nbytes=nbytes, route=route, rate_cap=rate_cap,
                   weight=weight):
            fid_of[i] = solver.start_flow(
                nbytes,
                route,
                lambda i=i: log.append(("done", i, engine.now)),
                rate_cap=rate_cap,
                weight=weight,
            )
        engine.schedule_at(start, launch)

    for t, rid, cap in cap_events:
        engine.schedule_at(
            t, lambda rid=rid, cap=cap: solver.set_capacity(rid, cap)
        )

    for t, i in aborts:
        def abort(i=i):
            fid = fid_of.get(i)
            if fid is not None:
                solver.abort_flow(fid)
                log.append(("abort", i, engine.now))
        engine.schedule_at(t, abort)

    for t in probes:
        def probe():
            solver.sync_accounting()
            log.append((
                "probe",
                engine.now,
                tuple(solver.flow_rate(fid_of.get(i, -1))
                      for i in range(len(flows))),
                tuple((solver.busy_time(r), solver.served_bytes(r))
                      for r in rids),
            ))
        engine.schedule_at(t, probe)

    engine.run()
    solver.sync_accounting()
    log.append((
        "final",
        engine.now,
        solver.active_flows,
        tuple((solver.busy_time(r), solver.served_bytes(r)) for r in rids),
    ))
    return log, engine.events, engine.batches, engine.now


@pytest.mark.parametrize("seed", FLUID_SEEDS)
def test_kernels_bit_identical_on_fluid_schedules(seed, recorded):
    got = _run_fluid(make_schedule(seed))
    assert _digest(got) == recorded["fluid"][str(seed)]


def _record() -> dict:
    return {
        "command": DIGEST_COMMAND,
        "replay": {
            str(s): _digest(_replay(*_random_schedule(s))) for s in REPLAY_SEEDS
        },
        "fluid": {
            str(s): _digest(_run_fluid(make_schedule(s))) for s in FLUID_SEEDS
        },
    }


if __name__ == "__main__":
    json.dump(_record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
