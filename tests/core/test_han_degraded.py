"""HAN degraded mode: dead inter-node link -> flat fallback.

Topology: 5 nodes on a 1D torus (ring).  Killing both directions of the
2<->3 link wedges every hierarchical inter-node schedule (chain/binary
trees span the whole ring), but star routes to/from node 0 survive
(2 -> 1 -> 0 and 3 -> 4 -> 0), which is exactly what the flat fallback
uses.
"""

import dataclasses

import numpy as np

from repro.core.han import HanModule
from repro.faults import FaultPlan, FaultyMachineSpec, LinkFlap
from repro.hardware import small_cluster
from repro.mpi import MPIRuntime
from repro.obs import ObsRecorder

KiB = 1024


def ring5(ppn=2):
    return dataclasses.replace(
        small_cluster(num_nodes=5, ppn=ppn),
        topology="torus", topo_params={"dims": (5,)},
    )


def dead_link_machine():
    return FaultyMachineSpec.wrap(ring5(), FaultPlan().add(LinkFlap(("link", 2, 3))))


def run_allreduce(machine, han, nbytes=256 * KiB, until=None):
    runtime = MPIRuntime(machine)

    def prog(comm):
        payload = np.full(int(nbytes // 8), float(comm.rank + 1))
        out = yield from han.allreduce(comm, nbytes, payload=payload)
        return comm.now, float(out[0])

    results = runtime.run(prog, until=until)
    return results, runtime


def test_allreduce_completes_and_is_correct_despite_dead_link():
    machine = dead_link_machine()
    results, _ = run_allreduce(machine, HanModule(degraded_timeout=2e-3))
    expect = sum(range(1, machine.num_ranks + 1))
    assert all(v == expect for _, v in results)
    # the probe deadline gates completion: everything lands after it
    assert all(t >= 2e-3 for t, _ in results)


def test_without_probe_the_hierarchical_schedule_wedges():
    # the event queue drains with every rank still blocked on flows that
    # stalled at the dead link: no rank ever returns.  A merely *slow*
    # schedule would still hold pending events at the horizon; a wedged
    # one has none (run(until=T) itself advances now to exactly T).
    results, runtime = run_allreduce(dead_link_machine(), HanModule(), until=1.0)
    assert all(r is None for r in results)
    assert runtime.engine.queue_depth == 0
    assert runtime.engine.now == 1.0


def test_bcast_falls_back_too():
    machine = dead_link_machine()
    runtime = MPIRuntime(machine)
    han = HanModule(degraded_timeout=2e-3)
    nbytes = 128 * KiB

    def prog(comm):
        payload = np.full(int(nbytes // 8), 42.0) if comm.rank == 0 else None
        out = yield from han.bcast(comm, nbytes, root=0, payload=payload)
        return float(out[0])

    assert runtime.run(prog) == [42.0] * machine.num_ranks


def test_verdict_is_cached_per_communicator():
    # second collective on the same comm skips the probe: it completes
    # well before a fresh 2 ms deadline could have fired
    machine = dead_link_machine()
    runtime = MPIRuntime(machine)
    han = HanModule(degraded_timeout=2e-3)

    def prog(comm):
        yield from han.allreduce(comm, 8.0, payload=np.ones(1))
        t1 = comm.now
        out = yield from han.allreduce(comm, 8.0, payload=np.ones(1))
        return comm.now - t1, float(out[0])

    results = runtime.run(prog)
    n = machine.num_ranks
    assert all(v == float(n) for _, v in results)
    assert all(dt < 2e-3 for dt, _ in results)


def test_healthy_fabric_stays_hierarchical_and_correct():
    base = ring5()
    probing = HanModule(degraded_timeout=2e-3)
    results, _ = run_allreduce(base, probing)
    expect = sum(range(1, base.num_ranks + 1))
    assert all(v == expect for _, v in results)
    # no deadline stall on a healthy fabric: finishes well under 2 ms + slack
    assert all(t < 2e-3 for t, _ in results)


def test_probe_disabled_is_bit_identical_to_seed_behavior():
    base = ring5()
    t_plain, _ = run_allreduce(base, HanModule())
    t_none, _ = run_allreduce(base, HanModule(degraded_timeout=None))
    assert t_plain == t_none


def _fallback_counts(machine):
    """Run one bcast and one allreduce under a recorder; returns the
    ``han.fallbacks`` counter values by collective."""
    runtime = MPIRuntime(machine)
    han = HanModule(degraded_timeout=2e-3)

    def prog(comm):
        yield from han.bcast(comm, 8.0, root=0, payload=np.ones(1))
        yield from han.allreduce(comm, 8.0, payload=np.ones(1))

    with ObsRecorder(runtime.engine) as rec:
        runtime.run(prog)
    return {
        dict(c.labels)["coll"]: c.value
        for c in rec.metrics.counters if c.name == "han.fallbacks"
    }


def test_fallback_is_counted_once_per_collective():
    assert _fallback_counts(dead_link_machine()) == {
        "bcast": 1.0, "allreduce": 1.0,
    }


def test_healthy_fabric_counts_no_fallback():
    assert _fallback_counts(ring5()) == {}
