"""End-to-end integration: tune -> persist -> decide -> run -> win.

These tests exercise the full user-facing pipeline the README promises,
across package boundaries (tuning + core + comparators + bench).
"""

import numpy as np
import pytest

from repro.bench import imb_run
from repro.comparators import OpenMPIDefault, OpenMPIHan
from repro.core import HanConfig, HanModule
from repro.hardware import shaheen2, tiny_cluster
from repro.mpi import MPIRuntime, SUM
from repro.tuning import Autotuner, LookupTable, SearchSpace

KiB, MiB = 1024, 1024 * 1024

MACHINE = shaheen2(num_nodes=4, ppn=4)
SPACE = SearchSpace(
    seg_sizes=(512 * KiB, 1 * MiB),
    messages=(64 * KiB, 1 * MiB, 8 * MiB),
    adapt_algorithms=("chain", "binary"),
    inner_segs=(512 * KiB,),
)


@pytest.fixture(scope="module")
def tuned_table(tmp_path_factory):
    tuner = Autotuner(MACHINE, space=SPACE, warm_iters=6)
    report = tuner.tune(colls=("bcast",), method="task+h")
    path = tmp_path_factory.mktemp("tables") / "table.json"
    report.table.save(path)
    return LookupTable.load(path)


def test_tuned_han_beats_default_large_bcast(tuned_table):
    han = OpenMPIHan(decision_fn=tuned_table.as_decision_fn())
    omp = OpenMPIDefault()
    sizes = [8 * MiB]
    t_han = imb_run(MACHINE, han, "bcast", sizes).times[0]
    t_omp = imb_run(MACHINE, omp, "bcast", sizes).times[0]
    assert t_han < t_omp


def test_tuned_decisions_used_with_data(tuned_table):
    han = HanModule(decision_fn=tuned_table.as_decision_fn())
    data = np.arange(1 * MiB // 8, dtype=np.float64)
    runtime = MPIRuntime(MACHINE)

    def prog(comm):
        payload = data if comm.rank == 0 else None
        out = yield from han.bcast(comm, nbytes=data.nbytes, payload=payload)
        return np.array_equal(out, data)

    assert all(runtime.run(prog))


def test_fig1_task_schedule_structure():
    """Leaders run ib(0), sbib x (u-1), sb; others run sb x u (Fig 1)."""
    from repro.core.han import han_segments
    from repro.core.subcomms import build_hierarchy
    from repro.modules import make_module

    machine = tiny_cluster(num_nodes=2, ppn=2)
    runtime = MPIRuntime(machine)
    cfg = HanConfig(fs=64 * KiB, imod="adapt", smod="sm", ibalg="binomial")
    nbytes = 256 * KiB
    log: dict[int, list[str]] = {}

    def prog(comm):
        hier = yield from build_hierarchy(comm)
        imod, smod = make_module(cfg.imod), make_module(cfg.smod)
        u, seg_bytes, _ = han_segments(nbytes, cfg.fs, None)
        tasks = log.setdefault(comm.rank, [])
        if hier.local_rank == 0:
            req = imod.ibcast(hier.up, seg_bytes[0], root=0,
                              algorithm=cfg.ibalg)
            yield from hier.up.wait(req)
            tasks.append("ib")
            for i in range(1, u):
                req = imod.ibcast(hier.up, seg_bytes[i], root=0,
                                  algorithm=cfg.ibalg)
                yield from smod.bcast(hier.low, seg_bytes[i - 1], root=0)
                yield from hier.up.wait(req)
                tasks.append("sbib")
            yield from smod.bcast(hier.low, seg_bytes[u - 1], root=0)
            tasks.append("sb")
        else:
            for _i in range(u):
                yield from smod.bcast(hier.low, seg_bytes[_i], root=0)
                tasks.append("sb")

    runtime.run(prog)
    u = 4  # 256KB / 64KB
    assert log[0] == ["ib"] + ["sbib"] * (u - 1) + ["sb"]
    assert log[2] == ["ib"] + ["sbib"] * (u - 1) + ["sb"]
    assert log[1] == ["sb"] * u
    assert log[3] == ["sb"] * u


def test_full_stack_allreduce_with_tuning_and_data():
    tuner = Autotuner(MACHINE, space=SPACE, warm_iters=4)
    report = tuner.tune(colls=("allreduce",), method="task+h")
    han = HanModule(decision_fn=report.table.as_decision_fn())
    n = 2048
    runtime = MPIRuntime(MACHINE)

    def prog(comm):
        mine = np.full(n, float(comm.rank + 1))
        out = yield from han.allreduce(comm, nbytes=n * 8, payload=mine,
                                       op=SUM)
        return out

    results = runtime.run(prog)
    want = np.full(n, float(sum(r + 1 for r in range(MACHINE.num_ranks))))
    for out in results:
        np.testing.assert_allclose(out, want)
