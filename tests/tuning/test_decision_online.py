"""Tests for lookup-table tie-breaking and the online (STAR-MPI) tuner."""

import numpy as np
import pytest

from repro.core import HanConfig
from repro.hardware import tiny_cluster
from repro.mpi import MPIRuntime, SUM
from repro.tuning import LookupTable
from repro.tuning.online import OnlineTuner

KiB, MiB = 1024, 1024 * 1024

MID = HanConfig(fs=256 * KiB, imod="adapt", smod="sm", ibalg="binary",
                iralg="binary")
BIG = HanConfig(fs=2 * MiB, imod="adapt", smod="solo", ibalg="chain",
                iralg="chain")


class TestLookupTieBreaking:
    """decide() must not depend on dict insertion order (save/load reorders)."""

    def build(self, order):
        # two samples equidistant (log-scale) from a 2 MiB query
        t = LookupTable()
        samples = {1 * MiB: MID, 4 * MiB: BIG}
        for m in order:
            t.put("bcast", 8, 4, m, samples[m])
        return t

    def test_tie_breaks_on_canonical_key_not_insertion_order(self):
        fwd = self.build([1 * MiB, 4 * MiB])
        rev = self.build([4 * MiB, 1 * MiB])
        assert fwd.decide(8, 4, 2 * MiB, "bcast") == MID  # smaller key wins
        assert rev.decide(8, 4, 2 * MiB, "bcast") == MID

    def test_decide_survives_save_load_roundtrip(self, tmp_path):
        # save() sorts rows, so a fresh table and its round-trip used to
        # hold the same entries in different insertion order — and could
        # pick different configs for tied queries
        fresh = self.build([4 * MiB, 1 * MiB])
        fresh.save(tmp_path / "t.json")
        loaded = LookupTable.load(tmp_path / "t.json")
        assert loaded.entries == fresh.entries
        for m in (512 * KiB, 1 * MiB, 2 * MiB, 3 * MiB, 8 * MiB):
            for n, p in ((8, 4), (4, 8), (6, 6)):
                assert loaded.decide(n, p, m, "bcast") == fresh.decide(
                    n, p, m, "bcast"
                ), (n, p, m)

    def test_geometry_ties_also_canonical(self):
        t = LookupTable()
        # (4, 8) and (16, 2) are log-equidistant from a (8, 4) query
        t.put("bcast", 16, 2, 1 * MiB, BIG)
        t.put("bcast", 4, 8, 1 * MiB, MID)
        assert t.decide(8, 4, 1 * MiB, "bcast") == MID  # kn=4 < kn=16


class TestOnlineTuner:
    CANDIDATES = [
        HanConfig(fs=None, imod="libnbc", smod="sm"),
        HanConfig(fs=128 * KiB, imod="adapt", smod="sm", ibalg="chain",
                  iralg="chain", ibs=64 * KiB, irs=64 * KiB),
    ]

    def run_calls(self, tuner, ncalls, nbytes=512 * KiB):
        machine = tiny_cluster(num_nodes=3, ppn=2)
        runtime = MPIRuntime(machine)

        def prog(comm):
            for _ in range(ncalls):
                yield from tuner.bcast(comm, nbytes)

        runtime.run(prog)
        return runtime.engine.now

    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            OnlineTuner(candidates=[])

    def test_converges_after_exploration(self):
        tuner = OnlineTuner(candidates=self.CANDIDATES,
                            trials_per_candidate=2)
        nbytes = 512 * KiB
        assert not tuner.converged("bcast", nbytes)
        self.run_calls(tuner, ncalls=tuner.total_trials + 1, nbytes=nbytes)
        assert tuner.converged("bcast", nbytes)
        assert tuner.decision("bcast", nbytes) in self.CANDIDATES

    def test_locks_the_faster_candidate(self):
        tuner = OnlineTuner(candidates=self.CANDIDATES)
        nbytes = 512 * KiB
        self.run_calls(tuner, ncalls=len(self.CANDIDATES) + 2, nbytes=nbytes)
        locked = tuner.decision("bcast", nbytes)
        # measure both candidates offline and check the pick
        from repro.tuning import measure_collective

        machine = tiny_cluster(num_nodes=3, ppn=2)
        times = {
            cfg.key(): measure_collective(machine, "bcast", nbytes, cfg).time
            for cfg in self.CANDIDATES
        }
        assert times[locked.key()] == min(times.values())

    def test_buckets_are_independent(self):
        tuner = OnlineTuner(candidates=self.CANDIDATES)
        self.run_calls(tuner, ncalls=4, nbytes=512 * KiB)
        assert tuner.converged("bcast", 512 * KiB)
        assert not tuner.converged("bcast", 4 * KiB)

    def test_allreduce_path(self):
        tuner = OnlineTuner(candidates=self.CANDIDATES)
        machine = tiny_cluster(num_nodes=2, ppn=2)
        runtime = MPIRuntime(machine)
        n = 64

        def prog(comm):
            outs = []
            for _ in range(4):
                out = yield from tuner.allreduce(
                    comm, nbytes=n * 8,
                    payload=np.ones(n) * (comm.rank + 1), op=SUM,
                )
                outs.append(out)
            return outs

        results = runtime.run(prog)
        want = np.ones(n) * sum(r + 1 for r in range(4))
        for outs in results:
            for out in outs:
                np.testing.assert_allclose(out, want)
        assert tuner.converged("allreduce", n * 8)
