#!/usr/bin/env python3
"""Record the references every benchmark run is checked against.

Usage, from the repository root::

    python3 perfbench/record.py

Runs each workload twice, each time in a fresh process and with a
different seed, and refuses to write unless both runs agree on every
output and every work count.  Only ``serve_mixed`` uses its seed (for
its query stream); counts that differ between its two seeds are listed
under ``seed_dependent`` instead of being recorded.  ``paper4096`` must
also reproduce the committed ``scaling4096.times`` of
``BENCH_sim_kernel.json``.
Writes ``perfbench/references.json``: the outputs (simulated times,
tuning winners and cost, warm summaries and one answer per serving
query) and the exact per-layer counts.  Only counts are recorded;
timings are not references.

Re-record only when a change is meant to alter outputs or work counts,
and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, WORKLOADS, run_child


def main() -> int:
    root = os.getcwd()
    refs = {"outputs": {}, "counts": {}}
    for workload in WORKLOADS:
        a = run_child(root, workload, 1, "record", 0, 600.0)
        b = run_child(root, workload, 2, "record", 1, 600.0)
        counts = {k: v for k, v in a["counts"].items() if not k.endswith("_s")}
        counts_b = {k: v for k, v in b["counts"].items() if not k.endswith("_s")}
        diff = sorted(k for k in counts if counts[k] != counts_b.get(k))
        seeded = []
        if workload == "serve_mixed":
            # the query stream follows the seed; counts that follow it
            # too (the collector's) are not references
            seeded, diff = diff, []
            refs["seed_dependent"] = {workload: seeded}
        if a["outputs"] != b["outputs"] or diff:
            print(f"{workload}: two fresh runs disagree (counts {diff})",
                  file=sys.stderr)
            return 1
        refs["outputs"][workload] = a["outputs"]
        refs["counts"][workload] = {k: v for k, v in counts.items()
                                    if k not in seeded}
        print(f"{workload}: {counts['sim.engine.events']} events, "
              f"{counts['gc.collections']} gc collections")
    with open(os.path.join(root, "BENCH_sim_kernel.json")) as fh:
        committed = json.load(fh)["scaling4096"]["times"]
    if refs["outputs"]["paper4096"]["times"] != committed:
        print("paper4096: simulated times differ from BENCH_sim_kernel.json",
              file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
