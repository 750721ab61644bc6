"""One repetition of one workload, in a fresh process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py <workload> <seed> <mode> <spawn_time> <tmp_dir>

``mode`` is ``plain`` (end-to-end timing only), ``setup`` (the set-up
time alone), ``count`` (exact work counts, see
:class:`probes.Counters`), ``traced`` (spans + profiler, see
:class:`probes.Tracer`) or ``record`` (counts plus the raw outputs
``record.py`` stores as references).  ``spawn_time`` is the parent's
``time.time()`` just before starting this process, so ``setup_s``
covers interpreter start-up too; ``plain`` and ``setup`` calibrate it
(:func:`calib.timed_setup`).  The result is one JSON object on the
last line of standard output; whatever the workload prints goes to
standard error.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time


def main(argv) -> int:
    workload, seed, mode, spawn, tmp = argv
    tracer = counters = None
    if mode == "traced":
        from probes import Tracer

        tracer = Tracer()
        tracer.start()  # before any repro import: imports are set-up work
        tracer.install()
    elif mode in ("count", "record"):
        from probes import Counters

        counters = Counters()
        counters.install()

    import workloads
    from calib import timed_setup, timed_unit, untimed_unit

    wl = workloads.WORKLOADS[workload]
    ctx = {"seed": int(seed), "store_dir": os.path.join(tmp, "store"),
           # host-speed readings only matter to the untraced timing
           "unit": (functools.partial(timed_unit, memory=wl.memory_bound)
                    if mode == "plain" else untimed_unit)}
    with contextlib.redirect_stdout(sys.stderr):
        if mode in ("plain", "setup"):
            setup_s, raw_setup_s = timed_setup(lambda: wl.setup(ctx),
                                               float(spawn), wl.memory_bound)
        else:
            wl.setup(ctx)
            setup_s = raw_setup_s = time.time() - float(spawn)
        if mode != "setup":
            samples = wl.timed(ctx)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    if tracer is not None:
        tracer.stop()
    if counters is not None:
        counters.uninstall()

    if mode == "record":
        print(json.dumps({"outputs": wl.outputs(ctx),
                          "counts": counters.snapshot()}))
        return 0
    with open(os.path.join(os.path.dirname(__file__), "references.json")) as fh:
        ref = json.load(fh)["outputs"][workload]
    ops = workloads.Ops()
    wl.check(ctx, ref, ops)
    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "walls_s": [w for w, _c in samples],
        "calibration_s": [c for _w, c in samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "known_failures": ops.known,
        "failures": ops.notes,
    }
    if workload == "serve_mixed":
        out.update(wl.latency(ctx))
        out["decides"] = ctx["decides"]
        out["answered"] = ctx["answered"]
        out["provenance"] = wl.provenance_counts(ctx)
    if counters is not None:
        out["counts"] = counters.snapshot()
    if tracer is not None:
        out["layers"] = tracer.layers()
        out["spans"] = tracer.spans()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
