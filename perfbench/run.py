#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, fresh processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper4096 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed 7 --seconds 20 --trace 1

Every repetition runs in its own fresh Python process (``child.py``),
one at a time: the fluid fill memo, ``Engine.events_total`` and the
serving caches are process-wide, so a second repetition in one process
would measure a warmer program.  ``--trace 0`` starts repetitions while
the next one should end within ``--seconds`` of wall time (at least
one) and prints the end-to-end metrics, each the median over the
repetitions, with set-up-only repetitions added until ``setup_s`` has
at least :data:`MIN_SETUPS` samples.  ``--trace 1`` runs one plain, one
counting and one traced repetition and prints the per-layer metrics.
The metric names and units are those of ``BENCHMARK.json``.  Every
repetition checks its outputs against ``references.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``# context``) carries the seed, the process model, the host
fingerprint and every raw sample.  The same document is written to
``.perfbench/<workload>-seed<n>-trace<t>.json``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

from calib import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper4096", "tune16x12", "serve_mixed")
OUT_DIR = ".perfbench"
#: the run must end within this many seconds; no repetition starts
#: when the previous one suggests it would not finish before it
DEADLINE_S = 165.0
#: set-up samples per ``--trace 0`` run; set-up-only repetitions top
#: up those the timed repetitions gave
MIN_SETUPS = 5

def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- host context (recorded, never gated) -------------------------------------------


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "calibration_s": median([calibrate() for _ in range(9)]),
    }


# -- fresh-process repetitions --------------------------------------------------------


def child_env(root: str, tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


def run_child(root: str, workload: str, seed: int, mode: str, serial: int,
              budget: float) -> dict:
    tmp = os.path.join(root, OUT_DIR, f"tmp-{os.getpid()}-{serial}")
    os.makedirs(tmp, exist_ok=True)
    try:
        spawn = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload,
             str(seed), mode, repr(spawn), tmp],
            cwd=root, env=child_env(root, tmp), stdout=subprocess.PIPE,
            text=True, timeout=max(budget, 1.0),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} repetition of {workload} exited with "
                           f"code {proc.returncode}")
    return json.loads(lines[-1])


# -- metrics ------------------------------------------------------------------------


def end_to_end(reps: list[dict], setups: list[dict]) -> dict:
    units = [(w, c) for r in reps
             for w, c in zip(r["walls_s"], r["calibration_s"])]
    return {
        "setup_s": median([r["setup_s"] for r in reps + setups]),
        "wall_cal": median([w / c for w, c in units]),
        "wall_s": median([w for w, _c in units]),
        "raw_setup_s": median([r["raw_setup_s"] for r in reps + setups]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(workload: str, plain: dict, counted: dict, traced: dict,
              ref_counts: dict) -> tuple[dict, list[str]]:
    values = dict(counted["counts"])
    for layer, s in traced["layers"].items():
        values[f"{layer}.self_s"] = s
    prov = counted.get("provenance", {})
    for kind in ("exact", "nearest", "interpolated", "default"):
        values[f"serve.provenance.{kind}"] = prov.get(kind, 0)
    values["serve.decides"] = counted.get("decides", 0)
    values["serve.known_failures"] = counted["known_failures"]
    if workload == "serve_mixed":
        values["serve.qps"] = plain["answered"] / median(plain["walls_s"])
        values["serve.decide_p50_us"] = plain["decide_p50_us"]
        values["serve.decide_p99_us"] = plain["decide_p99_us"]
    values["trace.overhead_ratio"] = (
        median(traced["walls_s"]) / median(plain["walls_s"]))
    faults = [
        f"{name}: {values.get(name)!r} != recorded {want!r}"
        for name, want in sorted(ref_counts.items())
        if values.get(name) != want
    ]
    values["bench.count_faults"] = len(faults)
    return values, faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return fail("run from the repository root: src/repro is missing")
    try:
        with open(os.path.join(HERE, "references.json")) as fh:
            refs = json.load(fh)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read the benchmark definition: {exc}")

    start = time.monotonic()
    host = host_fingerprint()
    reps: list[dict] = []
    setups: list[dict] = []
    try:
        if args.trace:
            for i, mode in enumerate(("plain", "count", "traced")):
                left = DEADLINE_S - (time.monotonic() - start)
                reps.append(run_child(root, args.workload, args.seed, mode,
                                      i, left))
        else:
            last = 0.0
            while True:
                elapsed = time.monotonic() - start
                # start another repetition only if it should end in time
                if reps and (elapsed + last > args.seconds
                             or elapsed + 1.2 * last > DEADLINE_S):
                    break
                t0 = time.monotonic()
                reps.append(run_child(root, args.workload, args.seed,
                                      "plain", len(reps),
                                      DEADLINE_S - elapsed))
                last = time.monotonic() - t0
            # a set-up is short next to a repetition: more samples of it
            # steady its median at little cost
            last = max(r["raw_setup_s"] for r in reps) + 0.5
            while len(reps) + len(setups) < MIN_SETUPS:
                elapsed = time.monotonic() - start
                if elapsed + 1.5 * last > DEADLINE_S:
                    break
                setups.append(run_child(root, args.workload, args.seed,
                                        "setup", len(reps) + len(setups),
                                        DEADLINE_S - elapsed))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(f"benchmark fault: {exc}")

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    faults: list[str] = []
    if args.trace:
        values, faults = per_layer(args.workload, *reps,
                                   refs["counts"][args.workload])
    else:
        values = end_to_end(reps, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    # layer values BENCHMARK.json leaves out: the serving latencies and
    # store spans (0 where their layer does not run), the profiler's
    # bench/harness/other buckets, raw lookup and open counts
    extra = {k: v for k, v in values.items() if k not in metrics}
    for note in faults:
        print(f"perfbench: count fault: {note}", file=sys.stderr)
    for r in reps:
        for note in r["failures"]:
            print(f"perfbench: failed operation: {note}", file=sys.stderr)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "process_model": ("one fresh python process per repetition, run one "
                          "at a time; PYTHONHASHSEED=0; no REPRO_* variables"),
        "repetitions": len(reps),
        "setup_only_repetitions": len(setups),
        "error_rate": failed / attempted if attempted else 0.0,
        "known_failures": sum(r["known_failures"] for r in reps),
        "raw_wall_s": None if args.trace else values["wall_s"],
        "raw_setup_s": None if args.trace else values["raw_setup_s"],
        "layer_values": extra if args.trace else {},
        "count_faults": faults,
        "host": host,
        "samples": [{k: v for k, v in r.items() if k != "spans"}
                    for r in reps],
        "setup_samples": setups,
        "spans": reps[-1]["spans"] if args.trace else [],
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"context": context, "metrics": metrics}, fh, indent=1)
    if args.trace:
        print(layer_table(reps[-1]["layers"], context["spans"]))
    print("# context " + json.dumps({k: v for k, v in context.items()
                                     if k not in ("samples", "spans")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_table(layers: dict, spans: list[dict]) -> str:
    """Human-readable per-layer self time and the heaviest span edges.

    Besides the named layers, ``bench`` is the span wrappers' own cost,
    ``harness`` time with no ``repro`` caller and ``other`` the rest of
    ``repro`` (experiments, obs, faults, ...).
    """
    rows = sorted(layers.items(), key=lambda r: -r[1])
    total = sum(v for _n, v in rows) or 1.0
    out = ["# layer self time (profiler, traced run)"]
    out += [f"#   {name:<12} {v:9.3f} s {100 * v / total:5.1f}%"
            for name, v in rows]
    out.append("# spans (parent > name: count, total s, self s)")
    out += [f"#   {s['parent']} > {s['name']}: {s['count']}, "
            f"{s['total_s']:.3f}, {s['self_s']:.3f}" for s in spans[:15]]
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main())
