"""A fixed calibration loop: how fast the host runs right now.

On a shared host the same unchanged program runs up to 1.7x slower for
tens of seconds at a time, which swamps any change worth measuring.
:func:`timed_unit` samples a fixed piece of interpreter work before,
during (from a timer signal) and after a timed unit, so
``wall / calibration`` compares code across time and hosts where raw
wall time cannot.  The slices taken during the unit are subtracted from
its wall time.  :func:`timed_setup` does the same for the set-up and
rescales it to seconds on a reference host.

The loop is a miniature discrete-event run that uses only the standard
library -- a heap of timed entries, dict traffic, tuple allocation, and
a write to one of 32k small lists per event -- so it leans on the
interpreter and on memory the way the simulator does.  Without the
list writes the loop fits in the first-level caches and tracks the
simulator's slowdowns less well: against a 1024-rank simulation on a
shared 2-core host, wall / calibration spread 20% (IQR / median over
145 pairs) with the cache-resident loop and 15% with this one, from
38% raw.  It never calls into ``repro``: a change to the program under
test must not move its own yardstick.
"""

from __future__ import annotations

import heapq
import signal
import time

_pc = time.perf_counter

#: entries retired per slice; 9-15 ms on a 2 GHz Xeon, by host load
SLICE_EVENTS = 10_000
#: small lists the loop writes to: about 3 MB, past the per-core caches
CELLS = 1 << 15
#: slices taken right before and right after each unit
BRACKET = 5
#: seconds between slices taken during a unit
INTERVAL = 0.2
#: slice time of the reference host ``setup_s`` is rescaled to, a
#: typical slice of a 2 GHz Xeon
REF_SLICE_S = 0.012

_cells: list = []


def calibrate(events: int = SLICE_EVENTS, memory: bool = True) -> float:
    """Wall seconds of one fixed mini event loop.

    ``memory=False`` writes to one list only, so the loop stays in the
    first-level caches: that tracks a cache-resident program (the
    serving path) better than the memory-touching loop does.
    """
    if not _cells:  # built on first use: counting runs never build it
        _cells.extend([i, 0] for i in range(CELLS))
    cells, mask = _cells, (CELLS - 1 if memory else 0)
    t0 = _pc()
    acc: dict[int, float] = {}
    heap = [(0.0, i, i) for i in range(64)]
    heapq.heapify(heap)
    seq = 64
    for _ in range(events):
        t, _s, n = heapq.heappop(heap)
        acc[n] = acc.get(n, 0.0) + t
        seq += 1
        cells[(seq * 40503) & mask][1] += 1
        heapq.heappush(heap, (t + 1e-6 * (1 + n % 5), seq, (n * 5 + 3) % 64))
    return _pc() - t0


def timed_unit(fn, since: float | None = None,
               memory: bool = True) -> tuple[float, float]:
    """``(wall_s, calibration_s)`` of one call of ``fn``.

    ``calibration_s`` is the mean slice time over every slice taken
    around and during the call; ``wall_s`` excludes the slices taken
    during it.  With ``since``, a ``time.time()`` reading taken before
    this call, ``wall_s`` runs from ``since`` instead, and the opening
    slices, which then fall inside it, are excluded too.  ``memory``
    selects the loop (see :func:`calibrate`).
    """
    t_open = _pc()
    slices = [calibrate(memory=memory) for _ in range(BRACKET)]
    opening = _pc() - t_open
    inside = []

    def sample(_signum, _frame):
        inside.append(calibrate(memory=memory))

    old = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    t0 = _pc()
    try:
        fn()
    finally:
        wall = _pc() - t0
        end = time.time()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    if since is not None:
        wall = end - since - opening
    slices += inside
    slices += [calibrate(memory=memory) for _ in range(BRACKET)]
    return wall - sum(inside), sum(slices) / len(slices)


def timed_setup(fn, since: float, memory: bool = True) -> tuple[float, float]:
    """``(setup_s, raw_s)``: the set-up ``fn`` timed from ``since``.

    ``raw_s`` is wall time from ``since`` (the parent's spawn of this
    process) to the end of ``fn``, without the calibration slices.
    ``setup_s`` is ``raw_s`` in calibration units times
    :data:`REF_SLICE_S`: the same set-up in seconds on the reference
    host, so a host slowdown during set-up does not read as a change.
    """
    raw, cal = timed_unit(fn, since=since, memory=memory)
    return raw / cal * REF_SLICE_S, raw


def untimed_unit(fn) -> tuple[float, float]:
    """``(wall_s, 1.0)``: the same unit with no calibration work."""
    t0 = _pc()
    fn()
    return _pc() - t0, 1.0
