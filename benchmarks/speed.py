"""Machine speed, measured with a fixed reference kernel, and times scaled by it.

On a shared host the CPU this benchmark runs on changes speed for minutes
at a time: the same call can take 1.7 times as long for a whole run, in
process time as in wall time.  No statistic taken within one run removes
that.  So the worker times `reference_work()` before every call, and each
call's time is scaled by REFERENCE_S over the reference kernel's best time
in the same round.  Calls and the kernel slow down together (within a few
per cent on the machine below), so the scaled times are seconds at the
reference speed, and what is left is the program's own cost.

The kernel is the benchmark's own code on fixed data, so no change to the
program can change its time.  The raw wall times are kept beside the
scaled ones in the detail line and in .bench_out/.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# A round's best time of reference_work() on a 2-CPU Intel Xeon VM with
# Python 3.11.7 and numpy 2.4.6, in a quiet stretch.  It fixes the unit of
# the scaled times only; any constant would do, as long as it never changes.
REFERENCE_S = 0.0035

_POINTS = [complex(math.cos(0.37 * k), 0.5 * math.sin(0.61 * k)) for k in range(3000)]
_ARRAY = np.cos(np.arange(20000) * 0.37)


def reference_work():
    """Fixed interpreter-bound work like the program's: sort, hull walk, sums, numpy sort."""
    pts = sorted(_POINTS, key=lambda z: (z.real, z.imag))
    hull = []
    for p in pts:  # lower hull by monotone chain
        while len(hull) >= 2 and ((hull[-1] - hull[-2]).conjugate() * (p - hull[-1])).imag <= 0:
            hull.pop()
        hull.append(p)
    acc = 0j
    for z in pts:
        acc += z * z
    return len(hull), acc, float(np.sort(_ARRAY)[0])


def reference_time() -> float:
    """Seconds one reference_work() call takes now.

    The garbage collector is off meanwhile: a full collection would walk the
    caller's whole heap, and the kernel's time would depend on that.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled_latencies(times, refs):
    """Each op's best round, with every round's times scaled to the reference speed.

    times[r][i] is op i's wall time in round r and refs[r][i] the kernel's
    time just before it; a round's speed is its kernel's best time.
    """
    return [min(row[i] * REFERENCE_S / min(ref) for row, ref in zip(times, refs))
            for i in range(len(times[0]))]
