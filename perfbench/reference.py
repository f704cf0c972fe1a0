"""A fixed pure-Python reference loop that measures the machine's speed.

On shared virtual machines the speed of one vCPU drifts by up to 2x
within minutes (host frequency and neighbour load), which moves every
timing of the simulator with it.  The benchmark times this loop next to
each timed phase and reports end-to-end times at the speed of the
reference machine::

    normalised = measured * REF_SECONDS / reference loop seconds

so drift common to both cancels.  The loop touches none of the
simulator's code, so no change to the simulator can move it; it mixes
the operations the simulator spends its time on (attribute access,
dict lookups, tuple-keyed sorts, bisection, big-integer masks, float
arithmetic and small allocations).

On one 2-vCPU VM whose raw ``backfill-deep`` phase time varied from
0.104 s to 0.190 s across six processes, the ratio of phase to
reference time stayed within 3.70-3.80.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: reference-loop seconds that define the reference machine's speed
#: (the loop's median on a quiet 2.1 GHz VM vCPU, Python 3.11)
REF_SECONDS = 0.03


class _Rec:
    __slots__ = ("key", "t", "w")

    def __init__(self, key: int, t: float, w: int) -> None:
        self.key = key
        self.t = t
        self.w = w


def reference_work(n: int = 20000) -> tuple[float, int]:
    """The fixed workload; returns a checksum so nothing is optimised away."""
    recs = [_Rec(i, (i * 7919) % 10007 * 0.5, (i * 31) % 97 + 1) for i in range(n)]
    table: dict[int, _Rec] = {}
    times: list[float] = []
    mask = 0
    for r in recs:
        table[r.key] = r
        mask ^= 1 << (r.w % 128)
        if len(times) < 2000:
            bisect.insort(times, r.t)
    recs.sort(key=lambda r: (-r.w, r.t, r.key))
    total = 0.0
    for r in recs:
        total += table[r.key].t * r.w
        if r.w & 1:
            mask |= 1 << (r.key % 128)
    return total, mask.bit_count()


def reference_seconds(repeats: int = 1) -> float:
    """Median wall time of *repeats* runs of :func:`reference_work`.

    The cyclic garbage collector is paused meanwhile: the loop creates no
    cycles, and a collection it triggered would time the caller's heap
    (tens of thousands of live jobs during a replay), not the machine.
    """
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_work()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)
