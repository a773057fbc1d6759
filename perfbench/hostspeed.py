"""Host speed calibration for the benchmark's wall times.

On a shared host the same single-threaded code runs up to 40% slower
for seconds at a time while other tenants are busy, so raw wall times
of one benchmark run can differ from the next by more than any change
worth measuring.  Every timed interval of a closed-loop workload is
therefore paired with timings of a fixed calibration kernel taken just
before and after it, and reported in *reference* time: the interval
divided by the host's mean slowdown against :data:`REFERENCE_S`.

The kernel imitates the simulator's two kinds of work, an interpreted
event loop (heap and dict traffic) and NumPy graph construction (random
integers, a stable sort, a bincount prefix sum), but calls no simulator
code: a change to the simulator moves reference times exactly as it
moves wall time on an idle host.  The correction is approximate, since
the simulator's code does not slow down under load by exactly the
kernel's factor; over ten seeds on such a host it cut the quartile
spread of cold-spec's median op latency from about 20% to 1-3%.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

#: kernel wall time on an idle 2.1 GHz Xeon host (2 vCPUs)
REFERENCE_S = 0.0045


def _kernel() -> int:
    heap: list = []
    counts: dict = {}
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
    while heap:
        heapq.heappop(heap)
    keys = np.random.default_rng(0).integers(0, 1 << 15, 30_000)
    order = np.argsort(keys, kind="stable")
    offsets = np.bincount(keys, minlength=1 << 15).cumsum()
    return int(offsets[-1] + order[0])


def slowdown() -> float:
    """How many times slower than the reference the host runs now.

    The median of three kernel runs after three untimed ones: the host
    runs slow for some 15 ms after the process idled (as it does while
    a service drains), and any single run may be slowed by an
    interrupt.  The collector is off meanwhile, because a full
    collection of the simulator's heap landing inside a run would read
    as a slow host.
    """
    times = []
    gc.disable()
    try:
        for _ in range(3):
            _kernel()
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times) / REFERENCE_S
