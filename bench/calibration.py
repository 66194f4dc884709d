"""Host-speed calibration.

On a shared host the same sweep's wall time can drift by 2x within seconds
while CPU time stays equal to wall time: the host runs the process slower, it
is not preempted.  The benchmark therefore times a fixed calibration loop
right before and after each timed interval, and reports the interval scaled
to a host on which that loop takes ``REFERENCE_S``:

    normalized = wall * REFERENCE_S / mean(loop before, loop after)

A slower host stretches both, so their ratio stays put; a slower program
stretches only the interval.  Raw wall times are reported next to it.

The loop is a small LRU cache simulation written here, independent of
predcache: per-request dict and attribute work plus an O(k) ``min`` scan on
each miss, the two kinds of work the sweeps do.  It tracked host speed on
both zipf (k=8) and uniform (k=512) sweeps more closely than a dict-only loop.
"""

from time import perf_counter

STEPS = 5000
REFERENCE_S = 0.035  # about this loop's median wall time on a 2-vCPU Xeon VM


class _Entry:
    def __init__(self, last: int):
        self.last = last


def loop_s() -> float:
    """Wall time of one fixed calibration loop."""
    start = perf_counter()
    cache: dict[int, _Entry] = {}
    x = 1
    for t in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        page = x % 192
        entry = cache.get(page)
        if entry is not None:
            entry.last = t
        else:
            if len(cache) >= 128:
                del cache[min(cache, key=lambda p: cache[p].last)]
            cache[page] = _Entry(t)
    return perf_counter() - start


def normalize(wall_s: float, loop_before_s: float, loop_after_s: float) -> float:
    return wall_s * REFERENCE_S * 2 / (loop_before_s + loop_after_s)
