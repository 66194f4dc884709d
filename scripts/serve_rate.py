"""Serve-loop throughput per policy, in requests per second at k = 8, 64, 512.

Every policy serves one fixed zipf trace (4096 pages, alpha 1, additive
uniform noise of width 64, LENGTH requests) alone, built by
``make_policies`` and run by ``simulate``; a combiner's time includes
serving its experts.  The ``all`` row serves all six policies from one
``make_policies`` call in one ``simulate`` pass, as the CLI serves them, so
each shared expert is served once.  Each cell is the median of REPEATS
runs, each timed between two runs of the benchmark's calibration loop
(``bench/calibration.py``) and scaled to a host on which that loop takes
its reference time, so cells measured minutes apart on a host whose speed
drifts stay comparable.  The k=8 / k=512 column is the k=8 rate over the k=512 rate: how much a
policy slows down as the cache grows.  The ``online`` column drives the same
policy at k=8 through ``serve``, one call per request, as the adversary
drives it (not defined for ``all``, whose experts are shared).  Prints a
markdown table.

A second table gives ``count_inversions_fast`` in ms, timed the same way, on
the same trace and on three WORST_LENGTH-request cases over one zipf trace:
predictions redrawn by ``random_replace`` with probability 1, predictions
reversed (h = -y, so every pair with distinct arrivals is inverted), and all
predictions equal.

Usage: python scripts/serve_rate.py
"""

import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from predcache import (
    POLICY_NAMES,
    NoiseSpec,
    WorkloadSpec,
    count_inversions_fast,
    make_policies,
    simulate,
    synthesize,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import calibration  # noqa: E402  (the benchmark's host-speed loop)

KS = (8, 64, 512)
LENGTH = 20000
WORST_LENGTH = 50000
REPEATS = 5


def _timed_s(run_once) -> float:
    """Median of REPEATS calls' wall times, in seconds, each calibrated."""
    times = []
    before = calibration.loop_s()
    for _ in range(REPEATS):
        start = perf_counter()
        run_once()
        wall = perf_counter() - start
        after = calibration.loop_s()
        times.append(calibration.normalize(wall, before, after))
        before = after
    return median(times)


def _zipf(length: int, noise: NoiseSpec):
    return synthesize(WorkloadSpec("zipf", universe=4096, length=length, alpha=1.0), noise, seed=1)


def inversion_table(trace) -> None:
    worst = _zipf(WORST_LENGTH, NoiseSpec("random_replace", prob=1.0, limit=float(WORST_LENGTH)))
    y = worst.arrivals
    cases = [
        ("zipf, additive_uniform(64)", trace.arrivals, trace.predictions),
        ("zipf, random_replace(1)", y, worst.predictions),
        ("zipf, reversed", y, tuple(-float(v) for v in y)),
        ("zipf, all equal", y, (0.0,) * len(y)),
    ]
    print("| count_inversions_fast | n | ms |")
    print("|---|---|---|")
    for label, arrivals, predictions in cases:
        elapsed = _timed_s(lambda: count_inversions_fast(arrivals, predictions))
        print(f"| {label} | {len(arrivals)} | {elapsed * 1000:.1f} |")


def main() -> None:
    trace = _zipf(LENGTH, NoiseSpec("additive_uniform", width=64.0))
    requests = list(enumerate(zip(trace.requests, trace.predictions), start=1))

    def build(names, k):
        return make_policies(names, k, trace, seed=1, epsilon=0.1)

    def batch(names, k):
        simulate(trace.requests, build(names, k).values())

    def online(name):
        serve = build((name,), KS[0])[name].serve
        for t, (page, h) in requests:
            serve(t, page, h)

    print("| policy | " + " | ".join(f"k={k}" for k in KS) + " | k=8 / k=512 | online, k=8 |")
    print("|---" * (len(KS) + 3) + "|")
    rows = [(name, (name,)) for name in POLICY_NAMES] + [("all", POLICY_NAMES)]
    for name, names in rows:
        rates = [trace.n / _timed_s(lambda: batch(names, k)) for k in KS]
        cells = " | ".join(f"{rate / 1000:.0f}k" for rate in rates)
        served = "n/a"
        if name != "all":
            served = f"{trace.n / _timed_s(lambda: online(name)) / 1000:.0f}k"
        print(f"| {name} | {cells} | {rates[0] / rates[-1]:.2f} | {served} |")
    print()
    inversion_table(trace)


if __name__ == "__main__":
    main()
