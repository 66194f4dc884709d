"""Serve-loop throughput per policy, in requests per second at k = 8, 64, 512.

Every policy serves two traces of LENGTH requests alone, built by
``make_policies`` and run by ``simulate``; a combiner's time includes
serving its experts.  One is a fixed zipf trace (4096 pages, alpha 1,
additive uniform noise of width 64).  The other has the hit-heavy shape of
the benchmark's ``file_k64_adversary``: phased over 4000 pages with a
working set of k pages shifted every 1000 requests, additive uniform noise
of width 4, one trace per k.  The ``all`` row serves all six policies from one
``make_policies`` call in one ``simulate`` pass, as the CLI serves them, so
each shared expert is served once.  Each cell is the median of REPEATS
runs, each timed between two runs of the benchmark's calibration loop
(``bench/calibration.py``) and scaled to a host on which that loop takes
its reference time, so cells measured minutes apart on a host whose speed
drifts stay comparable.  The k=8 / k=512 column is the k=8 rate over the k=512 rate: how much a
policy slows down as the cache grows.  The ``online`` column drives the same
policy at k=8 through ``serve``, one call per request, built without the
trace as the adversary builds it (not defined for ``belady``, which needs
the trace, or for ``all``, whose experts are shared).  Prints a markdown
table.

A second table gives ``count_inversions_fast`` in ms, timed the same way, and
the trace's inversion count.  Its rows: the same trace; a trace shaped like
each benchmark workload's (``bench/workloads.py``) and ``ftl``'s own
adversary trace (k=8, j=7, 100 phases), which have few inversions per
request; and five WORST_LENGTH-request cases over one zipf trace with many:
Gaussian noise of sigma 500 and 5000, predictions redrawn by
``random_replace`` with probability 1, predictions reversed (h = n + 1 - y, so
every pair with distinct arrivals is inverted), and all predictions equal.

Usage: python scripts/serve_rate.py
"""

import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from predcache import (
    POLICY_NAMES,
    AdversaryConfig,
    NoiseSpec,
    WorkloadSpec,
    count_inversions_fast,
    make_policies,
    run_adversary,
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
    traces = [
        ("zipf(4096), additive_uniform(64)", trace),
        ("file_k64_adversary: phased(4000), additive_uniform(4)", synthesize(
            WorkloadSpec("phased", universe=4000, length=25000, cycle=64, phase_len=1000),
            NoiseSpec("additive_uniform", width=4.0), seed=1)),
        ("zipf_k8_all: zipf(200), additive_uniform(8)", synthesize(
            WorkloadSpec("zipf", universe=200, length=5000, alpha=1.0),
            NoiseSpec("additive_uniform", width=8.0), seed=1)),
        ("uniform_k512_all: uniform(1024), additive_gaussian(50)", synthesize(
            WorkloadSpec("uniform", universe=1024, length=2500),
            NoiseSpec("additive_gaussian", sigma=50.0), seed=1)),
        ("ftl's adversary, k=8, j=7, 100 phases",
         run_adversary("ftl", AdversaryConfig(k=8, j=7, num_phases=100)).trace),
    ]
    for sigma in (500, 5000):
        noise = NoiseSpec("additive_gaussian", sigma=float(sigma))
        traces.append((f"zipf(4096), additive_gaussian({sigma})", _zipf(WORST_LENGTH, noise)))
    worst = _zipf(WORST_LENGTH, NoiseSpec("random_replace", prob=1.0, limit=float(WORST_LENGTH)))
    last = worst.n + 1
    traces += [
        ("zipf(4096), random_replace(1)", worst),
        ("zipf(4096), reversed", worst.renoised([last - y for y in worst.arrivals])),
        ("zipf(4096), all equal", worst.renoised((0.0,) * worst.n)),
    ]
    print("| count_inversions_fast | n | inversions | ms |")
    print("|---|---|---|---|")
    for label, case in traces:
        elapsed = _timed_s(lambda: count_inversions_fast(case))
        print(f"| {label} | {case.n} | {count_inversions_fast(case)} | {elapsed * 1000:.1f} |")


def _phased(k: int):
    return synthesize(
        WorkloadSpec("phased", universe=4000, length=LENGTH, cycle=k, phase_len=1000),
        NoiseSpec("additive_uniform", width=4.0), seed=1,
    )


def main() -> None:
    trace = _zipf(LENGTH, NoiseSpec("additive_uniform", width=64.0))
    shapes = [
        ("zipf(4096)", {k: trace for k in KS}),
        ("phased(4000), cycle k", {k: _phased(k) for k in KS}),
    ]

    def build(names, k, cell):
        return make_policies(names, k, cell, seed=1, epsilon=0.1)

    def batch(names, k, cell):
        simulate(cell.requests, build(names, k, cell).values())

    def online(name, cell):
        serve = build((name,), KS[0], None)[name].serve
        for t, (page, h) in enumerate(zip(cell.requests, cell.predictions), start=1):
            serve(t, page, h)

    print("| policy | trace | " + " | ".join(f"k={k}" for k in KS) + " | k=8 / k=512 | online, k=8 |")
    print("|---" * (len(KS) + 4) + "|")
    rows = [(name, (name,)) for name in POLICY_NAMES] + [("all", POLICY_NAMES)]
    for label, cells in shapes:
        for name, names in rows:
            rates = [cells[k].n / _timed_s(lambda: batch(names, k, cells[k])) for k in KS]
            rendered = " | ".join(f"{rate / 1000:.0f}k" for rate in rates)
            served = "n/a"
            if name not in ("belady", "all"):
                cell = cells[KS[0]]
                served = f"{cell.n / _timed_s(lambda: online(name, cell)) / 1000:.0f}k"
            print(f"| {name} | {label} | {rendered} | {rates[0] / rates[-1]:.2f} | {served} |")
    print()
    inversion_table(trace)


if __name__ == "__main__":
    main()
