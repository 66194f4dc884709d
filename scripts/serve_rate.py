"""Serve-loop throughput per policy, in requests per second at k = 8, 64, 512.

Every policy serves one fixed zipf trace (4096 pages, alpha 1, additive
uniform noise of width 64, LENGTH requests) alone, built by
``make_policies`` and run by ``simulate``; a combiner's time includes
serving its experts.  The ``all`` row serves all six policies from one
``make_policies`` call in one ``simulate`` pass, as the CLI serves them, so
each shared expert is served once.  Each cell is the best of REPEATS runs.
The k=8 / k=512 column is the k=8 rate over the k=512 rate: how much a
policy slows down as the cache grows.  The ``online`` column drives the same
policy at k=8 through ``serve``, one call per request, as the adversary
drives it (not defined for ``all``, whose experts are shared).  Prints a
markdown table.

A second table gives ``count_inversions_fast`` in ms, best of REPEATS, on
the same trace and on three WORST_LENGTH-request cases over one zipf trace:
predictions redrawn by ``random_replace`` with probability 1, predictions
reversed (h = -y, so every pair with distinct arrivals is inverted), and all
predictions equal.

Usage: python scripts/serve_rate.py
"""

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

KS = (8, 64, 512)
LENGTH = 20000
WORST_LENGTH = 50000
REPEATS = 3


def _best_s(run_once) -> float:
    """Best wall time of REPEATS calls, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        run_once()
        best = min(best, perf_counter() - start)
    return best


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
        best = _best_s(lambda: count_inversions_fast(arrivals, predictions))
        print(f"| {label} | {len(arrivals)} | {best * 1000:.1f} |")


def main() -> None:
    trace = _zipf(LENGTH, NoiseSpec("additive_uniform", width=64.0))
    requests = list(enumerate(zip(trace.requests, trace.predictions), start=1))

    def build(names, k):
        return make_policies(names, k, arrivals=trace.arrivals, seed=1, epsilon=0.1)

    def batch(names, k):
        simulate(trace, build(names, k).values())

    def online(name):
        serve = build((name,), KS[0])[name].serve
        for t, (page, h) in requests:
            serve(t, page, h)

    print("| policy | " + " | ".join(f"k={k}" for k in KS) + " | k=8 / k=512 | online, k=8 |")
    print("|---" * (len(KS) + 3) + "|")
    rows = [(name, (name,)) for name in POLICY_NAMES] + [("all", POLICY_NAMES)]
    for name, names in rows:
        rates = [trace.n / _best_s(lambda: batch(names, k)) for k in KS]
        cells = " | ".join(f"{rate / 1000:.0f}k" for rate in rates)
        served = "n/a"
        if name != "all":
            served = f"{trace.n / _best_s(lambda: online(name)) / 1000:.0f}k"
        print(f"| {name} | {cells} | {rates[0] / rates[-1]:.2f} | {served} |")
    print()
    inversion_table(trace)


if __name__ == "__main__":
    main()
