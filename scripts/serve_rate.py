"""Serve-loop throughput per policy, in requests per second at k = 8, 64, 512.

Every policy serves one fixed zipf trace (4096 pages, alpha 1, additive
uniform noise of width 64, LENGTH requests) alone, built by
``make_policies`` and run by ``simulate``; a combiner's time includes
serving its experts.  The ``all`` row serves all six policies from one
``make_policies`` call in one ``simulate`` pass, as the CLI serves them, so
shared experts answer the combiners from their stored answers.  Each cell is
the best of REPEATS runs.  The last column is the k=8 rate over the k=512
rate: how much a policy slows down as the cache grows.  Prints a markdown
table.

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
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            count_inversions_fast(arrivals, predictions)
            best = min(best, perf_counter() - start)
        print(f"| {label} | {len(arrivals)} | {best * 1000:.1f} |")


def main() -> None:
    trace = _zipf(LENGTH, NoiseSpec("additive_uniform", width=64.0))
    print("| policy | " + " | ".join(f"k={k}" for k in KS) + " | k=8 / k=512 |")
    print("|---" * (len(KS) + 2) + "|")
    rows = [(name, (name,)) for name in POLICY_NAMES] + [("all", POLICY_NAMES)]
    for name, names in rows:
        rates = []
        for k in KS:
            best = float("inf")
            for _ in range(REPEATS):
                start = perf_counter()
                runs = make_policies(names, k, arrivals=trace.arrivals, seed=1, epsilon=0.1)
                simulate(trace, runs.values())
                best = min(best, perf_counter() - start)
            rates.append(trace.n / best)
        cells = " | ".join(f"{rate / 1000:.0f}k" for rate in rates)
        print(f"| {name} | {cells} | {rates[0] / rates[-1]:.2f} |")
    print()
    inversion_table(trace)


if __name__ == "__main__":
    main()
