"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force and shares no code with the
package: next arrivals by forward scan, the inversion count by pair
enumeration, the offline optimum by exhaustive enumeration of eviction
choices, and a plain serve loop that records every request's victim.
"""

from __future__ import annotations

from functools import lru_cache


def scan_next_arrivals(requests: list[str]) -> list[int]:
    """O(n^2) forward scan: the smallest t' > t requesting the same page."""
    n = len(requests)
    out = []
    for i in range(n):
        nxt = n + 1
        for j in range(i + 1, n):
            if requests[j] == requests[i]:
                nxt = j + 1
                break
        out.append(nxt)
    return out


def brute_force_opt(requests: list[str], k: int) -> int:
    """Minimum eviction count over all eviction choices (memoized search).

    Mirrors the serve contract: hits and cold fills are free, a miss with a
    full cache tries every possible victim.
    """
    requests = tuple(requests)

    @lru_cache(maxsize=None)
    def best(i: int, cache: frozenset) -> int:
        if i == len(requests):
            return 0
        page = requests[i]
        if page in cache:
            return best(i + 1, cache)
        if len(cache) < k:
            return best(i + 1, cache | {page})
        return 1 + min(best(i + 1, cache - {victim} | {page}) for victim in cache)

    result = best(0, frozenset())
    best.cache_clear()
    return result


def count_inversions_naive(arrivals, predictions) -> int:
    """Inversion count by direct pair enumeration; the O(n^2) reference."""
    if len(arrivals) != len(predictions):
        raise ValueError("arrivals and predictions must have equal length")
    n = len(arrivals)
    count = 0
    for i in range(n):
        yi, hi = arrivals[i], predictions[i]
        for j in range(i + 1, n):
            yj, hj = arrivals[j], predictions[j]
            if yi < yj:
                if hi >= hj:
                    count += 1
            elif yj < yi and hj >= hi:
                count += 1
    return count


def serve_all(policy, requests, predictions) -> list:
    """Serve requests 1..n in order; each request's victim, None where it evicts nothing."""
    return [
        policy.serve(t, page, h)
        for t, (page, h) in enumerate(zip(requests, predictions), start=1)
    ]
