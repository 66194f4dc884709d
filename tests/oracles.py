"""Independent reference implementations used to cross-check the library.

Everything here is deliberately simple and shares no code with the
package: next arrivals by forward scan, the inversion count by pair
enumeration, by a numpy broadcast of the same pair rule and by a Fenwick
tree over prediction ranks, the offline optimum by exhaustive enumeration
of eviction choices, a plain serve loop that records every request's
victim, the O(k) reference victim rules of every policy, and the trace
builders written with ``random.Random``'s own ``randrange``, ``uniform``,
``gauss`` and ``lognormvariate``.  It also holds ``request_runs``, the
Hypothesis strategy for request lists, ``potential``, a combiner's Phi,
and ``check_potential``, the combiners' cost argument checked request by
request.  ``run_policy`` and ``check_potential`` alone call the package:
the first is the tests' shorthand for one run built by ``make_policies``
and served by ``simulate``, the other drives a package run online by
``online``.  ``send_all`` drives the function ``online`` returns.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from predcache import make_policies, simulate
from predcache.policies import online


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


def count_inversions_broadcast(arrivals, predictions) -> int:
    """The pair rule of ``count_inversions_naive`` over all pairs at once:
    a pair counts when its element with the smaller arrival has the
    prediction >= the other's.  O(n^2) memory; for instances of a few
    hundred elements.  numpy is imported here, so a missing numpy fails only
    the tests that call this oracle."""
    import numpy as np

    if len(arrivals) != len(predictions):
        raise ValueError("arrivals and predictions must have equal length")
    y = np.asarray(arrivals)
    h = np.asarray(predictions, dtype=float)
    return int(np.count_nonzero((y[:, None] < y) & (h[:, None] >= h)))


def count_inversions_fenwick(arrivals, predictions) -> int:
    """Inversion count in O(n log n), the reference for large instances: sweep
    in arrival order, counting earlier elements with prediction rank >= the
    current one in a Fenwick tree over the ranks.  Elements sharing an
    arrival value are queried before any of them is inserted, since pairs
    need strictly increasing arrivals."""
    if len(arrivals) != len(predictions):
        raise ValueError("arrivals and predictions must have equal length")
    n = len(arrivals)
    if n < 2:
        return 0
    rank = {h: r for r, h in enumerate(sorted(set(predictions)), start=1)}
    ranks = [rank[h] for h in predictions]
    order = sorted(range(n), key=arrivals.__getitem__)
    size = len(rank)
    tree = [0] * (size + 1)
    total = 0
    i = 0
    while i < n:
        y = arrivals[order[i]]
        j = i
        while j < n and arrivals[order[j]] == y:
            j += 1
        # i elements are inserted; subtract those ranked below each query
        for idx in order[i:j]:
            r = ranks[idx] - 1
            below = 0
            while r > 0:
                below += tree[r]
                r -= r & -r
            total += i - below
        for idx in order[i:j]:
            r = ranks[idx]
            while r <= size:
                tree[r] += 1
                r += r & -r
        i = j
    return total


def request_runs(pages, runs, run_len):
    """Up to ``runs`` runs of up to ``run_len`` requests each.

    ``pages`` is a string of one-letter pages, or a count n for pages
    p1..pn.  One Hypothesis list of free length is mostly a handful of
    elements (a median of about 6 for max_size 120); runs make long request
    lists common.
    """
    if isinstance(pages, str):
        page = st.sampled_from(pages)
    else:
        page = st.integers(1, pages).map("p{}".format)
    run = st.lists(page, min_size=1, max_size=run_len)
    return st.lists(run, min_size=1, max_size=runs).map(
        lambda drawn: [page for requests in drawn for page in requests]
    )


def run_policy(name, trace, k, seed=0, epsilon=None):
    """The named run over the trace, built by ``make_policies`` and served by
    ``simulate``; its ``cost`` is its eviction count."""
    run = make_policies((name,), k, trace, seed=seed, epsilon=epsilon)[name]
    simulate(trace.requests, (run,))
    return run


def serve_all(policy, requests, predictions) -> list:
    """Serve a reference policy requests 1..n in order; each request's victim,
    None where it evicts nothing."""
    return [
        policy.serve(t, page, h)
        for t, (page, h) in enumerate(zip(requests, predictions), start=1)
    ]


def send_all(serve, requests, predictions) -> list:
    """``serve_all`` for the server ``online`` returns for a package run."""
    return [
        serve(t, page, h)
        for t, (page, h) in enumerate(zip(requests, predictions), start=1)
    ]


# ---------------------------------------------------------------- reference policies
#
# The O(k) victim rules, each a scan over every resident page, over a cache
# of page -> (last request, prediction).  They follow the package's serve
# contract and seeding, so a package policy and its reference must evict the
# same page on every request.


class RefPolicy:
    experts = ()

    def __init__(self, k):
        self.k = k
        self.entries = {}
        self.cost = 0

    def serve(self, t, page, h):
        self.pre_serve(t, page, h)
        victim = None
        if page not in self.entries and len(self.entries) >= self.k:
            victim = self.victim(t, page, h)
            del self.entries[victim]
            self.cost += 1
        self.entries[page] = (t, h)
        self.touched(page)
        return victim

    def pre_serve(self, t, page, h):
        pass

    def touched(self, page):
        pass


class RefLRU(RefPolicy):
    def victim(self, t, page, h):
        return min(self.entries, key=lambda p: self.entries[p][0])


class RefBlindOracle(RefPolicy):
    def victim(self, t, page, h):
        return max(self.entries, key=lambda p: (self.entries[p][1], -self.entries[p][0]))


class RefBelady(RefPolicy):
    def __init__(self, k, arrivals):
        super().__init__(k)
        self.arrivals = arrivals

    def victim(self, t, page, h):
        return max(
            self.entries,
            key=lambda p: (self.arrivals[self.entries[p][0] - 1], -self.entries[p][0]),
        )


class RefMarker(RefPolicy):
    def __init__(self, k, rng):
        super().__init__(k)
        self.rng = rng
        self.marks = set()

    def touched(self, page):
        self.marks.add(page)

    def victim(self, t, page, h):
        if len(self.marks) == len(self.entries):
            self.marks.clear()
        unmarked = sorted(
            (p for p in self.entries if p not in self.marks),
            key=lambda p: self.entries[p][0],
        )
        return self.rng.choice(unmarked)


def ref_victim_outside(own, target):
    """Least recent page of ``own`` absent from ``target``.

    Both caches hold the same number of pages and only ``target`` holds the
    page just requested, so a candidate exists.
    """
    return min((p for p in own if p not in target), key=lambda p: own[p][0])


class RefFtl(RefPolicy):
    def __init__(self, a, b, k):
        super().__init__(k)
        self.experts = (a, b)
        self.leader = 0

    def pre_serve(self, t, page, h):
        a, b = self.experts
        a.serve(t, page, h)
        b.serve(t, page, h)
        if a.cost != b.cost:
            self.leader = 0 if a.cost < b.cost else 1

    def victim(self, t, page, h):
        return ref_victim_outside(self.entries, self.experts[self.leader].entries)


class RefMw(RefPolicy):
    """Follow expert i with chance w_i / (w_0 + w_1), w_i = (1-epsilon)**cost_i.

    The weights are exact ``Fraction`` powers.  A draw is taken only when the
    followed expert alone evicts: it switches with the share of its chance
    that it just lost.  Any other step leaves that chance where it was or
    raises it, and the followed expert stays.
    """

    def __init__(self, a, b, k, epsilon, rng):
        super().__init__(k)
        self.experts = (a, b)
        self.keep = 1 - Fraction(epsilon)
        self.costs = [0, 0]
        self.rng = rng
        self.followed = 0 if rng.random() < 0.5 else 1

    def chance(self, i):
        # a common factor of both weights leaves the chance unchanged
        low = min(self.costs)
        w = [self.keep ** (c - low) for c in self.costs]
        return w[i] / (w[0] + w[1])

    def pre_serve(self, t, page, h):
        f = self.followed
        evicted = [expert.serve(t, page, h) is not None for expert in self.experts]
        if evicted[f] and not evicted[1 - f]:
            prior = self.chance(f)
            self.costs[f] += 1
            posterior = self.chance(f)
            if self.rng.random() < (prior - posterior) / prior:
                self.followed = 1 - f
        else:
            self.costs = [c + e for c, e in zip(self.costs, evicted)]

    def victim(self, t, page, h):
        return ref_victim_outside(self.entries, self.experts[self.followed].entries)


def potential(combiner) -> int:
    """Phi: how many own pages of a combiner its followed expert does not hold."""
    expert = combiner.experts[combiner.followed]
    return sum(page not in expert.cache for page in combiner.cache)


def check_potential(combiner, requests, predictions):
    """Serve a combiner online and check its potential argument at every request.

    Phi is the number of own pages outside the followed expert's cache, read
    from the caches after each request.  On a request without a switch the
    combiner pays for its eviction by a fall in Phi, unless the followed
    expert evicted too:

        own cost + (Phi after - Phi before) <= [the followed expert evicted].

    On a switch, that left side less the right side is the jump, at most k.
    Summed over the run, cost <= F + J <= F + k*S, with F the followed
    expert's evictions (the expert followed after each request), J the sum
    of the jumps and S the number of switches (Blum and Burch 2000).
    Returns (F, J, S).
    """
    k, serve = combiner.k, online(combiner)
    phi = followed_evictions = jumps = switches = 0
    for t, (page, h) in enumerate(zip(requests, predictions), start=1):
        before, cost = combiner.followed, combiner.cost
        expert_costs = [expert.cost for expert in combiner.experts]
        serve(t, page, h)
        followed = combiner.followed
        expert = combiner.experts[followed]
        evicted = expert.cost - expert_costs[followed]
        paid = combiner.cost - cost
        after = potential(combiner)
        change = paid + after - phi - evicted
        if followed == before:
            assert change <= 0, (t, paid, phi, after, evicted)
        else:
            assert change <= k, (t, paid, phi, after, evicted)
            jumps += change
            switches += 1
        followed_evictions += evicted
        phi = after
    assert combiner.cost <= followed_evictions + jumps <= followed_evictions + k * switches
    return followed_evictions, jumps, switches


def mw_seed(seed: int) -> int:
    """The seed of mw's own generator: the third 63-bit draw of ``Random(seed)``."""
    root = random.Random(seed)
    return [root.getrandbits(63) for _ in range(3)][2]


def ref_policy(name, k, arrivals, seed=0, epsilon=0.1):
    """The reference run of ``name``, seeded as the package seeds it."""
    if name == "lru":
        return RefLRU(k)
    if name == "blind_oracle":
        return RefBlindOracle(k)
    if name == "belady":
        return RefBelady(k, arrivals)
    if name == "marker":
        return RefMarker(k, random.Random(seed))
    if name == "ftl":
        return RefFtl(RefBlindOracle(k), RefLRU(k), k)
    if name == "mw":
        marker = RefMarker(k, random.Random(seed))  # the marker run's seeding
        return RefMw(RefBlindOracle(k), marker, k, epsilon, random.Random(mw_seed(seed)))
    raise ValueError(name)


def ref_generate_workload(spec, seed: int) -> list[str]:
    """Requests of a workload spec, drawn with ``randrange`` and ``choices``."""
    rng = random.Random(seed)
    u, n = spec.universe, spec.length
    if spec.kind == "uniform":
        return [f"p{rng.randrange(u) + 1}" for _ in range(n)]
    if spec.kind == "zipf":
        pages = [f"p{i + 1}" for i in range(u)]
        weights = [(r + 1) ** -spec.alpha for r in range(u)]
        return rng.choices(pages, weights=weights, k=n)
    m = spec.cycle or u
    if spec.kind == "cyclic":
        return [f"p{i % m + 1}" for i in range(n)]
    out = []
    for i in range(n):
        start = (i // spec.phase_len * m) % u
        out.append(f"p{(start + rng.randrange(m)) % u + 1}")
    return out


REF_MAX_PREDICTION = 1e30


def ref_perturb_predictions(arrivals, noise, seed: int) -> list[float]:
    """Predictions under a noise spec, one request at a time, clamped each."""
    rng = random.Random(seed)
    kind = noise.kind
    out = []
    for y in arrivals:
        if kind == "perfect":
            h = float(y)
        elif kind == "additive_uniform":
            h = y + rng.uniform(-noise.width, noise.width)
        elif kind == "additive_gaussian":
            h = y + rng.gauss(0.0, noise.sigma)
        elif kind == "lognormal_scale":
            try:
                h = y * rng.lognormvariate(0.0, noise.sigma)
            except OverflowError:
                h = REF_MAX_PREDICTION
        elif kind == "constant_shift":
            h = y + noise.shift
        else:  # random_replace
            h = rng.uniform(0.0, noise.limit) if rng.random() < noise.prob else float(y)
        if not math.isfinite(h):
            h = REF_MAX_PREDICTION
        out.append(min(max(h, 0.0), REF_MAX_PREDICTION))
    return out
