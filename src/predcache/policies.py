"""Eviction policies behind a single serve() contract, and the run loop.

Cost model: serving a resident page or filling an empty slot is free; a miss
with a full cache forces exactly one eviction, which costs 1.  A policy
instance holds the mutable cache state and running cost of one run and is
driven one request at a time by ``simulate``, so runs for different
(trace, seed) cells can execute in parallel on separate instances.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .errors import ConfigError
from .trace import PageId, Trace


@dataclass(frozen=True)
class RunResult:
    """Outcome of serving a full trace: eviction count is the cost."""

    cost: int
    seed: int = 0


class Policy:
    """Base eviction policy; subclasses pick the victim on a full-cache miss.

    ``cache`` maps each resident page to its last request index, least recent
    first: a hit moves the page to the end.  ``cost`` counts this instance's
    evictions so far.  ``experts`` lists the policies a combiner watches (none
    for a plain policy).  A policy with per-request work beyond the victim
    rule overrides ``serve`` whole, keeping its stored-answer rule and
    bookkeeping: a hook would cost a call on every request.
    """

    name = "base"
    randomized = False
    experts: tuple[Policy, ...] = ()

    def __init__(self, k: int):
        if k < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.k = k
        self.cache: dict[PageId, int] = {}
        self.cost = 0
        self._last_t = None
        self._last_victim = None

    def serve(self, t: int, page: PageId, prediction: float) -> PageId | None:
        """Serve one request; returns the evicted page on a full-cache miss.

        Asked again for the same ``t``, it returns the stored answer without
        touching the cache, so an expert shared by several combiners (and
        also run on its own) is served once per request.
        """
        if t == self._last_t:
            return self._last_victim
        cache = self.cache
        evicted = None
        if page in cache:
            del cache[page]
        elif len(cache) >= self.k:
            evicted = self._select_victim(t, page, prediction)
            del cache[evicted]
            self.cost += 1
        cache[page] = t
        self._last_t = t
        self._last_victim = evicted
        return evicted

    def _select_victim(self, t: int, page: PageId, prediction: float) -> PageId:
        raise NotImplementedError


class LRU(Policy):
    """Evict the resident page with the smallest last-request index: the first."""

    name = "lru"

    def _select_victim(self, t, page, prediction):
        return next(iter(self.cache))


def keep_live(heap: list, cache: dict[PageId, int]) -> None:
    """Keep only the live items of a ``(key, last, page)`` heap, in place.

    An item is live while ``cache.get(page) == last``; stale ones are skipped
    when popped.  Called once a heap holds more than 2k items (at least twice
    its live count), which keeps pushes O(log k) amortized.
    """
    heap[:] = [item for item in heap if cache.get(item[2]) == item[1]]
    heapify(heap)


def pop_live(heap: list, cache: dict[PageId, int]) -> PageId:
    """Remove the smallest live item of a ``(key, last, page)`` heap; its page."""
    while True:
        _, last, page = heappop(heap)
        if cache.get(page) == last:
            return page


class _LargestKey(Policy):
    """Evict the resident page with the largest key; ties go to the least recent.

    Every serve pushes ``(-key, t, page)`` onto ``_heap``, inline; the item
    goes stale once its page is requested again or evicted.  The key is the
    request's prediction, or ``arrivals[t - 1]`` when ``arrivals`` is set.
    """

    arrivals: Sequence[int] | None = None

    def __init__(self, k: int):
        super().__init__(k)
        self._heap: list[tuple[float, int, PageId]] = []

    def serve(self, t, page, prediction):
        if t == self._last_t:
            return self._last_victim
        cache = self.cache
        heap = self._heap
        evicted = None
        if page in cache:
            del cache[page]
        elif len(cache) >= self.k:
            evicted = pop_live(heap, cache)
            del cache[evicted]
            self.cost += 1
        cache[page] = t
        arrivals = self.arrivals
        heappush(heap, (-(prediction if arrivals is None else arrivals[t - 1]), t, page))
        if len(heap) > 2 * self.k:
            keep_live(heap, cache)
        self._last_t = t
        self._last_victim = evicted
        return evicted


class BlindOracle(_LargestKey):
    """Evict the page whose stored prediction is furthest in the future.

    A page keeps only the prediction issued at its own last request; stale
    values (pointing into the past) are compared at face value.  Ties on the
    prediction go to the least recently requested page.
    """

    name = "blind_oracle"


class Belady(_LargestKey):
    """Offline optimal: evict the page actually requested furthest in the future.

    Needs the trace's true arrival vector.  The arrival recorded at a page's
    last request is exactly its next request after the current time.  Pages
    never requested again tie at n+1 and fall back to least-recently-used.
    """

    name = "belady"

    def __init__(self, k: int, arrivals: Sequence[int]):
        super().__init__(k)
        self.arrivals = arrivals


class Marker(Policy):
    """Randomized marking: evict a uniformly random unmarked page.

    Requested pages end marked.  When a full-cache miss finds every cached
    page marked, all marks are cleared (a new phase) before the random draw.
    ``unmarked`` lists the unmarked pages by last-request index (the cache's
    order at the phase start, less the pages requested or evicted since), so
    the draw depends only on the seed, not on hash ordering.
    """

    name = "marker"
    randomized = True

    def __init__(self, k: int, rng: random.Random):
        super().__init__(k)
        self.rng = rng
        self.unmarked: list[PageId] = []
        self._phase_start = 0  # resident pages last requested before it are unmarked

    def _remove_unmarked(self, last: int) -> None:
        # Every unmarked page is still resident under its last request, and
        # ``unmarked`` is in that order, so it is found by bisection.
        del self.unmarked[bisect_left(self.unmarked, last, key=self.cache.__getitem__)]

    def serve(self, t, page, prediction):
        if t == self._last_t:
            return self._last_victim
        cache = self.cache
        evicted = None
        last = cache.get(page)
        if last is not None:
            if last < self._phase_start:
                self._remove_unmarked(last)
            del cache[page]
        elif len(cache) >= self.k:
            if not self.unmarked:
                self._phase_start = t
                self.unmarked = list(cache)
            evicted = self.rng.choice(self.unmarked)
            self._remove_unmarked(cache[evicted])
            del cache[evicted]
            self.cost += 1
        cache[page] = t
        self._last_t = t
        self._last_victim = evicted
        return evicted


def simulate(trace: Trace, policies: Iterable[Policy]) -> None:
    """Serve every request of the trace to each policy, once per request."""
    serves = [policy.serve for policy in policies]
    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        for serve in serves:
            serve(t, page, h)
