"""Eviction policies behind a single serve() contract, and the run loop.

Cost model: serving a resident page or filling an empty slot is free; a miss
with a full cache forces exactly one eviction, which costs 1.  A policy
instance holds the mutable cache state and running cost of one run and is
driven one request at a time by ``simulate``, so runs for different
(trace, seed) cells can execute in parallel on separate instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError
from .trace import PageId, Trace


@dataclass(slots=True)
class CacheEntry:
    page: PageId
    last_request: int
    prediction: float


class CacheState:
    """At most ``capacity`` entries with distinct pages."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[PageId, CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: PageId) -> bool:
        return page in self._entries

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def pages(self):
        return self._entries.keys()

    def entries(self):
        return self._entries.values()

    def get(self, page: PageId) -> CacheEntry | None:
        return self._entries.get(page)

    def insert(self, page: PageId, t: int, prediction: float) -> None:
        if self.full:
            raise RuntimeError("insert into full cache")
        self._entries[page] = CacheEntry(page, t, prediction)

    def touch(self, page: PageId, t: int, prediction: float) -> None:
        entry = self._entries[page]
        entry.last_request = t
        entry.prediction = prediction

    def remove(self, page: PageId) -> None:
        del self._entries[page]


@dataclass(frozen=True)
class RunResult:
    """Outcome of serving a full trace: eviction count is the cost."""

    cost: int
    seed: int = 0


class Policy:
    """Base eviction policy; subclasses pick the victim on a full-cache miss.

    ``cost`` counts this instance's evictions so far.  ``experts`` lists the
    policies a combiner watches (none for a plain policy).
    """

    name = "base"
    randomized = False
    experts: tuple[Policy, ...] = ()

    def __init__(self, k: int):
        self.cache = CacheState(k)
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
        self._pre_serve(t, page, prediction)
        evicted = None
        if page in self.cache:
            self.cache.touch(page, t, prediction)
        elif not self.cache.full:
            self.cache.insert(page, t, prediction)
        else:
            evicted = self._select_victim(t, page, prediction)
            self.cache.remove(evicted)
            self.cache.insert(page, t, prediction)
            self.cost += 1
        self._touched(page)
        self._last_t = t
        self._last_victim = evicted
        return evicted

    def _pre_serve(self, t: int, page: PageId, prediction: float) -> None:
        """Hook run before the cache is consulted (used by combiners)."""

    def _touched(self, page: PageId) -> None:
        """Hook run after the requested page is resident (used by Marker)."""

    def _select_victim(self, t: int, page: PageId, prediction: float) -> PageId:
        raise NotImplementedError


class LRU(Policy):
    """Evict the resident page with the smallest last-request index."""

    name = "lru"

    def _select_victim(self, t, page, prediction):
        return min(self.cache.entries(), key=lambda e: e.last_request).page


class BlindOracle(Policy):
    """Evict the page whose stored prediction is furthest in the future.

    Each entry keeps only the prediction issued at its own last request; stale
    values (pointing into the past) are compared at face value.  Ties on the
    prediction go to the least recently requested page.
    """

    name = "blind_oracle"

    def _select_victim(self, t, page, prediction):
        return max(self.cache.entries(), key=lambda e: (e.prediction, -e.last_request)).page


class Belady(Policy):
    """Offline optimal: evict the page actually requested furthest in the future.

    Needs the trace's true arrival vector.  Because entries refresh on every
    hit, the arrival recorded at an entry's last request is exactly the page's
    next request after the current time.  Pages never requested again tie at
    n+1 and fall back to least-recently-used.
    """

    name = "belady"

    def __init__(self, k: int, arrivals: Sequence[int]):
        super().__init__(k)
        self.arrivals = arrivals

    def _select_victim(self, t, page, prediction):
        return max(
            self.cache.entries(),
            key=lambda e: (self.arrivals[e.last_request - 1], -e.last_request),
        ).page


class Marker(Policy):
    """Randomized marking: evict a uniformly random unmarked page.

    Requested pages end marked.  When a full-cache miss finds every cached
    page marked, all marks are cleared (a new phase) before the random draw.
    Victim candidates are ordered by last-request index so the draw depends
    only on the seed, not on hash ordering.
    """

    name = "marker"
    randomized = True

    def __init__(self, k: int, rng: random.Random):
        super().__init__(k)
        self.rng = rng
        self.marks: set[PageId] = set()

    def _touched(self, page):
        self.marks.add(page)

    def _select_victim(self, t, page, prediction):
        if len(self.marks) == len(self.cache):
            self.marks.clear()
        unmarked = sorted(
            (e for e in self.cache.entries() if e.page not in self.marks),
            key=lambda e: e.last_request,
        )
        return self.rng.choice(unmarked).page


def simulate(trace: Trace, policies: Iterable[Policy]) -> None:
    """Serve every request of the trace to each policy, once per request."""
    serves = [policy.serve for policy in policies]
    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        for serve in serves:
            serve(t, page, h)
