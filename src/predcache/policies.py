"""Eviction policies: each one generator body, and the batch driver.

Cost model: serving a resident page or filling an empty slot is free; a miss
with a full cache forces exactly one eviction, which costs 1.  A policy
instance holds the cache state and running cost of one run, so separate
instances can serve different (trace, seed) cells in parallel.  ``simulate``
serves each distinct run of one call over a request sequence once, so a run
that never reads a prediction (``lru``, ``belady``, ``marker``) can stand in
every cell of the call.  A policy's body is driven from C over every
request.  A combiner (``combine``) is served in stretches: while its
potential Phi, the number of own pages outside the followed expert's cache,
is 0, it evicts what that expert evicts and is served from the experts'
victim lists; its body serves the requests from a switch until Phi is 0
again.  ``serve`` drives a body one request at a time, for callers that pick
each request online (the adversary).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count, repeat
from typing import Iterable, Sequence

from .errors import ConfigError
from .trace import PageId


class Policy:
    """Base eviction policy: one run, and the generator body that serves it.

    ``cache`` maps each resident page to its last request index, least recent
    first: a hit moves the page to the end.  ``cost`` counts this instance's
    evictions so far.  ``experts`` lists the policies a combiner watches, and
    ``keys`` the key of each request for a run that reads one.  ``simulate``
    sets ``served``, and ``victims`` to the run's victim per request when a
    combiner reads them.

    ``_steps`` is the body: sent ``(t, page, key)``, it serves request t and
    yields the evicted page or None.  The key is the prediction (the true
    next arrival for ``belady``), None for a run that reads none; a combiner
    is sent its experts' victims.
    ``_start`` makes a running body, primed, from the run's current state;
    ``__init__`` replaces the method by one, so a subclass sets what its
    body reads (an RNG, the keys, the experts) before calling
    ``Policy.__init__``.  The body mutates the very objects it binds as
    locals, so they stay readable between requests.
    """

    name = "base"
    randomized = False
    experts: tuple[Policy, ...] = ()
    keys: Sequence[float] | None = None
    served = False
    victims: list[PageId | None] | None = None

    def __init__(self, k: int):
        if k < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.k = k
        self.cache: dict[PageId, int] = {}
        self.cost = 0
        self._steps = self._start()

    def _start(self):
        """A running body, primed: it serves on from the run's state as it is."""
        steps = type(self)._steps(self)
        next(steps)
        return steps

    def serve(self, t: int, page: PageId, prediction: float) -> PageId | None:
        """Serve request t alone; returns the evicted page on a full-cache miss."""
        return self._steps.send((t, page, prediction))

    def close(self) -> None:
        """End the run and its experts' runs; their state stays readable.

        A body refers to its run: until closed, a dropped run waits for the
        cycle collector.
        """
        for expert in self.experts:
            expert.close()
        self._steps.close()

    def _steps(self):
        raise NotImplementedError

    def _serve_trace(self, requests, inputs, keep):
        """Serve requests 1..n, request t with the t-th item of each input.

        Returns the victim of each request if ``keep``, else None.
        """
        served = map(self._steps.send, zip(count(1), requests, *inputs))
        if keep:
            return list(served)
        deque(served, maxlen=0)
        return None


class LRU(Policy):
    """Evict the resident page with the smallest last-request index: the first."""

    name = "lru"

    def _steps(self):
        cache, k = self.cache, self.k
        evicted = None
        while True:
            t, page, _ = yield evicted
            evicted = None
            if page in cache:
                del cache[page]
            elif len(cache) >= k:
                evicted = next(iter(cache))
                del cache[evicted]
                self.cost += 1
            cache[page] = t


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

    ``simulate`` keys request t by the t-th of the bound ``keys``; ``serve``
    is sent each key.  Every request pushes ``(-key, t, page)`` onto
    ``_heap``; the item goes stale once its page is requested again or evicted.
    """

    def __init__(self, k: int, keys: Sequence[float] | None = None):
        self.keys = keys
        super().__init__(k)

    def _steps(self):
        cache, k = self.cache, self.k
        heap = self._heap = []  # (-key, t, page) items
        limit = 2 * k
        evicted = None
        while True:
            t, page, key = yield evicted
            evicted = None
            if page in cache:
                del cache[page]
            elif len(cache) >= k:
                evicted = pop_live(heap, cache)
                del cache[evicted]
                self.cost += 1
            cache[page] = t
            heappush(heap, (-key, t, page))
            if len(heap) > limit:
                keep_live(heap, cache)


class BlindOracle(_LargestKey):
    """Evict the page whose stored prediction is furthest in the future.

    Its keys are the trace's predictions.  A page keeps only the prediction
    issued at its own last request; stale values (pointing into the past) are
    compared at face value.  Ties go to the least recently requested page.
    """

    name = "blind_oracle"


class Belady(_LargestKey):
    """Offline optimal: evict the page actually requested furthest in the future.

    Its keys are the trace's true arrivals, read online too: request t's key
    is ``keys[t - 1]``, exactly the page's next request after t.  Pages never
    requested again tie at n+1 and fall back to least-recently-used.
    """

    name = "belady"

    def serve(self, t, page, prediction):
        return self._steps.send((t, page, self.keys[t - 1]))


class Marker(Policy):
    """Randomized marking: evict a uniformly random unmarked page.

    Requested pages end marked.  When a full-cache miss finds every cached
    page marked, all marks are cleared (a new phase) before the random draw.
    ``unmarked`` lists the unmarked pages by last-request index (the cache's
    order at the phase start, less the pages requested or evicted since), so
    the draw depends only on the seed, not on hash ordering.

    The victim is ``unmarked[i]`` for the index ``random.Random.choice``
    would draw: ``getrandbits(len(unmarked).bit_length())``, redrawn while
    out of range.  The draw is inlined for speed; the golden CSVs pin it.
    """

    name = "marker"
    randomized = True

    def __init__(self, k: int, rng: random.Random):
        self.rng = rng
        super().__init__(k)

    def _steps(self):
        cache, k = self.cache, self.k
        unmarked = self.unmarked = []
        getrandbits, last_of = self.rng.getrandbits, cache.__getitem__
        phase_start = 0  # resident pages last requested before it are unmarked
        evicted = None
        while True:
            t, page, _ = yield evicted
            evicted = None
            last = cache.get(page)
            if last is not None:
                if last < phase_start:
                    # every unmarked page is still resident under its last
                    # request, and ``unmarked`` is in that order
                    del unmarked[bisect_left(unmarked, last, key=last_of)]
                del cache[page]
            elif len(cache) >= k:
                if not unmarked:
                    phase_start = t
                    unmarked[:] = cache
                size = len(unmarked)
                bits = size.bit_length()
                i = getrandbits(bits)
                while i >= size:
                    i = getrandbits(bits)
                evicted = unmarked.pop(i)
                del cache[evicted]
                self.cost += 1
            cache[page] = t


def _add_run(runs: dict[Policy, None], run: Policy) -> None:
    for expert in run.experts:
        _add_run(runs, expert)
    runs.setdefault(run)


def simulate(requests: Sequence[PageId], policies: Iterable[Policy]) -> None:
    """Serve requests 1..n once to each distinct run and its experts.

    Each run is served by its ``_serve_trace`` after the experts it reads: a
    ``map`` of its body's ``send`` over the requests and its ``keys``, or a
    combiner's stretches over its experts' victims.  A run some combiner of
    the call reads keeps its ``victims``.  Every run is closed at the end; a
    run is served once, so serving a served run again is a ValueError.
    """
    runs: dict[Policy, None] = {}  # each distinct run, after its experts
    for run in policies:
        _add_run(runs, run)
    for run in runs:
        if run.served:
            raise ValueError(f"the {run.name} run was served already")
    read = {expert for run in runs for expert in run.experts}
    for run in runs:
        if run.experts:
            inputs = [expert.victims for expert in run.experts]
        else:
            inputs = [repeat(None) if run.keys is None else run.keys]
        run.victims = run._serve_trace(requests, inputs, run in read)
        run.served = True
    for run in runs:
        run.close()
