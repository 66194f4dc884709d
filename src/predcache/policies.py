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
each request online (the adversary); it takes only a run built without a trace.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count, repeat
from typing import Iterable, Sequence

from .errors import ConfigError
from .trace import PageId, Trace


class Policy:
    """Base eviction policy: one run, and the generator body that serves it.

    ``cache`` maps each resident page to its last request index, least recent
    first: a hit moves the page to the end, and a run has served a request
    once it is non-empty.  ``cost`` counts this instance's evictions so far.
    ``experts`` lists the policies a combiner watches, ``keys`` the key of
    each request for a run that reads one, and ``requests`` the requests of
    a run built over them.  ``simulate`` sets ``victims`` to the run's victim
    per request when a combiner reads them.

    ``_steps`` is the body: sent ``(t, page, key)``, it serves request t and
    yields the evicted page or None.  The key is ``keys[t - 1]`` (None without
    keys) under ``simulate`` and the prediction under ``serve``, which a
    keyless run appends to ``keys``; a combiner is sent its experts' victims.
    ``_start`` makes a running body, primed, from the run's current state;
    ``__init__`` replaces the method by one, so a subclass sets what its
    body reads (an RNG, the keys, the experts) before calling
    ``Policy.__init__``.  The body mutates the very objects it binds as
    locals, so they stay readable between requests.
    """

    name = "base"
    experts: tuple[Policy, ...] = ()
    keys: Sequence[float] | None = None
    requests: Sequence[PageId] | None = None
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
        """Serve request t alone; returns the evicted page on a full-cache miss.

        Only an open run built without a trace is served (``simulate`` serves
        the others), and only at its next request t: a keyless run's key
        count + 1, else its cache's newest entry + 1, or 1 when the cache is
        empty.  A keyless run appends the prediction to its keys once served.
        """
        keys = self.keys
        if keys is None:
            next_t = next(reversed(self.cache.values()), 0) + 1
        elif type(keys) is list:
            next_t = len(keys) + 1
        else:
            raise ValueError(f"the {self.name} run holds a trace's keys: simulate serves it")
        if t != next_t:
            raise ValueError(f"the {self.name} run's next request is {next_t}, not {t}")
        try:
            evicted = self._steps.send((t, page, prediction))
        except StopIteration:  # the body is closed
            raise ValueError(f"the {self.name} run is closed") from None
        if keys is not None:
            keys.append(prediction)
        return evicted

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

    def _serve_trace(self, requests, keep):
        """Serve requests 1..n, request t with its key (None without ``keys``).

        Returns the victim of each request if ``keep``, else None.
        """
        keys = repeat(None) if self.keys is None else self.keys
        served = map(self._steps.send, zip(count(1), requests, keys))
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


def pop_live(heap: list, cache: dict[PageId, int]) -> PageId:
    """Remove the smallest live item of a ``(key, last, page)`` heap; its page."""
    while True:
        _, last, page = heappop(heap)
        if cache.get(page) == last:
            return page


class BlindOracle(Policy):
    """Evict the page whose stored prediction is furthest in the future.

    Request t's key is ``keys[t - 1]``: the trace's predictions under
    ``simulate``, or the list ``serve`` appends each prediction to for a run
    built without a trace.  A
    page keeps the prediction of its own last request, compared at face
    value once it points into the past; ties go to the least recent.  A
    request pushes ``(-key, t, page)`` onto ``_heap`` while it holds under
    2k items; the item goes stale once its page is requested again or
    evicted.  A full-cache miss that finds the heap at 2k (after a skipped
    push) rebuilds it from the cache and ``keys``.
    """

    name = "blind_oracle"

    def __init__(self, k: int, keys: Sequence[float] | None = None):
        self.keys = [] if keys is None else tuple(keys)
        super().__init__(k)

    def _steps(self):
        cache, k, keys = self.cache, self.k, self.keys
        heap = self._heap = []  # (-key, t, page) items
        limit = 2 * k
        evicted = None
        while True:
            t, page, key = yield evicted
            evicted = None
            if page in cache:
                del cache[page]
            elif len(cache) >= k:
                if len(heap) >= limit:
                    heap[:] = [(-keys[last - 1], last, p) for p, last in cache.items()]
                    heapify(heap)
                evicted = pop_live(heap, cache)
                del cache[evicted]
                self.cost += 1
            cache[page] = t
            if len(heap) < limit:
                heappush(heap, (-key, t, page))


class Belady(Policy):
    """Offline optimal: evict the page actually requested furthest in the future.

    Built over a trace, it reads the trace's requests and, as its keys, the
    true arrivals; only ``simulate`` serves it.  Request t's key y is its page's
    next request, and for y <= n the page requested at y is
    ``requests[y - 1]``: ``_heap`` holds the int -y, pushed and rebuilt as
    ``BlindOracle``'s items are.  An item is live exactly when y > t and
    that page is resident (no request of it lies between its last one and
    y).  A page leaves the cache only as the top item or from ``_never``, so
    every item with y > t is live, and the top is the victim.  Pages never
    requested again (y = n + 1) wait in ``_never`` and go first, least
    recent first.
    """

    name = "belady"

    def __init__(self, k: int, trace: Trace):
        self.keys, self.requests = trace.arrivals, trace.requests
        super().__init__(k)

    def _steps(self):
        cache, k, keys, requests = self.cache, self.k, self.keys, self.requests
        n, limit = len(requests), 2 * k
        heap = self._heap = []  # -y items
        never = self._never = deque()  # resident pages with y = n + 1
        evicted = None
        while True:
            t, page, y = yield evicted
            evicted = None
            if page in cache:
                del cache[page]
            elif len(cache) >= k:
                if never:
                    evicted = never.popleft()
                else:
                    if len(heap) >= limit:
                        heap[:] = [-keys[last - 1] for last in cache.values()]
                        heapify(heap)
                    evicted = requests[-heappop(heap) - 1]
                del cache[evicted]
                self.cost += 1
            cache[page] = t
            if y > n:
                never.append(page)
            elif len(heap) < limit:
                heappush(heap, -y)


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
    the call reads keeps its ``victims``.  A run is closed once served; a
    call over no requests serves and closes none.  A run that has served a
    request, by either driver, is a ValueError, as is a run whose keys are
    not one per request (a ``blind_oracle`` built without a trace has
    none) or that was built over other requests; a refused call serves
    nothing.
    """
    runs: dict[Policy, None] = {}  # each distinct run, after its experts
    for run in policies:
        _add_run(runs, run)
    for run in runs:
        if run.cache:
            raise ValueError(f"the {run.name} run was served already")
        if run.keys is not None and len(run.keys) != len(requests):
            raise ValueError(
                f"the {run.name} run has {len(run.keys)} keys for {len(requests)} requests"
            )
        if run.requests is not None and run.requests != tuple(requests):
            raise ValueError(f"the {run.name} run was built over other requests")
    if not requests:
        return  # nothing is served, so each run stays fresh and open
    read = {expert for run in runs for expert in run.experts}
    for run in runs:
        run.victims = run._serve_trace(requests, run in read)
        run.close()
