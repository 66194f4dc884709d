"""Black-box combiners, and the one builder for every named policy run.

A combiner watches two expert policies and keeps its own cache.  It reads
only which page each expert evicts, so ``simulate`` serves every expert over
the whole trace first and hands the combiner the experts' victim lists; an
expert shared by several combiners of one call (or also a standalone run)
is served once.  Online, a combiner's ``serve`` serves its own experts
first.  On a full-cache miss the combiner evicts its least recent page that
the followed expert does not hold, so its cache drifts toward that expert's
cache lazily, one miss at a time.

Both combiners need only one integer: how many more evictions the followed
expert has made than the other, which changes only when exactly one expert
evicts.  They differ in one rule, applied when the followed expert alone
evicts.  ``FtlCombiner`` switches as soon as the other expert has evicted
strictly less.  ``MwCombiner`` follows expert i with probability
proportional to (1-epsilon)**cost_i: it switches with probability equal to
the share of that probability its expert just lost (mass coupling), so the
expected number of switches is the total probability movement.

The potential Phi is the number of own pages the followed expert does not
hold: the live items of its heap of own pages it lacks, which the body keeps
for its eviction rule anyway.  Both caches fill up on the same request, so
at Phi = 0 they are equal, and they stay equal until the followed expert
alone evicts and the combiner switches: the combiner is then the followed
expert, victim for victim.  ``simulate`` serves a combiner in one forward
pass over the requests and the experts' victim lists, alternating Phi = 0
stretches and body segments.  A stretch is served from the victims alone:
the pass scans for the requests on which exactly one expert evicts, takes
the switch rule's decisions there in order, and adds the followed expert's
evictions to the cost.  A switch replays the stretch into the own cache and
the other expert's heap, and the per-request body serves on until that heap
has no live item again; a stretch that reaches the end of the trace copies
the followed expert's final cache.  ``serve`` sends every request to the
body.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import chain, count, islice
from operator import countOf
from typing import Sequence

from .errors import ConfigError
from .metrics import BOUNDS
from .policies import (
    LRU,
    Belady,
    BlindOracle,
    Marker,
    Policy,
    pop_live,
)
from .trace import PageId, Trace

POLICY_NAMES = ("lru", "belady", "marker", "blind_oracle", "ftl", "mw")

# The policies a combiner's two experts run, in order: the costs its bounds
# need.  ``make_policies`` alone builds a combiner's experts, from this map.
EXPERTS = {bound.policy: bound.needs for bound in BOUNDS if bound.needs}


def keep_live(heap: list, cache: dict[PageId, int]) -> None:
    """Keep only the live items of a ``(key, last, page)`` heap, in place.

    An item is live while ``cache.get(page) == last``; stale ones are skipped
    when popped.  A combiner calls it once an outside heap holds more than 2k
    items (at least twice its live count): pushes stay O(log k) amortized.
    """
    heap[:] = [item for item in heap if cache.get(item[2]) == item[1]]
    heapify(heap)


class _Combiner(Policy):
    """Two experts of one ``k``, the combiner's, and the own pages each one lacks.

    The body is sent ``(t, page, victim_a, victim_b)``: the experts' victims
    for request t.  ``_outside[i]`` is a ``(last, last, page)`` heap (see
    ``pop_live``), keyed by own last request, of the own pages expert i does
    not hold.  Pages enter a cache only when requested and experts serve
    first, so an own page leaves expert i's cache exactly as expert i's
    victim, which the body pushes.  A combiner must therefore see every
    request its experts serve.

    ``followed`` (an index into ``experts``) is the expert whose cache the
    combiner drifts toward, and ``excess`` is its evictions minus the other
    expert's since the combiner started.  Both change only when exactly one
    expert evicts.  When that is the followed expert, ``excess`` rises by 1
    and the subclass's ``_switch(excess)`` decides whether to follow the
    other expert instead, whose excess is the negation.

    The potential Phi, how many own pages the followed expert does not
    hold, is the number of live items of that expert's heap.
    """

    followed = 0
    excess = 0

    def __init__(self, expert_a: Policy, expert_b: Policy):
        if expert_a.k != expert_b.k:
            raise ConfigError(f"combiner experts need one k, got {expert_a.k} and {expert_b.k}")
        self.experts = (expert_a, expert_b)
        self._outside: tuple[list, list] = ([], [])
        super().__init__(expert_a.k)

    def serve(self, t, page, prediction):
        """Serve request t to both experts (once if they are one run), then to self.

        t must first be this run's next request, by ``Policy.serve``'s rule,
        and the run open.
        """
        if t != (next_t := next(reversed(self.cache.values()), 0) + 1):
            raise ValueError(f"the {self.name} run's next request is {next_t}, not {t}")
        a, b = self.experts
        try:
            victim_a = a.serve(t, page, prediction)
            victim_b = victim_a if b is a else b.serve(t, page, prediction)
        except ValueError:
            if self._steps.gi_frame is None:  # closed, and so are its experts
                raise ValueError(f"the {self.name} run is closed") from None
            raise
        return self._steps.send((t, page, victim_a, victim_b))

    def _switch(self, excess: int) -> bool:
        raise NotImplementedError

    def _steps(self):
        own, k = self.cache, self.k
        limit = 2 * k
        outside_a, outside_b = self._outside
        switch = self._switch
        followed, excess = self.followed, self.excess
        outside = self._outside[followed]
        evicted = None
        while True:
            t, page, victim_a, victim_b = yield evicted
            if victim_a is not None or victim_b is not None:
                if victim_a is not None:
                    last = own.get(victim_a)
                    if last is not None:
                        heappush(outside_a, (last, last, victim_a))
                        if len(outside_a) > limit:
                            keep_live(outside_a, own)
                if victim_b is not None:
                    last = own.get(victim_b)
                    if last is not None:
                        heappush(outside_b, (last, last, victim_b))
                        if len(outside_b) > limit:
                            keep_live(outside_b, own)
                # when both evict, the excess and the followed expert stand
                if victim_a is None or victim_b is None:
                    if (victim_b if followed else victim_a) is None:
                        excess -= 1
                    else:
                        excess += 1
                        if switch(excess):
                            followed, excess = 1 - followed, -excess
                            self.followed = followed
                            outside = self._outside[followed]
                    self.excess = excess
            evicted = None
            if page in own:
                del own[page]
            elif len(own) >= k:
                evicted = pop_live(outside, own)
                del own[evicted]
                self.cost += 1
            own[page] = t

    def _serve_trace(self, requests, keep):
        """Serve the trace in one forward pass (see the module docstring).

        The stretch scan and the body advance one iterator over the requests
        and one over each expert's victims, so no list is walked from its
        head again but to count the stretch that ends the trace.  After that
        stretch the heaps no longer list the pages each expert lacks.
        """
        own, n = self.cache, len(requests)
        inputs = [expert.victims for expert in self.experts]
        kept = [] if keep else None
        pages, victims = iter(requests), [iter(v) for v in inputs]
        start = 1  # Phi is 0 and own is the followed expert's cache before it
        while start <= n:
            followed, excess = self.followed, self.excess
            mine, theirs = inputs[followed], inputs[1 - followed]
            switch = self._switch
            for t, victim, other in zip(count(start), victims[followed], victims[1 - followed]):
                if victim is None:
                    if other is not None:
                        excess -= 1
                elif other is None:
                    excess += 1
                    if switch(excess):
                        break
            else:
                # counted in place: a final stretch can span the whole trace
                self.cost += n + 1 - start - countOf(islice(mine, start - 1, None), None)
                if keep:
                    kept += mine[start - 1:]
                self.excess = excess
                own.clear()
                own.update(self.experts[followed].cache)
                break
            end = t
            stretch = mine[start - 1:end - 1]
            self.cost += end - start - countOf(stretch, None)
            if keep:
                kept += stretch
            # own becomes the followed expert's cache before request end; the
            # other expert's heap gets the body's pushes, less the stale items.
            # The followed expert then lacks only its victim at end.
            outside = self._outside[1 - followed]
            for t, page, lost, other in zip(
                count(start), islice(pages, end - start), stretch, theirs[start - 1:end - 1]
            ):
                if other is not None:
                    last = own.get(other)
                    if last is not None:
                        outside.append((last, last, other))
                if lost is None:
                    own.pop(page, None)
                else:
                    del own[lost]
                own[page] = t
            keep_live(outside, own)
            last = own[victim]
            self._outside[followed][:] = [(last, last, victim)]
            self.followed, self.excess = 1 - followed, -excess
            # the body serves request end's own step, then the requests after
            # it, until the followed expert's heap has no live item: Phi is 0.
            # The stale items on its top go, as pop_live would skip them.
            steps = self._start()
            for item in chain(((end, next(pages), None, None),), zip(count(end + 1), pages, *victims)):
                evicted = steps.send(item)
                if keep:
                    kept.append(evicted)
                heap = self._outside[self.followed]
                while heap and own.get(heap[0][2]) != heap[0][1]:
                    heappop(heap)
                if not heap:
                    break
            steps.close()
            start = item[0] + 1
        return kept


class FtlCombiner(_Combiner):
    """Follow the expert with the fewer evictions, expert 0 first; ties stay."""

    name = "ftl"

    def _switch(self, excess: int) -> bool:
        return excess > 0


class MwCombiner(_Combiner):
    """Follow expert i with chance w_i / (w_0 + w_1), w_i = (1-epsilon)**cost_i.

    The first expert is drawn at even odds.  After that, one draw is taken
    each time the followed expert alone evicts, and it switches with the
    share of its chance that it just lost (mass coupling).  That chance
    depends only on the excess.
    """

    name = "mw"

    def __init__(
        self,
        expert_a: Policy,
        expert_b: Policy,
        epsilon: float | None,
        rng: random.Random,
    ):
        if epsilon is None or not 0.0 < epsilon < 0.25:
            raise ConfigError(f"epsilon must be in (0, 1/4), got {epsilon}")
        self.epsilon = epsilon
        self.rng = rng
        self.followed = 0 if rng.random() < 0.5 else 1
        super().__init__(expert_a, expert_b)

    def _switch(self, excess: int) -> bool:
        # the share lost is epsilon / (1 + (1-epsilon)**excess); below 0 it is
        # spelled with the power of -excess, which cannot overflow
        power = (1.0 - self.epsilon) ** abs(excess)
        lost = self.epsilon * (power if excess < 0 else 1.0) / (1.0 + power)
        return self.rng.random() < lost


def make_policies(
    names: Sequence[str],
    k: int,
    trace: Trace | None = None,
    *,
    seed: int = 0,
    epsilon: float | None = None,
    shared: dict[str, Policy] | None = None,
) -> dict[str, Policy]:
    """Build the named runs over ``trace``; every run built, by policy name.

    A combiner wraps the runs of its experts' names (``EXPERTS``), built
    for it when not named, and returned with it: ``ftl`` (the deterministic
    combination) wraps ``blind_oracle`` and ``lru``, ``mw`` (the randomized
    one) ``blind_oracle`` and ``marker``.  ``belady`` keys each request by
    the trace's true arrivals, so it needs the trace; ``blind_oracle`` by
    its predictions.  Only runs built without a trace are driven by ``serve``.
    ``marker`` is seeded ``Random(seed)``; ``mw``'s generator by the third
    63-bit draw of ``Random(seed)``, and ``MwCombiner`` checks its epsilon.

    A run is keyed by what it reads.  ``shared`` holds the runs that read
    only the requests and arrivals (``lru``, ``belady`` and ``marker``),
    built on first use: the cells of one k and seed, whose traces share
    their requests, pass one dict and go to one ``simulate`` call, which
    serves each of those runs once.  ``blind_oracle`` is built per call,
    unless the trace is exact (``Trace.exact``): it then keys every page as
    ``belady`` does, with the same tie rule, so it is the ``belady`` run,
    returned as ``blind_oracle``.  The combiners are built per call.
    """
    if shared is None:
        shared = {}
    runs: dict[str, Policy] = {}
    exact = trace is not None and trace.exact

    def base(name: str) -> Policy:
        key = "belady" if name == "blind_oracle" and exact else name
        built = runs if key == "blind_oracle" else shared  # blind_oracle: one per call
        if key not in built:
            if key == "lru":
                built[key] = LRU(k)
            elif key == "blind_oracle":
                built[key] = BlindOracle(k, None if trace is None else trace.predictions)
            elif key == "belady":
                if trace is None:
                    raise ConfigError("belady needs the trace's true arrivals")
                built[key] = Belady(k, trace)
            else:  # marker
                built[key] = Marker(k, random.Random(seed))
        runs[name] = built[key]
        return runs[name]

    for name in names:
        if name == "ftl":
            runs[name] = FtlCombiner(*map(base, EXPERTS[name]))
        elif name == "mw":
            root = random.Random(seed)  # mw's generator: the third 63-bit draw
            rng = random.Random([root.getrandbits(63) for _ in range(3)][2])
            runs[name] = MwCombiner(*map(base, EXPERTS[name]), epsilon, rng)
        elif name in POLICY_NAMES:
            base(name)
        else:
            raise ConfigError(f"unknown policy {name!r}")
    return runs
