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
hold.  Both caches fill up on the same request, so at Phi = 0 they are
equal, and they stay equal until the followed expert alone evicts and the
combiner switches: the combiner is then the followed expert, victim for
victim.  ``simulate`` serves such a stretch from the experts' victim lists
alone: it scans for the requests on which exactly one expert evicts, takes
the switch rule's decisions there in order, and adds the followed expert's
evictions to the cost.  After a switch the per-request body serves until
Phi is 0 again; a stretch that reaches the end of the trace copies the
followed expert's final cache.  ``serve`` sends every request to the body.
"""

from __future__ import annotations

import random
from heapq import heappush
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
    keep_live,
    pop_live,
    simulate,
)
from .trace import Trace

POLICY_NAMES = ("lru", "belady", "marker", "blind_oracle", "ftl", "mw")

# The policies a combiner's two experts run, in order, as ``make_policies``
# builds them: the costs its bounds need.  mw's Marker is its own
# child-seeded run.
EXPERTS = {bound.policy: bound.needs for bound in BOUNDS if bound.needs}


def _count_live(heap: list, cache: dict) -> int:
    """How many items of a ``(key, last, page)`` heap are live (see ``pop_live``)."""
    return sum(cache.get(page) == last for _, last, page in heap)


class _Combiner(Policy):
    """Two experts of the combiner's ``k``, and the own pages each one lacks.

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

    ``phi`` is the potential Phi: how many own pages the followed expert
    does not hold.  The body counts it, and recounts it from the heap at a
    switch.
    """

    followed = 0
    excess = 0
    phi = 0

    def __init__(self, expert_a: Policy, expert_b: Policy, k: int):
        if expert_a.k != k or expert_b.k != k:
            raise ConfigError(f"combiner experts need k={k}, got {expert_a.k}, {expert_b.k}")
        self.experts = (expert_a, expert_b)
        self._outside: tuple[list, list] = ([], [])
        super().__init__(k)

    def serve(self, t, page, prediction):
        """Serve request t to both experts (once if they are one run), then to self."""
        a, b = self.experts
        victim_a = a.serve(t, page, prediction)
        victim_b = victim_a if b is a else b.serve(t, page, prediction)
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
        phi = self.phi = _count_live(outside, own)
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
                victim = victim_b if followed else victim_a
                if victim is not None:
                    # the followed expert missed: it lets go of its victim and
                    # takes in the page, either of which may be an own page
                    phi += (victim in own) - (page in own)
                # when both evict, the excess and the followed expert stand
                if victim_a is None or victim_b is None:
                    if victim is None:
                        excess -= 1
                    else:
                        excess += 1
                        if switch(excess):
                            followed, excess = 1 - followed, -excess
                            self.followed = followed
                            outside = self._outside[followed]
                            phi = _count_live(outside, own)
                    self.excess = excess
                self.phi = phi
            evicted = None
            if page in own:
                del own[page]
            elif len(own) >= k:
                evicted = pop_live(outside, own)
                del own[evicted]
                self.cost += 1
                phi -= 1
                self.phi = phi
            own[page] = t

    def _serve_trace(self, requests, inputs, keep):
        """Serve the trace in Phi = 0 stretches (see the module docstring).

        A switch rebuilds, as of its request, the state the body reads.  The
        heaps are rebuilt only then, so after the last stretch they no longer
        list the pages each expert lacks.
        """
        victims_a, victims_b = inputs
        own, n = self.cache, len(requests)
        kept = [] if keep else None
        start = 1  # phi is 0 and own is the followed expert's cache before it
        while start <= n:
            followed, excess = self.followed, self.excess
            mine, theirs = (victims_b, victims_a) if followed else (victims_a, victims_b)
            switch = self._switch
            end = n + 1
            for t, victim, other in zip(
                count(start), islice(mine, start - 1, None), islice(theirs, start - 1, None)
            ):
                if victim is None:
                    if other is not None:
                        excess -= 1
                elif other is None:
                    excess += 1
                    if switch(excess):
                        end = t
                        break
            # islices, not copies: a stretch can span the whole trace
            self.cost += end - start - countOf(islice(mine, start - 1, end - 1), None)
            if keep:
                kept += islice(mine, start - 1, end - 1)
            if end > n:
                self.excess = excess
                own.clear()
                own.update(self.experts[followed].cache)
                break
            # own, as the followed expert's cache before request end
            for t, page, victim in zip(
                count(start), islice(requests, start - 1, end - 1), islice(mine, start - 1, end - 1)
            ):
                if victim is None:
                    own.pop(page, None)
                else:
                    del own[victim]
                own[page] = t
            # once request end's experts have served, the followed expert
            # lacks only its victim there among the own pages, and the other
            # expert lacks those it evicted after their last request
            victim = mine[end - 1]
            last = own[victim]
            self._outside[followed][:] = [(last, last, victim)]
            outside = self._outside[1 - followed]
            for t, page in zip(count(start), islice(theirs, start - 1, end - 1)):
                if page is not None:
                    last = own.get(page)
                    if last is not None and last < t:
                        outside.append((last, last, page))
            keep_live(outside, own)
            self.followed, self.excess = 1 - followed, -excess
            # the body serves request end's own step, then the requests after
            # it, until phi is 0
            steps = self._start()
            start = end
            for item in chain(((end, requests[end - 1], None, None),), zip(
                count(end + 1), islice(requests, end, None),
                islice(victims_a, end, None), islice(victims_b, end, None),
            )):
                evicted = steps.send(item)
                if keep:
                    kept.append(evicted)
                start += 1
                if not self.phi:
                    break
            steps.close()
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
    randomized = True

    def __init__(
        self,
        expert_a: Policy,
        expert_b: Policy,
        k: int,
        epsilon: float,
        rng: random.Random,
    ):
        if not 0.0 < epsilon < 0.25:
            raise ConfigError(f"epsilon must be in (0, 1/4), got {epsilon}")
        self.epsilon = epsilon
        self.rng = rng
        self.followed = 0 if rng.random() < 0.5 else 1
        super().__init__(expert_a, expert_b, k)

    def _switch(self, excess: int) -> bool:
        # the share lost is epsilon / (1 + (1-epsilon)**excess); below 0 it is
        # spelled with the power of -excess, which cannot overflow
        power = (1.0 - self.epsilon) ** abs(excess)
        lost = self.epsilon * (power if excess < 0 else 1.0) / (1.0 + power)
        return self.rng.random() < lost


def _child_seeds(seed: int) -> tuple[int, int, int]:
    """Seeds of mw's two experts and of its own generator, in that order."""
    root = random.Random(seed)
    return root.getrandbits(63), root.getrandbits(63), root.getrandbits(63)


def make_policies(
    names: Sequence[str],
    k: int,
    trace: Trace | None = None,
    *,
    seed: int = 0,
    epsilon: float | None = None,
    shared: dict[str, Policy] | None = None,
) -> dict[str, Policy]:
    """Build one instance per distinct run of the named policies over ``trace``.

    ``belady`` keys each request by the trace's true arrivals, so it needs
    the trace; ``blind_oracle`` by its predictions (built without a trace,
    it is driven by ``serve``).  ``marker`` consumes the seed; ``mw``
    consumes it through child seeds and needs epsilon.  ``ftl`` (the
    deterministic combination of blind_oracle and lru) wraps the very
    ``blind_oracle`` and ``lru`` instances returned under those names, built
    for it when they are not named.  ``mw`` (blind_oracle with marker) wraps
    that same ``blind_oracle`` plus its own child-seeded Marker, a run
    distinct from the standalone ``marker``.

    A run is keyed by what it reads.  ``shared`` holds the runs that read
    only the requests and arrivals (``lru``, ``belady``, ``marker`` and mw's
    Marker), built on first use: the cells of one k and seed, whose traces
    share their requests, pass one dict and go to one ``simulate`` call,
    which serves each of those runs once.  ``blind_oracle`` is built per
    call, unless the trace is exact (``Trace.exact``): it then keys every
    page as ``belady`` does, with the same tie rule, so it is the ``belady``
    run.  The combiners are built per call.
    """
    if shared is None:
        shared = {}
    own: dict[str, Policy] = {}  # blind_oracle reads the predictions: one per call
    exact = trace is not None and trace.exact

    def base(name: str) -> Policy:
        if name == "blind_oracle" and exact:
            name = "belady"
        built = own if name == "blind_oracle" else shared
        if name not in built:
            if name == "lru":
                built[name] = LRU(k)
            elif name == "blind_oracle":
                built[name] = BlindOracle(k, None if trace is None else trace.predictions)
            elif name == "belady":
                if trace is None:
                    raise ConfigError("belady needs the trace's true arrivals")
                built[name] = Belady(k, trace.arrivals)
            elif name == "marker":
                built[name] = Marker(k, random.Random(seed))
            else:  # mw's Marker; the first child seed belongs to blind_oracle
                built[name] = Marker(k, random.Random(_child_seeds(seed)[1]))
        return built[name]

    runs: dict[str, Policy] = {}
    for name in names:
        if name == "ftl":
            runs[name] = FtlCombiner(base("blind_oracle"), base("lru"), k)
        elif name == "mw":
            if epsilon is None:
                raise ConfigError("mw needs epsilon")
            runs[name] = MwCombiner(
                base("blind_oracle"), base("mw.marker"), k, epsilon,
                random.Random(_child_seeds(seed)[2]),
            )
        elif name in POLICY_NAMES:
            runs[name] = base(name)
        else:
            raise ConfigError(f"unknown policy {name!r}")
    return runs


def run_policy(policy: str | Policy, trace: Trace, k: int, seed: int = 0) -> Policy:
    """Serve every request of the trace to one run; returns the run.

    ``policy`` is a name from POLICY_NAMES or an already-built (fresh)
    instance.  The run's ``cost`` is its eviction count.
    """
    if isinstance(policy, str):
        policy = make_policies((policy,), k, trace, seed=seed)[policy]
    simulate(trace.requests, (policy,))
    return policy


def run_ftl(policy_a: str, policy_b: str, trace: Trace, k: int) -> FtlCombiner:
    """Run the follow-the-leader combination of two deterministic policies."""
    experts = make_policies((policy_a, policy_b), k, trace)
    a, b = experts[policy_a], experts[policy_b]
    if a.randomized or b.randomized:
        raise ConfigError("ftl requires deterministic experts")
    return run_policy(FtlCombiner(a, b, k), trace, k)


def run_mw(
    policy_a: str, policy_b: str, trace: Trace, k: int, epsilon: float, seed: int
) -> MwCombiner:
    """Run the multiplicative-weights combination; one seed fixes everything."""
    seed_a, seed_b, mw_seed = _child_seeds(seed)
    a = make_policies((policy_a,), k, trace, seed=seed_a)[policy_a]
    b = make_policies((policy_b,), k, trace, seed=seed_b)[policy_b]
    return run_policy(MwCombiner(a, b, k, epsilon, random.Random(mw_seed)), trace, k)
