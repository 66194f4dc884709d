"""Black-box combiners, and the one builder for every named policy run.

A combiner watches two expert policies and keeps its own cache.  It serves
each expert before itself; since serving is idempotent per request, an expert
that is also a standalone run (or shared by another combiner) is simulated
once.  On a full-cache miss the combiner evicts a page that the currently
tracked expert does not hold, so its cache drifts toward that expert's cache
lazily, one miss at a time.

``FtlCombiner`` deterministically follows whichever expert has evicted less so
far.  ``MwCombiner`` follows expert i with probability proportional to
(1-epsilon)**cost_i, switching via mass coupling so the expected number of
switches is bounded by total probability movement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError
from .policies import (
    LRU,
    Belady,
    BlindOracle,
    Marker,
    PageId,
    Policy,
    RunResult,
    simulate,
)
from .trace import Trace

POLICY_NAMES = ("lru", "belady", "marker", "blind_oracle", "ftl", "mw")

# Below this magnitude both weights are rescaled by a common factor; the
# ratio, and therefore every probability and coupling draw, is unchanged.
_RESCALE_FLOOR = 1e-100


def _victim_outside(own: dict[PageId, int], target: dict[PageId, int]) -> PageId:
    """Least recently used page of ``own`` absent from ``target``.

    ``own`` is walked least recent first, so the cost is the number of pages
    passed that ``target`` also holds.  When both caches are full a candidate
    always exists (the target holds the page just requested, which ``own``
    missed); the fallback to plain LRU only matters if the target cache is
    still filling.
    """
    for page in own:
        if page not in target:
            return page
    return next(iter(own))


class FtlCombiner(Policy):
    """Follow the expert with the smaller eviction count.

    The leader (an index into ``experts``) is recomputed after both experts
    serve the current request; ties keep the incumbent, and expert 0 leads
    initially.
    """

    name = "ftl"

    def __init__(self, expert_a: Policy, expert_b: Policy, k: int):
        super().__init__(k)
        self.experts = (expert_a, expert_b)
        self.leader = 0

    def _pre_serve(self, t, page, prediction):
        a, b = self.experts
        a.serve(t, page, prediction)
        b.serve(t, page, prediction)
        if a.cost < b.cost:
            self.leader = 0
        elif b.cost < a.cost:
            self.leader = 1

    def _select_victim(self, t, page, prediction):
        return _victim_outside(self.cache, self.experts[self.leader].cache)


def mw_update(
    weights: tuple[float, float], epsilon: float, cost_a: int, cost_b: int
) -> tuple[float, float]:
    """One multiplicative-weights step: w_i' = w_i * (1-epsilon)**cost_i."""
    if cost_a not in (0, 1) or cost_b not in (0, 1):
        raise ValueError("per-step expert costs must be 0 or 1")
    wa, wb = weights
    return wa * (1.0 - epsilon) ** cost_a, wb * (1.0 - epsilon) ** cost_b


class MwCombiner(Policy):
    """Randomized combiner driven by multiplicative weights.

    After each request the followed expert (an index into ``experts``) is
    abandoned with probability equal to the fraction of probability mass it
    just lost, which keeps the chance of following expert i equal to
    w_i / (w_0 + w_1) at all times.
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
        super().__init__(k)
        self.experts = (expert_a, expert_b)
        self.epsilon = epsilon
        self.rng = rng
        self.weights = (1.0, 1.0)
        self.followed = 0 if rng.random() < 0.5 else 1

    def _probability(self, which: int) -> float:
        return self.weights[which] / sum(self.weights)

    def _pre_serve(self, t, page, prediction):
        a, b = self.experts
        ca = 0 if a.serve(t, page, prediction) is None else 1
        cb = 0 if b.serve(t, page, prediction) is None else 1
        prior = self._probability(self.followed)
        self.weights = mw_update(self.weights, self.epsilon, ca, cb)
        wa, wb = self.weights
        if max(wa, wb) < _RESCALE_FLOOR:
            scale = max(wa, wb)
            self.weights = (wa / scale, wb / scale)
        posterior = self._probability(self.followed)
        if posterior < prior and self.rng.random() < (prior - posterior) / prior:
            self.followed = 1 - self.followed

    def _select_victim(self, t, page, prediction):
        return _victim_outside(self.cache, self.experts[self.followed].cache)


def _child_seeds(seed: int) -> tuple[int, int, int]:
    """Seeds of mw's two experts and of its own generator, in that order."""
    root = random.Random(seed)
    return root.getrandbits(63), root.getrandbits(63), root.getrandbits(63)


def make_policies(
    names: Sequence[str],
    k: int,
    *,
    arrivals: Sequence[int] | None = None,
    seed: int = 0,
    epsilon: float | None = None,
) -> dict[str, Policy]:
    """Build one instance per distinct run of the named policies.

    ``belady`` needs the trace's arrival vector; ``marker`` consumes the seed;
    ``mw`` consumes it through child seeds and needs epsilon.  ``ftl`` (the
    deterministic combination of blind_oracle and lru) wraps the very
    ``blind_oracle`` and ``lru`` instances returned under those names, built
    for it when they are not named.  ``mw`` (blind_oracle with marker) wraps
    that same ``blind_oracle`` plus its own child-seeded Marker, a run distinct
    from the standalone ``marker``.
    """
    shared: dict[str, Policy] = {}

    def base(name: str) -> Policy:
        if name not in shared:
            if name == "lru":
                shared[name] = LRU(k)
            elif name == "blind_oracle":
                shared[name] = BlindOracle(k)
            elif name == "belady":
                if arrivals is None:
                    raise ConfigError("belady needs the trace's true arrivals")
                shared[name] = Belady(k, arrivals)
            elif name == "marker":
                shared[name] = Marker(k, random.Random(seed))
            else:
                raise ConfigError(f"unknown policy {name!r}")
        return shared[name]

    runs: dict[str, Policy] = {}
    for name in names:
        if name == "ftl":
            runs[name] = FtlCombiner(base("blind_oracle"), base("lru"), k)
        elif name == "mw":
            if epsilon is None:
                raise ConfigError("mw needs epsilon")
            # the first child seed belongs to blind_oracle, which ignores it
            _, marker_seed, mw_seed = _child_seeds(seed)
            marker = Marker(k, random.Random(marker_seed))
            runs[name] = MwCombiner(
                base("blind_oracle"), marker, k, epsilon, random.Random(mw_seed)
            )
        else:
            runs[name] = base(name)
    return runs


def run_policy(policy: str | Policy, trace: Trace, k: int, seed: int = 0) -> RunResult:
    """Serve every request of the trace and tally evictions.

    ``policy`` is a name from POLICY_NAMES or an already-built (fresh)
    instance.  The recorded seed is 0 for deterministic policies.
    """
    if isinstance(policy, str):
        policy = make_policies((policy,), k, arrivals=trace.arrivals, seed=seed)[policy]
    simulate(trace, (policy,))
    return RunResult(policy.cost, seed if policy.randomized else 0)


@dataclass(frozen=True)
class CombinedResult(RunResult):
    """RunResult plus the watched experts' total costs."""

    cost_a: int = 0
    cost_b: int = 0


def _run_combiner(combiner: Policy, trace: Trace, seed: int) -> CombinedResult:
    simulate(trace, (combiner,))
    a, b = combiner.experts
    return CombinedResult(combiner.cost, seed, a.cost, b.cost)


def run_ftl(policy_a: str, policy_b: str, trace: Trace, k: int) -> CombinedResult:
    """Run the follow-the-leader combination of two deterministic policies."""
    experts = make_policies((policy_a, policy_b), k, arrivals=trace.arrivals)
    a, b = experts[policy_a], experts[policy_b]
    if a.randomized or b.randomized:
        raise ConfigError("ftl requires deterministic experts")
    return _run_combiner(FtlCombiner(a, b, k), trace, 0)


def run_mw(
    policy_a: str, policy_b: str, trace: Trace, k: int, epsilon: float, seed: int
) -> CombinedResult:
    """Run the multiplicative-weights combination; one seed fixes everything."""
    seed_a, seed_b, mw_seed = _child_seeds(seed)
    a = make_policies((policy_a,), k, arrivals=trace.arrivals, seed=seed_a)[policy_a]
    b = make_policies((policy_b,), k, arrivals=trace.arrivals, seed=seed_b)[policy_b]
    combiner = MwCombiner(a, b, k, epsilon, random.Random(mw_seed))
    return _run_combiner(combiner, trace, seed)
