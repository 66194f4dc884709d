"""Adaptive lower-bound construction against deterministic policies.

The adversary plays k+1 pages (P_1..P_k plus Q_0) in phases of k + 1 + j
requests and watches the attacked policy's evictions:

  1. One round of P_1..P_k in order.
  2. One request to Q_0.
  3. j adaptive requests, each to the page the policy evicted on the previous
     request, re-issuing the prediction that page carried last time.  If the
     previous request evicted nothing, the fallback is the lowest-indexed
     P-page absent from the policy's cache (P_1 if all are resident); Q_0 is
     never a fallback.

Every step-1/2 request predicts t + phase_length: each of the k+1 pages is
requested exactly once in steps 1-2 of every phase, at the same offset, so
that is the page's slot in the next phase and the prediction is exact unless
the adaptive step drags the page back early.  An adaptive request always
targets a page last requested earlier in the same phase (every page is
requested in steps 1-2), so the prediction it invalidates points at most
phase_length - 1 = k + j <= 2k - 1 requests past it.  With at most j such
pull-backs per phase, the realized l1 error stays within 2jk, while each
phase still forces j+1 evictions against at most 2 for the offline optimum.
The final phase's predictions point past the end of the trace and are
charged at face value, covered by an extra allowance in the last phase's
error budget.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError, NondeterministicPolicyError
from .metrics import BoundRecord, ell1_loss
from .combine import make_policies
from .policies import PageId, Policy, simulate
from .trace import Trace


class AdversaryConfig(NamedTuple):
    k: int
    j: int
    num_phases: int = 1

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError("adversary requires k >= 1")
        if not 0 <= self.j <= self.k - 1:
            raise ConfigError("adversary requires 0 <= j <= k-1")
        if self.num_phases < 1:
            raise ConfigError("adversary requires num_phases >= 1")

    @property
    def phase_length(self) -> int:
        return self.k + 1 + self.j

    @property
    def label(self) -> str:
        return f"adversary-k{self.k}-j{self.j}-p{self.num_phases}"


class PhaseStats(NamedTuple):
    alg_cost: int
    eta: float
    eta_upper_bound: float


class AdversaryResult(NamedTuple):
    config: AdversaryConfig
    trace: Trace
    alg_cost: int
    opt_cost: int  # Belady on the generated trace
    eta: float
    phases: tuple[PhaseStats, ...]


# The named policies the construction attacks: deterministic, and run online
# without the future arrivals (belady needs them; marker and mw draw).
ADVERSARY_POLICIES = ("lru", "blind_oracle", "ftl")


def _fallback_page(p_pages: list[PageId], instance: Policy) -> PageId:
    for page in p_pages:
        if page not in instance.cache:
            return page
    return p_pages[0]


def run_adversary(policy: str, config: AdversaryConfig) -> AdversaryResult:
    """Drive a named deterministic policy through the phase construction.

    ``policy`` is one of ``ADVERSARY_POLICIES``.  Its run is served online,
    each request as it is issued, and closed once the trace is built.  One
    ``simulate`` over that trace then serves Belady, for opt, and a batch
    run of the policy, which must end with the online run's cost and cache.
    """
    config.validate()
    if policy not in ADVERSARY_POLICIES:
        raise ConfigError(
            f"the adversary attacks only {', '.join(ADVERSARY_POLICIES)}, got {policy!r}"
        )
    k, j = config.k, config.j
    instance = make_policies((policy,), k)[policy]
    p_pages = [f"P{i}" for i in range(1, k + 1)]
    q_page = "Q0"
    requests: list[PageId] = []
    predictions: list[float] = []
    evictions: list[PageId | None] = []
    last_prediction: dict[PageId, float] = {}

    def issue(page: PageId, h: float) -> None:
        requests.append(page)
        predictions.append(h)
        last_prediction[page] = h
        evictions.append(instance.serve(len(requests), page, h))

    plen = config.phase_length
    try:
        for _ in range(config.num_phases):
            for page in (*p_pages, q_page):
                issue(page, float(len(requests) + 1 + plen))
            for _ in range(j):
                target = evictions[-1]
                if target is None:
                    target = _fallback_page(p_pages, instance)
                issue(target, last_prediction[target])
    finally:
        instance.close()

    trace = Trace(requests, predictions)
    phases = []
    for p in range(config.num_phases):
        lo, hi = p * plen, (p + 1) * plen
        cost = sum(1 for e in evictions[lo:hi] if e is not None)
        eta_p = ell1_loss(trace.arrivals[lo:hi], trace.predictions[lo:hi])
        budget = 2.0 * j * k
        if p == config.num_phases - 1:
            # dangling final-phase predictions, charged at y = n+1: the page
            # at offset i of steps 1-2 overshoots by i, k*(k+1)/2 at most
            budget += 2.0 * k * k
        phases.append(PhaseStats(cost, eta_p, budget))

    runs = make_policies((policy, "belady"), k, trace)
    simulate(trace.requests, runs.values())
    batch, opt = runs[policy], runs["belady"]
    if (batch.cost, list(batch.cache.items())) != (instance.cost, list(instance.cache.items())):
        raise NondeterministicPolicyError(
            f"the {policy} run ended its trace at cost {instance.cost} online and at cost "
            f"{batch.cost} in a batch run, or with another cache; the adversary construction "
            "requires a deterministic policy"
        )
    return AdversaryResult(
        config=config,
        trace=trace,
        alg_cost=instance.cost,
        opt_cost=opt.cost,
        eta=ell1_loss(trace.arrivals, trace.predictions),
        phases=tuple(phases),
    )


def certify_lower_bound(result: AdversaryResult) -> BoundRecord:
    """Certificate that the policy paid at least the constructed lower bound.

    Passes when the measured cost reaches 2*num_phases + num_phases*(j-1) and
    Belady on the generated trace stayed within 2 evictions per phase.  A
    failed Belady check is encoded as an infinite requirement so that the
    record's pass flag remains equivalent to lhs <= rhs.
    """
    cfg = result.config
    opt_upper = 2 * cfg.num_phases
    required = float(opt_upper + cfg.num_phases * (cfg.j - 1))
    note = f"belady_opt={result.opt_cost} (upper bound {opt_upper})"
    if result.opt_cost > opt_upper:
        required = float("inf")
        note += "; opt upper bound violated"
    return BoundRecord(
        bound_id="lower_bound_thm4",
        lhs=required,
        rhs=float(result.alg_cost),
        slack_used=0.0,
        passed=required <= result.alg_cost,
        note=note,
    )
