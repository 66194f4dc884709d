import gc
import weakref

import pytest

from predcache import (
    AdversaryConfig,
    ConfigError,
    LRU,
    NondeterministicPolicyError,
    Policy,
    certify_lower_bound,
    make_policies,
    run_adversary,
)
from predcache.adversary import _fallback_page
from oracles import run_policy, serve_all


def test_config_validation():
    with pytest.raises(ConfigError):
        AdversaryConfig(k=0, j=0).validate()
    with pytest.raises(ConfigError):
        AdversaryConfig(k=3, j=3).validate()
    with pytest.raises(ConfigError):
        AdversaryConfig(k=3, j=-1).validate()
    with pytest.raises(ConfigError):
        AdversaryConfig(k=3, j=1, num_phases=0).validate()
    assert AdversaryConfig(k=3, j=2).phase_length == 6


def test_rejects_unusable_policies():
    with pytest.raises(ConfigError):
        run_adversary("belady", AdversaryConfig(k=3, j=1))
    with pytest.raises(ConfigError):
        run_adversary("mw", AdversaryConfig(k=3, j=1))
    with pytest.raises(ConfigError):
        run_adversary("marker", AdversaryConfig(k=3, j=1))
    with pytest.raises(ConfigError):
        run_adversary(lambda: LRU(4), AdversaryConfig(k=3, j=1))


def test_phase_layout_against_lru():
    # k=3, j=2: one round of P1..P3 and then Q0, each predicting its slot in
    # the next phase (phase_length = 6 ahead), then LRU gives up P1 and P2,
    # which return with their recycled predictions
    result = run_adversary("lru", AdversaryConfig(k=3, j=2, num_phases=10))
    assert result.trace.requests[:6] == ("P1", "P2", "P3", "Q0", "P1", "P2")
    assert result.trace.predictions[:6] == (7.0, 8.0, 9.0, 10.0, 7.0, 8.0)
    assert result.trace.n == 10 * 6
    # only P1 and P2's step-1 predictions are invalidated, by 2 each
    assert result.phases[0].eta == 4.0


def test_recycled_predictions_match_previous_request():
    config = AdversaryConfig(k=4, j=3, num_phases=6)
    result = run_adversary("blind_oracle", config)
    trace = result.trace
    plen = config.phase_length
    last: dict[str, float] = {}
    for t in range(trace.n):
        page = trace.requests[t]
        if t % plen >= plen - config.j:  # adaptive step of the phase
            assert trace.predictions[t] == last[page]
        last[page] = trace.predictions[t]


@pytest.mark.parametrize("policy", ["lru", "blind_oracle", "ftl"])
@pytest.mark.parametrize("k,j", [(3, 1), (3, 2), (5, 3), (5, 4)])
def test_every_phase_costs_at_least_j_plus_one(policy, k, j):
    config = AdversaryConfig(k=k, j=j, num_phases=8)
    result = run_adversary(policy, config)
    assert all(p.alg_cost >= j + 1 for p in result.phases)
    assert result.opt_cost <= 2 * config.num_phases
    assert certify_lower_bound(result).passed


def test_lru_phase_error_stays_within_budget():
    for k, j in [(3, 2), (5, 3), (8, 7)]:
        result = run_adversary("lru", AdversaryConfig(k=k, j=j, num_phases=8))
        assert all(p.eta <= p.eta_upper_bound for p in result.phases)


def test_degenerate_j_zero():
    config = AdversaryConfig(k=4, j=0, num_phases=5)
    result = run_adversary("lru", config)
    assert result.trace.n == 5 * (4 + 1)
    assert all(p.alg_cost >= 1 for p in result.phases)
    record = certify_lower_bound(result)
    assert record.passed  # requirement degenerates to num_phases


def test_scaling_over_phases():
    single = run_adversary("lru", AdversaryConfig(k=3, j=2, num_phases=1))
    many = run_adversary("lru", AdversaryConfig(k=3, j=2, num_phases=10))
    assert many.alg_cost >= 10 * 3
    assert many.opt_cost <= 20
    assert single.alg_cost >= 3


def test_replayed_trace_reproduces_evictions():
    config = AdversaryConfig(k=4, j=2, num_phases=4)
    result = run_adversary("blind_oracle", config)
    rerun = run_policy("blind_oracle", result.trace, config.k)
    assert rerun.cost == result.alg_cost


def test_adversary_runs_are_freed_without_the_cycle_collector():
    made = []

    def factory():
        policy = make_policies(("ftl",), 3)["ftl"]
        made.extend(weakref.ref(run) for run in (policy, *policy.experts))
        return policy

    gc.disable()
    try:
        run_adversary(factory, AdversaryConfig(k=3, j=2, num_phases=2))
        assert len(made) == 6 and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_generated_trace_survives_the_file_format():
    from predcache import parse_trace, write_trace

    result = run_adversary("lru", AdversaryConfig(k=3, j=2, num_phases=3))
    assert parse_trace(write_trace(result.trace)) == result.trace


def test_combined_policy_certificate_over_many_phases():
    result = run_adversary("ftl", AdversaryConfig(k=5, j=4, num_phases=20))
    record = certify_lower_bound(result)
    assert record.passed
    assert result.alg_cost >= 20 * 5


class _ByRule(Policy):
    """A policy whose victim on a full-cache miss is ``self.rule()``."""

    def _steps(self):
        cache, k = self.cache, self.k
        evicted = None
        while True:
            t, page, _ = yield evicted
            evicted = None
            if page in cache:
                del cache[page]
            elif len(cache) >= k:
                evicted = self.rule()
                del cache[evicted]
                self.cost += 1
            cache[page] = t


class _FlipFlop(_ByRule):
    """Deterministic per instance, but alternate instances disagree."""

    instances = 0

    def __init__(self, k):
        type(self).instances += 1
        self.flavor = type(self).instances % 2
        super().__init__(k)

    def rule(self):
        pages = list(self.cache)  # least recent first
        return pages[0] if self.flavor else pages[-1]


def test_nondeterministic_policy_detected():
    with pytest.raises(NondeterministicPolicyError):
        run_adversary(lambda: _FlipFlop(3), AdversaryConfig(k=3, j=2, num_phases=2))


class _Q0Hoarder(_ByRule):
    """LRU that refuses to evict Q0, forcing the fallback branch."""

    def rule(self):
        return next(page for page in self.cache if page != "Q0")


def test_fallback_requests_an_absent_p_page():
    config = AdversaryConfig(k=3, j=2, num_phases=4)
    result = run_adversary(lambda: _Q0Hoarder(3), config)
    assert result.trace.n == 4 * config.phase_length
    # from the second phase on, Q0 is a hit, so the adaptive step starts at a
    # fallback page, which must be one of the P pages
    plen = config.phase_length
    step3_pages = {
        result.trace.requests[t0 + plen - 2] for t0 in range(plen, result.trace.n, plen)
    }
    assert step3_pages <= {"P1", "P2", "P3"}
    assert all(p.alg_cost >= 3 for p in result.phases)
    # the hoarder's victim rule was the one served: replayed, it never evicts Q0
    victims = serve_all(_Q0Hoarder(3), result.trace.requests, result.trace.predictions)
    assert "Q0" in result.trace.requests and "Q0" not in victims


def test_fallback_page_helper_defaults_to_first():
    policy = LRU(3)
    for t, page in enumerate(["P1", "P2", "P3"], start=1):
        policy.serve(t, page, 0.0)
    assert _fallback_page(["P1", "P2", "P3"], policy) == "P1"
    policy.serve(4, "Q0", 0.0)  # evicts P1
    assert _fallback_page(["P1", "P2", "P3"], policy) == "P1"
