import gc
import weakref

import pytest

import predcache.adversary

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
from predcache.policies import send
from oracles import run_policy, send_all


def _attack_with(monkeypatch, make_run):
    """Make the adversary build each run of the attacked name as ``make_run(k)``."""

    def builder(names, k, trace=None):
        runs = make_policies(names[1:], k, trace)
        runs[names[0]] = make_run(k)
        return runs

    monkeypatch.setattr(predcache.adversary, "make_policies", builder)


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
        run_adversary(lambda: LRU(3), AdversaryConfig(k=3, j=1))


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


def test_adversary_runs_are_freed_without_the_cycle_collector(monkeypatch):
    # ftl's online run and its two experts, then the batch ftl, its experts
    # and belady
    made = []

    def recording(*args, **kwargs):
        runs = make_policies(*args, **kwargs)
        made.extend(weakref.ref(run) for run in runs.values())
        return runs

    monkeypatch.setattr(predcache.adversary, "make_policies", recording)
    gc.disable()
    try:
        run_adversary("ftl", AdversaryConfig(k=3, j=2, num_phases=2))
        assert len(made) == 7 and all(ref() is None for ref in made)
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


def test_nondeterministic_policy_detected(monkeypatch):
    # the online run and the batch run are two instances, of opposite flavors
    _attack_with(monkeypatch, _FlipFlop)
    with pytest.raises(NondeterministicPolicyError, match="the lru run ended its trace"):
        run_adversary("lru", AdversaryConfig(k=3, j=2, num_phases=2))


def test_a_batch_run_that_disagrees_names_both_costs(monkeypatch):
    config = AdversaryConfig(k=3, j=2, num_phases=2)
    online = run_adversary("blind_oracle", config)
    batch = run_policy("lru", online.trace, config.k)
    assert batch.cost != online.alg_cost

    def builder(names, k, trace=None):
        runs = make_policies(names, k, trace)
        if trace is not None:  # the batch call: lru in place of blind_oracle
            runs[names[0]] = LRU(k)
        return runs

    monkeypatch.setattr(predcache.adversary, "make_policies", builder)
    message = (
        f"the blind_oracle run ended its trace at cost {online.alg_cost} online "
        f"and at cost {batch.cost} in a batch run"
    )
    with pytest.raises(NondeterministicPolicyError, match=message):
        run_adversary("blind_oracle", config)


class _Reordered(LRU):
    """LRU whose batch run ends with its cache in reverse order."""

    def _serve_trace(self, requests, keep):
        victims = super()._serve_trace(requests, keep)
        self.cache = dict(reversed(self.cache.items()))
        return victims


def test_a_batch_run_that_ends_in_another_cache_order_is_refused(monkeypatch):
    # same cost and pages: only the order of the cache tells the runs apart
    config = AdversaryConfig(k=3, j=2, num_phases=8)
    cost = run_adversary("lru", config).alg_cost
    _attack_with(monkeypatch, _Reordered)
    with pytest.raises(NondeterministicPolicyError, match=f"at cost {cost} online and at cost {cost}"):
        run_adversary("lru", config)


class _Q0Hoarder(_ByRule):
    """LRU that refuses to evict Q0, forcing the fallback branch."""

    def rule(self):
        return next(page for page in self.cache if page != "Q0")


def test_fallback_requests_an_absent_p_page(monkeypatch):
    _attack_with(monkeypatch, _Q0Hoarder)
    config = AdversaryConfig(k=3, j=2, num_phases=4)
    result = run_adversary("lru", config)
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
    victims = send_all(_Q0Hoarder(3), result.trace.requests, result.trace.predictions)
    assert "Q0" in result.trace.requests and "Q0" not in victims


@pytest.mark.parametrize("policy,phase", [("blind_oracle", 1), ("ftl", 2)])
def test_a_named_policy_reaches_the_fallback_after_a_q0_hit(policy, phase):
    # at k=3, j=2 these runs keep Q0 through that phase's round of P pages,
    # so the adaptive step after Q0 has no victim to pull back
    config = AdversaryConfig(k=3, j=2, num_phases=3)
    trace = run_adversary(policy, config).trace
    q0 = phase * config.phase_length + config.k + 1  # Q0's request index
    assert trace.requests[q0 - 1] == "Q0"
    run = make_policies((policy,), config.k)[policy]
    victims = send_all(run, trace.requests[:q0], trace.predictions[:q0])
    assert victims[-1] is None and len(run.cache) == config.k  # a hit
    absent = [page for page in ("P1", "P2", "P3") if page not in run.cache]
    assert trace.requests[q0] == absent[0] != "P1"


def test_fallback_page_helper_defaults_to_first():
    policy = LRU(3)
    for t, page in enumerate(["P1", "P2", "P3"], start=1):
        send(policy, t, page, 0.0)
    assert _fallback_page(["P1", "P2", "P3"], policy) == "P1"
    send(policy, 4, "Q0", 0.0)  # evicts P1
    assert _fallback_page(["P1", "P2", "P3"], policy) == "P1"
