import random

import pytest
from hypothesis import given, settings, strategies as st

from predcache import (
    Belady,
    BlindOracle,
    ConfigError,
    FtlCombiner,
    LRU,
    Marker,
    MwCombiner,
    NoiseSpec,
    POLICY_NAMES,
    Trace,
    WorkloadSpec,
    make_policies,
    next_arrivals,
    run_policy,
    synthesize,
)
from oracles import (
    RefBelady,
    RefFtl,
    RefLRU,
    RefMarker,
    RefMw,
    brute_force_opt,
    ref_policy,
    serve_all,
)

pages = st.lists(st.sampled_from("abcde"), min_size=1, max_size=14)


def _trace(requests, predictions=None):
    if predictions is None:
        predictions = [float(v) for v in next_arrivals(list(requests))]
    return Trace.from_requests(list(requests), predictions)


# ---------------------------------------------------------------- serve contract


def test_hit_keeps_cache_and_updates_entry():
    p = BlindOracle(2)
    assert serve_all(p, "ab", [10.0, 20.0]) == [None, None]
    assert p.serve(3, "a", 30.0) is None
    # the hit moves a to the most recent end with its new last request
    assert list(p.cache.items()) == [("b", 2), ("a", 3)]
    # and a's prediction is now 30, beyond b's 20 (with the old 10, b would go)
    assert p.serve(4, "c", 1.0) == "a"


def test_cold_fill_does_not_evict():
    p = LRU(2)
    p.serve(1, "a", 1.0)
    assert p.serve(2, "b", 2.0) is None
    assert list(p.cache.items()) == [("a", 1), ("b", 2)]


def test_full_miss_evicts_exactly_one():
    p = LRU(2)
    serve_all(p, "ab", [1.0, 2.0])
    victim = p.serve(3, "c", 3.0)
    assert victim in {"a", "b"}
    assert len(p.cache) == 2
    assert victim not in p.cache
    assert p.cache["c"] == 3


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        LRU(0)


# ---------------------------------------------------------------- victim rules


def test_blind_oracle_evicts_furthest_prediction():
    p = BlindOracle(2)
    serve_all(p, "ab", [10.0, 5.0])
    assert p.serve(3, "c", 1.0) == "a"


def test_blind_oracle_breaks_ties_by_least_recent():
    p = BlindOracle(2)
    serve_all(p, "ab", [5.0, 5.0])
    assert p.serve(3, "c", 1.0) == "a"

    p = BlindOracle(3)
    serve_all(p, "abc", [3.0, 7.0, 7.0])
    assert p.serve(4, "d", 1.0) == "b"


def test_repeated_request_index_returns_the_stored_answer():
    # a shared expert is asked once per combiner; only the first call serves
    p = LRU(1)
    p.serve(1, "a", 0.0)
    assert p.serve(2, "b", 0.0) == "a"
    assert p.serve(2, "b", 0.0) == "a"
    assert p.cost == 1
    assert p.cache == {"b": 2}


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_policy_answers_a_repeated_index_from_its_store(name):
    # each policy writes its own serve, so each keeps the rule: a repeat of
    # the last index, even for another page, changes nothing
    trace = synthesize(
        WorkloadSpec("uniform", universe=6, length=200),
        NoiseSpec("additive_uniform", width=3.0),
        seed=4,
    )
    policy = make_policies((name,), 3, arrivals=trace.arrivals, seed=4, epsilon=0.1)[name]

    def state():
        runs = (policy, *policy.experts)
        return [(repr(vars(run)), run.rng.getstate() if run.randomized else None) for run in runs]

    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        victim = policy.serve(t, page, h)
        before = state()
        assert policy.serve(t, "absent", 0.0) == victim
        assert state() == before
    assert policy.cost > 0


def test_lru_evicts_least_recent():
    p = LRU(2)
    serve_all(p, "ab", [0.0, 0.0])
    assert p.serve(3, "c", 0.0) == "a"

    p = LRU(3)
    assert serve_all(p, "abcad", [0.0] * 5)[-1] == "b"

    p = LRU(2)
    assert serve_all(p, "abac", [0.0] * 4)[-1] == "b"


def test_belady_runs():
    assert run_policy("belady", _trace("abca"), k=2).cost == 1
    assert run_policy("belady", _trace("abab"), k=2).cost == 0
    assert run_policy("belady", _trace("abcab"), k=2).cost == 2


def test_belady_example_matches_brute_force():
    assert brute_force_opt(list("abca"), 2) == 1
    assert brute_force_opt(list("abcab"), 2) == 2


@settings(max_examples=200, deadline=None)
@given(pages, st.integers(1, 4))
def test_belady_matches_exhaustive_minimum(requests, k):
    assert run_policy("belady", _trace(requests), k).cost == brute_force_opt(requests, k)


@settings(max_examples=100, deadline=None)
@given(pages, st.integers(1, 4))
def test_blind_oracle_equals_belady_on_true_arrivals(requests, k):
    trace = _trace(requests)
    assert run_policy("blind_oracle", trace, k).cost == run_policy("belady", trace, k).cost


# ---------------------------------------------------------------- marker


def test_marker_phase_reset_draws_from_previous_phase():
    seen = set()
    for seed in range(20):
        p = Marker(2, random.Random(seed))
        evicted = serve_all(p, "abc", [0.0] * 3)
        assert evicted[:2] == [None, None]
        assert evicted[2] in {"a", "b"}
        seen.add(evicted[2])
        # fresh phase: only the new page marked; the survivor is unmarked
        assert p.unmarked == [({"a", "b"} - {evicted[2]}).pop()]
        assert set(p.cache) - set(p.unmarked) == {"c"}
    assert seen == {"a", "b"}  # both outcomes occur across seeds


def test_marker_single_unmarked_page_is_forced():
    for seed in range(10):
        p = Marker(3, random.Random(seed))
        # d opens a phase and evicts one of a, b, c; a hit marks the first
        # survivor, so exactly one page is left unmarked
        victim = serve_all(p, "abcd", [0.0] * 4)[-1]
        first, last = [page for page in "abc" if page != victim]
        p.serve(5, first, 0.0)
        assert p.unmarked == [last]
        assert p.serve(6, "e", 0.0) == last


def test_marker_requested_page_ends_marked():
    p = Marker(3, random.Random(1))
    serve_all(p, "abcb", [0.0] * 4)
    assert "b" in p.cache and p.unmarked == []
    for seed in range(10):
        p = Marker(3, random.Random(seed))
        serve_all(p, "abcd", [0.0] * 4)  # new phase: two of a, b, c unmarked
        page = p.unmarked[1]
        p.serve(5, page, 0.0)
        assert page in p.cache and page not in p.unmarked
        assert len(p.unmarked) == 1


def test_marker_deterministic_for_fixed_seed():
    trace = _trace([f"p{i % 5}" for i in range(100)])
    a = run_policy("marker", trace, k=4, seed=42)
    b = run_policy("marker", trace, k=4, seed=42)
    assert a == b

    def victims(seed):
        return serve_all(Marker(4, random.Random(seed)), trace.requests, trace.predictions)

    assert victims(42) == victims(42)
    assert victims(42) != victims(43)


# ---------------------------------------------------------------- run_policy


def test_no_evictions_when_cache_fits_everything():
    trace = _trace("abcabcabc")
    for name in ("lru", "belady", "blind_oracle", "marker"):
        assert run_policy(name, trace, k=3, seed=1).cost == 0


def test_lru_on_cyclic_three_pages():
    # after the two cold fills every request misses: 3m - 2 evictions
    for m in (1, 2, 5):
        trace = _trace(list("abc") * m)
        assert run_policy("lru", trace, k=2).cost == 3 * m - 2


def test_run_result_seed_field():
    trace = _trace("abca")
    assert run_policy("lru", trace, 2, seed=9).seed == 0
    assert run_policy("marker", trace, 2, seed=9).seed == 9


def test_cost_equals_eviction_count():
    trace = synthesize(
        WorkloadSpec("uniform", universe=12, length=300),
        NoiseSpec("additive_uniform", width=3.0),
        seed=5,
    )
    policy = BlindOracle(4)
    victims = serve_all(policy, trace.requests, trace.predictions)
    assert policy.cost == sum(v is not None for v in victims)
    assert run_policy("blind_oracle", trace, k=4).cost == policy.cost


@settings(max_examples=100, deadline=None)
@given(pages, st.integers(1, 3), st.integers(0, 5))
def test_capacity_and_eviction_invariants(requests, k, seed):
    trace = _trace(requests)
    costs = {}
    for name in POLICY_NAMES:
        # built alone, so no expert is shared with a run served earlier
        policy = make_policies((name,), k, arrivals=trace.arrivals, seed=seed, epsilon=0.1)[name]
        distinct = set()
        for t, page in enumerate(requests, start=1):
            was_resident = page in policy.cache
            was_full = len(policy.cache) == k
            victim = policy.serve(t, page, trace.predictions[t - 1])
            distinct.add(page)
            assert len(policy.cache) <= k, name
            assert len(policy.cache) == min(k, len(distinct)), name
            assert policy.cache[page] == t, name
            assert list(policy.cache.values()) == sorted(policy.cache.values()), name
            if victim is not None:
                assert not was_resident and was_full, name
                assert victim not in policy.cache, name
            else:
                assert was_resident or not was_full, name
        costs[name] = policy.cost
    # belady is the offline optimum: no policy evicts less on the same trace
    assert all(costs["belady"] <= cost for cost in costs.values())


# ---------------------------------------------------------------- differential


def _serve_together(runs, trace):
    """Serve every run per request in dict order, as the CLI does; each run's victims.

    A run that is also another's expert answers the second serve of a request
    from its stored answer.  The key heaps of blind_oracle and belady and the
    combiners' heaps are checked after every serve: rebuilt once past 2k,
    they never hold more.
    """
    victims = {name: [] for name in runs}
    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        for name, run in runs.items():
            victims[name].append(run.serve(t, page, h))
            heaps = getattr(run, "_outside", ()) + tuple(
                expert._heap for expert in (run, *run.experts) if hasattr(expert, "_heap")
            )
            for heap in heaps:
                assert len(heap) <= 2 * run.k, name
    return victims


def _assert_same_victims(trace, k, seed=0):
    # each policy built alone, then all six from one builder call in both
    # name orders, so shared experts also answer from their stored answer
    for names in [(name,) for name in POLICY_NAMES] + [POLICY_NAMES, POLICY_NAMES[::-1]]:
        runs = make_policies(names, k, arrivals=trace.arrivals, seed=seed, epsilon=0.1)
        got = _serve_together(runs, trace)
        for name in names:
            reference = ref_policy(name, k, trace.arrivals, seed=seed, epsilon=0.1)
            assert got[name] == serve_all(reference, trace.requests, trace.predictions), name
    # combiners over other expert pairs
    arrivals = trace.arrivals
    pairs = {
        "ftl(belady, marker)": (
            FtlCombiner(Belady(k, arrivals), Marker(k, random.Random(seed)), k),
            RefFtl(RefBelady(k, arrivals), RefMarker(k, random.Random(seed)), k),
        ),
        "mw(lru, belady)": (
            MwCombiner(LRU(k), Belady(k, arrivals), k, 0.1, random.Random(seed)),
            RefMw(RefLRU(k), RefBelady(k, arrivals), k, 0.1, random.Random(seed)),
        ),
        "ftl(lru, lru)": (FtlCombiner(LRU(k), LRU(k), k), RefFtl(RefLRU(k), RefLRU(k), k)),
    }
    got = _serve_together({name: pair[0] for name, pair in pairs.items()}, trace)
    for name, (_, reference) in pairs.items():
        assert got[name] == serve_all(reference, trace.requests, trace.predictions), name


@st.composite
def tie_heavy_traces(draw):
    """At most 6 pages and predictions from a few integers, so keys tie often."""
    requests = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=40))
    n = len(requests)
    predictions = draw(
        st.lists(st.sampled_from([0, 1, 2, 3, n + 1]), min_size=n, max_size=n)
    )
    return Trace.from_requests(requests, predictions)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_traces(), st.integers(1, 5), st.integers(0, 3))
def test_victims_match_the_reference_rules(trace, k, seed):
    _assert_same_victims(trace, k, seed)


@pytest.mark.parametrize("k", [16, 64])
def test_victims_match_the_reference_rules_at_larger_k(k):
    # long enough for many heap rebuilds and long marking phases
    for seed in range(3):
        rng = random.Random(seed)
        requests = [f"p{rng.randrange(2 * k)}" for _ in range(40 * k)]
        predictions = [rng.choice([1, 5, 9, len(requests) + 1]) for _ in requests]
        _assert_same_victims(Trace.from_requests(requests, predictions), k, seed)


def test_make_policy_validation():
    with pytest.raises(ConfigError):
        make_policies(("belady",), 2)
    with pytest.raises(ConfigError):
        make_policies(("mw",), 2)
    with pytest.raises(ConfigError):
        make_policies(("unknown",), 2)


def test_belady_uses_arrival_of_last_request():
    # k=2, requests a b c a: at t=3 the cache holds a (returns at 4) and
    # b (never returns); b must go
    trace = _trace("abca")
    policy = Belady(2, trace.arrivals)
    evictions = serve_all(policy, trace.requests, trace.predictions)
    assert evictions == [None, None, "b", None]
