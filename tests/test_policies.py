import gc
import random
import weakref
from collections import Counter
from heapq import heapify
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

import predcache.policies

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
    Policy,
    Trace,
    WorkloadSpec,
    count_inversions_fast,
    make_policies,
    next_arrivals,
    perturb_predictions,
    simulate,
    synthesize,
)
from predcache.policies import online
from oracles import (
    RefBelady,
    RefBlindOracle,
    RefFtl,
    RefLRU,
    RefMarker,
    RefMw,
    brute_force_opt,
    count_inversions_fenwick,
    potential,
    ref_policy,
    request_runs,
    run_policy,
    send_all,
    serve_all,
)

pages = st.lists(st.sampled_from("abcde"), min_size=1, max_size=14)


def _trace(requests, predictions=None):
    if predictions is None:
        predictions = [float(v) for v in next_arrivals(list(requests))]
    return Trace(list(requests), predictions)


# ---------------------------------------------------------------- cost model


def test_hit_keeps_cache_and_updates_entry():
    p = BlindOracle(2)
    serve = online(p)
    assert send_all(serve, "ab", [10.0, 20.0]) == [None, None]
    assert serve(3, "a", 30.0) is None
    # the hit moves a to the most recent end with its new last request
    assert list(p.cache.items()) == [("b", 2), ("a", 3)]
    # and a's prediction is now 30, beyond b's 20 (with the old 10, b would go)
    assert serve(4, "c", 1.0) == "a"


def test_cold_fill_does_not_evict():
    p = LRU(2)
    serve = online(p)
    serve(1, "a", 1.0)
    assert serve(2, "b", 2.0) is None
    assert list(p.cache.items()) == [("a", 1), ("b", 2)]


def test_full_miss_evicts_exactly_one():
    p = LRU(2)
    serve = online(p)
    send_all(serve, "ab", [1.0, 2.0])
    victim = serve(3, "c", 3.0)
    assert victim in {"a", "b"}
    assert len(p.cache) == 2
    assert victim not in p.cache
    assert p.cache["c"] == 3


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        LRU(0)


# ---------------------------------------------------------------- victim rules


def test_blind_oracle_evicts_furthest_prediction():
    serve = online(BlindOracle(2))
    send_all(serve, "ab", [10.0, 5.0])
    assert serve(3, "c", 1.0) == "a"


def test_blind_oracle_breaks_ties_by_least_recent():
    serve = online(BlindOracle(2))
    send_all(serve, "ab", [5.0, 5.0])
    assert serve(3, "c", 1.0) == "a"

    serve = online(BlindOracle(3))
    send_all(serve, "abc", [3.0, 7.0, 7.0])
    assert serve(4, "d", 1.0) == "b"


def test_repeated_request_index_returns_the_stored_answer():
    # one run as both experts is asked twice per index; only the first read
    # serves, the second is answered with the victim it yielded
    p = LRU(1)
    ftl = FtlCombiner(p, p)
    serve = online(ftl)
    serve(1, "a", 0.0)
    assert serve(2, "b", 0.0) == "a"
    assert p.cost == 1
    assert p.cache == {"b": 2}
    assert ftl.cost == 1


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_policy_answers_a_repeated_index_from_its_store(name):
    # each policy as both experts of one combiner, under either driver: it
    # serves every index once and both reads get its one victim, so its
    # victims, caches, costs and RNG draws are those of the policy alone,
    # simulated.  online takes only a run built without the trace (belady
    # has no such run)
    trace = synthesize(
        WorkloadSpec("uniform", universe=6, length=200),
        NoiseSpec("additive_uniform", width=3.0),
        seed=4,
    )

    def build(over=trace):
        return make_policies((name,), 3, over, seed=4, epsilon=0.1)[name]

    def state(policy):
        runs = (policy, *policy.experts)
        return [
            (dict(run.cache), run.cost, run.rng.getstate() if hasattr(run, "rng") else None)
            for run in runs
        ]

    alone = build()
    victims = _simulated([alone], trace)[alone]
    assert alone.cost > 0
    served = list(enumerate(trace.requests, start=1))
    for drive in ("online", "simulate")[name == "belady":]:
        policy = build(None if drive == "online" else trace)
        pair = FtlCombiner(policy, policy)
        recorders = _record([pair])
        if drive == "online":
            _served(pair, trace)
            assert recorders[policy].victims == victims, drive
            assert [sent[2:] for sent in recorders[pair].sent] == list(zip(victims, victims))
        else:
            simulate(trace.requests, [pair])
            assert policy.victims == victims, drive  # kept: the pair reads them
        # every body is sent every index once, except that simulate serves a
        # combiner's body only from its switches (the pair never switches)
        for run, recorder in recorders.items():
            if drive == "online" or not run.experts:
                assert [sent[:2] for sent in recorder.sent] == served, (drive, run.name)
        assert state(policy) == state(alone), drive
        assert pair.cost == alone.cost, drive
        assert list(pair.cache.items()) == list(alone.cache.items()), drive


def test_simulate_serves_every_distinct_run_once_per_request():
    # ftl and mw share the blind_oracle row, ftl the lru row and mw the
    # marker row; a run listed twice is still one run
    trace = synthesize(
        WorkloadSpec("uniform", universe=6, length=200),
        NoiseSpec("additive_uniform", width=3.0),
        seed=4,
    )
    runs = make_policies(POLICY_NAMES, 3, trace, seed=4, epsilon=0.1)
    assert runs["blind_oracle"].keys is trace.predictions
    assert runs["belady"].keys is trace.arrivals
    recorders = _record(runs.values())
    assert len(recorders) == len(POLICY_NAMES)
    # a pair over each combiner keeps its victims
    readers = [FtlCombiner(runs[name], runs[name]) for name in ("ftl", "mw")]
    simulate(trace.requests, [*runs.values(), runs["ftl"], *readers])
    served = list(enumerate(trace.requests, start=1))
    for run, recorder in recorders.items():
        if run.experts:  # served in stretches, not through its body
            victims = run.victims
            assert len(victims) == trace.n, run.name
        else:
            assert [sent[:2] for sent in recorder.sent] == served, run.name
            # each request's key is the run's own: none, predictions or arrivals
            keys = [None] * trace.n if run.keys is None else list(run.keys)
            assert [sent[2] for sent in recorder.sent] == keys, run.name
            victims = recorder.victims
        assert run.cache, run.name
        assert run.cost == sum(v is not None for v in victims) > 0, run.name


def test_simulate_serves_a_run_once_and_only_over_its_requests():
    # two cells over the same requests share the lru run through one dict;
    # one call serves it once, and its victims feed both combiners
    trace = _trace("abcabdabeabfa")
    renoised = trace.renoised(tuple(reversed(trace.predictions)))
    shared = {}
    first = make_policies(("lru", "ftl"), 2, trace, shared=shared)
    second = make_policies(("lru", "ftl"), 2, renoised, shared=shared)
    assert second["lru"] is first["lru"] and second["ftl"] is not first["ftl"]
    simulate(trace.requests, [*first.values(), *second.values()])
    for cell, runs in ((trace, first), (renoised, second)):
        alone = make_policies(("ftl",), 2, cell)["ftl"]
        simulate(cell.requests, [alone])
        assert runs["ftl"].cost == alone.cost
        assert runs["ftl"].experts[0].victims == alone.experts[0].victims
        assert runs["lru"].cost == alone.experts[1].cost

    # a served run is not served again, over its requests or others, alone
    # or under a new combiner; the refused call serves nothing
    lru_cost = first["lru"].cost
    other = _trace("abcabdabeabfb")
    for requests in (trace.requests, other.requests):
        fresh = make_policies(("ftl",), 2, renoised, shared=shared)["ftl"]
        for runs in ([first["lru"]], [first["ftl"]], [fresh]):
            with pytest.raises(ValueError, match="served already"):
                simulate(requests, runs)
        assert not fresh.cache and not fresh.experts[0].cache
    assert first["lru"].cost == lru_cost

    # a run built without the keys it reads is refused, alone or as an expert;
    # a belady run cannot be built without its trace, and is refused over
    # other requests of the same length
    for keyless in (BlindOracle(2), make_policies(("ftl",), 2)["ftl"]):
        with pytest.raises(ValueError, match="the blind_oracle run has 0 keys for"):
            simulate(trace.requests, [keyless])
    with pytest.raises(TypeError, match="trace"):
        Belady(2)
    belady = make_policies(("belady",), 2, trace)["belady"]
    for runs in ([belady], [FtlCombiner(belady, LRU(2))]):
        with pytest.raises(ValueError, match="the belady run was built over other requests"):
            simulate(other.requests, runs)
    assert not belady.cache
    simulate(list(trace.requests), [belady])  # a list of the same requests is the same
    assert belady.cost == run_policy("belady", trace, 2).cost


def test_simulate_refuses_a_run_driven_by_serve():
    # lru sent a b c online would serve a b c a b c on from that cache at
    # cost 7, where a fresh run pays 4, as one simulated over no requests
    # does.  Each run has served a b c online, itself or (ftl) through its
    # lru expert; the refused call serves nothing
    trace = _trace("abcabc")
    fresh = LRU(2)
    simulate([], [fresh])
    simulate(trace.requests, [fresh])
    assert fresh.cost == 4
    ftl = make_policies(("ftl",), 2, trace)["ftl"]
    lru, keyless = LRU(2), BlindOracle(2)
    for run in (lru, keyless, ftl.experts[1]):
        send_all(online(run), "abc", trace.predictions)
    for run in (lru, keyless, ftl):
        costs = [served.cost for served in (run, *run.experts)]
        with pytest.raises(ValueError, match="served already"):
            simulate(trace.requests, [run])
        assert [served.cost for served in (run, *run.experts)] == costs, run.name


def test_simulate_refuses_keys_that_are_not_one_per_request():
    # served over the trace twice, belady would read its 10 keys and stop
    # (5 evictions where 11 is right), lru would serve all 20 requests, and
    # ftl would scan its 10-entry victims as if they covered 20
    trace = Trace(list("abcabcabcd"), range(10))
    runs = make_policies(("belady", "lru", "ftl"), 2, trace)
    for listed in (runs.values(), [runs["ftl"]]):
        with pytest.raises(ValueError, match="10 keys for 20 requests"):
            simulate(trace.requests * 2, listed)
    assert not any(run.cache or run.cost for run in (*runs.values(), *runs["ftl"].experts))
    simulate(trace.requests, runs.values())
    assert runs["belady"].cost == run_policy("belady", trace, 2).cost


def _snapshot(run):
    """A run's and its experts' costs, caches, keys and RNG states, in order.

    The keys are copied to a list, so a trace's keys compare equal to those
    a keyless run appended.
    """
    return [
        (served.cost, list(served.cache.items()),
         None if served.keys is None else list(served.keys),
         served.rng.getstate() if hasattr(served, "rng") else None)
        for served in (run, *run.experts)
    ]


def test_send_drives_each_online_shape_as_simulate_does():
    # the shapes make_policies builds without a trace, the ones online takes,
    # sent each request in order: each evicts what the run built over the
    # trace evicts under simulate, and ends with its costs, ordered caches,
    # keys (a keyless blind_oracle's are the predictions it was sent) and
    # RNG states, its experts' included
    trace = synthesize(
        WorkloadSpec("uniform", universe=8, length=300),
        NoiseSpec("additive_uniform", width=6.0),
        seed=3,
    )
    for name in ("lru", "marker", "blind_oracle", "ftl", "mw"):
        run = make_policies((name,), 3, seed=3, epsilon=0.1)[name]
        victims = send_all(online(run), trace.requests, trace.predictions)
        batch = make_policies((name,), 3, trace, seed=3, epsilon=0.1)[name]
        assert _simulated([batch], trace)[batch] == victims, name
        assert _snapshot(batch) == _snapshot(run), name
        assert run.cost > 0, name


def test_simulated_runs_are_freed_without_the_cycle_collector():
    # a run holds no body, so dropping the runs frees them by reference
    # counting alone
    trace = _trace("abcabdabeab")
    runs = make_policies(POLICY_NAMES, 2, trace, seed=1, epsilon=0.1)
    refs = [weakref.ref(run) for run in (*runs.values(), *runs["mw"].experts)]
    gc.disable()
    try:
        simulate(trace.requests, runs.values())
        assert all(ref().cache for ref in refs)
        del runs
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_online_refuses_a_served_run_and_a_run_over_a_trace():
    # online takes a fresh run built without a trace.  Each refusal names
    # the run and comes before any body starts: every cost, cache, key list
    # and RNG, the experts' included, is as it was
    trace = _trace("abcabdab", [5.0, 2.0, 7.0, 1.0, 9.0, 3.0, 4.0, 8.0])
    served = LRU(2)
    simulate(trace.requests, [served])
    runs = make_policies(("belady", "blind_oracle", "ftl"), 2, trace)
    for run, message in (
        (served, "the lru run was served already"),
        (runs["blind_oracle"], "the blind_oracle run was built over a trace"),
        (runs["ftl"], "the blind_oracle run was built over a trace"),
        (runs["belady"], "the belady run was built over a trace"),
    ):
        before = _snapshot(run)
        with pytest.raises(ValueError, match=message):
            online(run)
        assert _snapshot(run) == before, run.name


def test_only_a_driver_starts_a_body(monkeypatch):
    # building a run starts no body.  simulate starts one per run it serves
    # through its body, and one per switch a combiner takes at phi = 0 (its
    # stretches serve the rest); online starts one per distinct run
    trace = synthesize(
        WorkloadSpec("uniform", universe=6, length=300),
        NoiseSpec("random_replace", prob=1.0, limit=600.0),
        seed=2,
    )
    switches = {}  # each combiner's switches at phi = 0, counted online
    for name in ("ftl", "mw"):
        run = make_policies((name,), 3, seed=2, epsilon=0.2)[name]
        serve, switches[name] = online(run), 0
        for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
            followed, phi = run.followed, potential(run)
            serve(t, page, h)
            switches[name] += phi == 0 and run.followed != followed
    assert min(switches.values()) > 4
    started = Counter()
    start = Policy._start

    def spied(self):
        started[self] += 1
        return start(self)

    monkeypatch.setattr(Policy, "_start", spied)
    runs = make_policies(POLICY_NAMES, 3, trace, seed=2, epsilon=0.2)
    assert not started
    simulate(trace.requests, runs.values())
    assert dict(started) == {run: switches.get(name, 1) for name, run in runs.items()}
    shared = LRU(3)
    online_names = ("lru", "marker", "blind_oracle", "ftl", "mw")
    for run in (
        *make_policies(online_names, 3, seed=2, epsilon=0.2).values(),
        FtlCombiner(shared, shared),
    ):
        started.clear()
        online(run)
        assert dict(started) == dict.fromkeys((run, *run.experts), 1), run.name


def test_lru_evicts_least_recent():
    serve = online(LRU(2))
    send_all(serve, "ab", [0.0, 0.0])
    assert serve(3, "c", 0.0) == "a"

    assert send_all(online(LRU(3)), "abcad", [0.0] * 5)[-1] == "b"

    assert send_all(online(LRU(2)), "abac", [0.0] * 4)[-1] == "b"


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


EXACT_NOISES = (
    NoiseSpec("perfect"),
    NoiseSpec("additive_uniform", width=0.0),
    NoiseSpec("constant_shift", shift=0.0),
)


@st.composite
def tie_heavy_exact_traces(draw):
    """Up to 150 requests over up to 14 pages, predicted by a noise model of no noise.

    Every page's last request keys n+1, so the pages tie there."""
    requests = draw(request_runs(draw(st.integers(1, 14)), 15, 10))
    noise = draw(st.sampled_from(EXACT_NOISES))
    seed = draw(st.integers(0, 2**63 - 1))
    return Trace(
        requests, perturb_predictions(next_arrivals(requests), noise, seed)
    )


@settings(max_examples=300, deadline=None)
@given(tie_heavy_exact_traces(), st.integers(1, 8))
def test_blind_oracle_equals_belady_on_true_arrivals(trace, k):
    # why an exact cell's blind_oracle is its belady run, with no inversions
    assert trace.predictions == trace.arrivals
    belady = Belady(k, trace)
    assert send_all(online(BlindOracle(k)), trace.requests, trace.predictions) == _simulated(
        [belady], trace
    )[belady]
    assert count_inversions_fast(trace) == 0
    assert count_inversions_fenwick(trace.arrivals, trace.predictions) == 0


# ---------------------------------------------------------------- marker


def test_marker_phase_reset_draws_from_previous_phase():
    seen = set()
    for seed in range(20):
        p = Marker(2, random.Random(seed))
        evicted = send_all(online(p), "abc", [0.0] * 3)
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
        serve = online(p)
        victim = send_all(serve, "abcd", [0.0] * 4)[-1]
        first, last = [page for page in "abc" if page != victim]
        serve(5, first, 0.0)
        assert p.unmarked == [last]
        assert serve(6, "e", 0.0) == last


def test_marker_requested_page_ends_marked():
    p = Marker(3, random.Random(1))
    send_all(online(p), "abcb", [0.0] * 4)
    assert "b" in p.cache and p.unmarked == []
    for seed in range(10):
        p = Marker(3, random.Random(seed))
        serve = online(p)
        send_all(serve, "abcd", [0.0] * 4)  # new phase: two of a, b, c unmarked
        page = p.unmarked[1]
        serve(5, page, 0.0)
        assert page in p.cache and page not in p.unmarked
        assert len(p.unmarked) == 1


def test_marker_deterministic_for_fixed_seed():
    trace = _trace([f"p{i % 5}" for i in range(100)])
    a = run_policy("marker", trace, k=4, seed=42)
    b = run_policy("marker", trace, k=4, seed=42)
    assert a.cost == b.cost

    def victims(seed):
        return send_all(online(Marker(4, random.Random(seed))), trace.requests, trace.predictions)

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


def test_cost_equals_eviction_count():
    trace = synthesize(
        WorkloadSpec("uniform", universe=12, length=300),
        NoiseSpec("additive_uniform", width=3.0),
        seed=5,
    )
    policy = BlindOracle(4)
    victims = send_all(online(policy), trace.requests, trace.predictions)
    assert policy.cost == sum(v is not None for v in victims)
    assert run_policy("blind_oracle", trace, k=4).cost == policy.cost


class _Invariants:
    """Stands in for each body its run starts: checks the cache after each request.

    ``started`` stands in for the run's ``_start``, so the checks watch
    either driver.
    """

    def __init__(self, run):
        self.start, self.run, self.distinct = run._start, run, set()

    def started(self):
        self.steps = self.start()
        return self

    def send(self, item):
        t, page = item[:2]
        cache, k, name = self.run.cache, self.run.k, self.run.name
        was_resident, was_full = page in cache, len(cache) == k
        victim = self.steps.send(item)
        self.distinct.add(page)
        assert len(cache) <= k, name
        assert len(cache) == min(k, len(self.distinct)), name
        assert cache[page] == t, name
        assert list(cache.values()) == sorted(cache.values()), name
        if victim is not None:
            assert not was_resident and was_full, name
            assert victim not in cache, name
        else:
            assert was_resident or not was_full, name
        return victim


@settings(max_examples=100, deadline=None)
@given(pages, st.integers(1, 3), st.integers(0, 5))
def test_capacity_and_eviction_invariants(requests, k, seed):
    trace = _trace(requests)
    costs = {}
    for name in POLICY_NAMES:
        # built alone, so no expert is shared with a run served earlier;
        # belady, which online does not take, is checked under simulate
        over = trace if name == "belady" else None
        policy = make_policies((name,), k, over, seed=seed, epsilon=0.1)[name]
        checks = _Invariants(policy)
        policy._start = checks.started
        if over is None:
            send_all(online(policy), requests, trace.predictions)
        else:
            simulate(requests, [policy])
        assert checks.distinct == set(requests), name
        costs[name] = policy.cost
    # belady is the offline optimum: no policy evicts less on the same trace
    assert all(costs["belady"] <= cost for cost in costs.values())


# ---------------------------------------------------------------- differential


class _Recorder:
    """Stands in for each body its run starts: forwards each send, recording it and its victim.

    ``started`` stands in for the run's ``_start``, so it records under
    either driver.
    After every send it checks the run's heaps (the key heap of blind_oracle
    and belady, the combiners' outside heaps): rebuilt once past 2k, they
    never hold more.
    """

    def __init__(self, run):
        self.start, self.run = run._start, run
        self.sent, self.victims = [], []

    def started(self):
        self.steps = self.start()
        return self

    def send(self, item):
        victim = self.steps.send(item)
        self.sent.append(item)
        self.victims.append(victim)
        _assert_heaps_bounded(self.run)
        return victim


def _assert_heaps_bounded(run):
    for heap in (*getattr(run, "_outside", ()), getattr(run, "_heap", ())):
        assert len(heap) <= 2 * run.k, run.name


def _record(runs):
    """Put a _Recorder in place of the bodies of every run and expert; run -> recorder."""
    recorders = {}

    def wrap(run):
        if run not in recorders:
            recorders[run] = _Recorder(run)
            run._start = recorders[run].started
            for expert in run.experts:
                wrap(expert)

    for run in runs:
        wrap(run)
    return recorders


def _simulated(runs, trace):
    """Each run's and expert's victims under ``simulate``.

    A policy's body must be sent every request once.  A combiner is served in
    stretches, its body only from each switch, so a pair combiner over it
    makes ``simulate`` keep its victims; its heaps are checked at the end.
    """
    recorders = _record(runs)
    readers = [FtlCombiner(run, run) for run in runs if run.experts]
    simulate(trace.requests, [*runs, *readers])
    served = list(enumerate(trace.requests, start=1))
    victims = {}
    for run, recorder in recorders.items():
        if run.experts:
            _assert_heaps_bounded(run)
            victims[run] = run.victims
        else:
            assert [sent[:2] for sent in recorder.sent] == served, run.name
            victims[run] = recorder.victims
        assert len(victims[run]) == trace.n, run.name
    return victims


def _served(run, trace):
    """The run's victims when ``online`` drives it one request at a time."""
    serve, victims = online(run), []
    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        victims.append(serve(t, page, h))
        for served in (run, *run.experts):
            _assert_heaps_bounded(served)
    return victims


def _assert_same_victims(trace, k, seed=0):
    # three sequences agree: sent online (built without the trace; belady
    # has no such run), the victims simulate hands on (each policy built
    # alone, then all six from one builder call in both name orders, so
    # shared experts feed two combiners) and the reference
    def build(names, over=trace):
        return make_policies(names, k, over, seed=seed, epsilon=0.1)

    expected = {}
    for name in POLICY_NAMES:
        reference = ref_policy(name, k, trace.arrivals, seed=seed, epsilon=0.1)
        expected[name] = serve_all(reference, trace.requests, trace.predictions)
        if name != "belady":
            assert _served(build((name,), None)[name], trace) == expected[name], name
    for names in [(name,) for name in POLICY_NAMES] + [POLICY_NAMES, POLICY_NAMES[::-1]]:
        runs = build(names)
        victims = _simulated(runs.values(), trace)
        for name in names:
            assert victims[runs[name]] == expected[name], name
    # combiners over other expert pairs; each is served online with a keyless
    # blind_oracle fed the true arrivals in place of belady, which evicts the
    # same pages (test_blind_oracle_equals_belady_on_true_arrivals)
    arrivals, exact = trace.arrivals, trace.renoised(trace.arrivals)
    pairs = {
        "ftl(belady, marker)": (
            lambda belady: FtlCombiner(belady, Marker(k, random.Random(seed))),
            RefFtl(RefBelady(k, arrivals), RefMarker(k, random.Random(seed)), k),
        ),
        "mw(lru, belady)": (
            lambda belady: MwCombiner(LRU(k), belady, 0.1, random.Random(seed)),
            RefMw(RefLRU(k), RefBelady(k, arrivals), k, 0.1, random.Random(seed)),
        ),
        "ftl(lru, lru)": (
            lambda _: FtlCombiner(LRU(k), LRU(k)), RefFtl(RefLRU(k), RefLRU(k), k)
        ),
    }
    built = {name: make(Belady(k, trace)) for name, (make, _) in pairs.items()}
    victims = _simulated(built.values(), trace)
    for name, (make, reference) in pairs.items():
        reference_victims = serve_all(reference, trace.requests, trace.predictions)
        assert victims[built[name]] == reference_victims, name
        assert _served(make(BlindOracle(k)), exact) == reference_victims, name


@st.composite
def tie_heavy_traces(draw):
    """Up to 40 requests over at most 6 pages, predictions from a few integers,
    so keys tie often."""
    requests = draw(request_runs("abcdef", 5, 8))
    n = len(requests)
    predictions = draw(
        st.lists(st.sampled_from([0, 1, 2, 3, n + 1]), min_size=n, max_size=n)
    )
    return Trace(requests, predictions)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_traces(), st.integers(1, 5), st.integers(0, 3))
def test_victims_match_the_reference_rules(trace, k, seed):
    _assert_same_victims(trace, k, seed)


@pytest.mark.parametrize("k", [16, 24, 64])
def test_victims_match_the_reference_rules_at_larger_k(k):
    # long enough for many heap rebuilds and long marking phases
    for seed in range(3):
        rng = random.Random(seed)
        requests = [f"p{rng.randrange(2 * k)}" for _ in range(40 * k)]
        predictions = [rng.choice([1, 5, 9, len(requests) + 1]) for _ in requests]
        _assert_same_victims(Trace(requests, predictions), k, seed)


def _hit_heavy_trace(k, seed):
    """Three phases of a k-page working set, half of it new each phase.

    A phase is many times k requests, so the key heap fills and skips its
    pushes over hundreds of hits; the evictions at the next phase's start
    then rebuild it.  Each request's prediction differs from its page's last
    one, from a few values that tie often.
    """
    rng = random.Random(seed)
    phase_len = max(20 * k, 200)
    n = 3 * phase_len
    working, fresh = [], (f"p{i}" for i in count())
    requests, predictions, previous = [], [], {}
    for _ in range(3):
        working = rng.sample(working, len(working) // 2)
        working += [next(fresh) for _ in range(k - len(working))]
        for _ in range(phase_len):
            page = rng.choice(working)
            h = rng.choice([v for v in (1, 5, 9, n + 1) if v != previous.get(page)])
            requests.append(page)
            predictions.append(h)
            previous[page] = h
    return Trace(requests, predictions)


@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_victims_match_the_reference_rules_on_hit_heavy_phases(k):
    for seed in range(2):
        _assert_same_victims(_hit_heavy_trace(k, seed), k, seed)


def test_victims_match_the_reference_rules_when_the_cold_fill_fills_the_heap():
    # k=3: a b a b a b fill the heap to 2k, so the next a and the cold fill
    # of c skip their pushes, and the misses after them rebuild it
    requests = list("abababa") + list("cdedfcgd")
    predictions = [(7 * t) % 11 for t in range(len(requests))]
    _assert_same_victims(Trace(requests, predictions), 3)


def _scan_heavy_trace(k, seed):
    """Hit-heavy phases of a working set of k + 1 + k // 8 pages, and pages requested once.

    As in ``_hit_heavy_trace``, each of three phases is many times k
    requests over a working set half of which is new, and a page that leaves
    it is never requested again.  A working page's miss pops the key heap,
    which the hits in between fill to 2k, so it is rebuilt.  One request in
    eight is a page requested only there: the next miss evicts it first.
    """
    rng = random.Random(seed)
    phase_len = max(20 * k, 200)
    working, fresh, once = [], (f"p{i}" for i in count()), (f"once{i}" for i in count())
    requests = []
    for _ in range(3):
        working = rng.sample(working, len(working) // 2)
        working += [next(fresh) for _ in range(k + 1 + k // 8 - len(working))]
        for _ in range(phase_len):
            requests.append(next(once) if rng.random() < 0.125 else rng.choice(working))
    return _trace(requests)


@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_belady_victims_match_the_reference_with_many_never_again_pages(k, monkeypatch):
    # simulate evicts what RefBelady evicts, over many victims never
    # requested again, many that are, and key heaps rebuilt after hits
    rebuilt = []

    def spy(heap):
        rebuilt.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(predcache.policies, "heapify", spy)
    for seed in range(2):
        trace = _scan_heavy_trace(k, seed)
        expected = serve_all(RefBelady(k, trace.arrivals), trace.requests, trace.predictions)
        batch = Belady(k, trace)
        assert _simulated([batch], trace)[batch] == expected
        last = {page: t for t, page in enumerate(trace.requests, start=1)}
        gone = [last[v] < t for t, v in enumerate(expected, start=1) if v is not None]
        assert min(gone.count(True), gone.count(False)) > 20, (seed, gone.count(True))
    assert len(rebuilt) > 4 and max(rebuilt) <= k


def test_a_keyless_blind_oracle_reads_back_the_keys_it_was_sent():
    # driven online without keys, blind_oracle appends each key it is sent
    # and rebuilds its full heap from them
    for k in (1, 3, 8):
        trace = _hit_heavy_trace(k, seed=k)
        reference = serve_all(RefBlindOracle(k), trace.requests, trace.predictions)
        run = BlindOracle(k)
        serve, victims = online(run), []
        for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
            victims.append(serve(t, page, h))
            _assert_heaps_bounded(run)
            assert run.keys == list(trace.predictions[:t])
        assert victims == reference, k
        assert run.cost > k


# ---------------------------------------------------------------- inclusion across k

STACK_POLICIES = ("lru", "belady", "blind_oracle")


def _assert_inclusion(trace, k):
    """The cache at k stays inside the cache at k+1 after every request.

    lru, belady and blind_oracle evict by a priority that does not depend on
    k, so they are stack algorithms (Mattson et al. 1970); no reference
    implementation is needed.  Inclusion makes cost non-increasing in k: a
    miss at k+1 is a miss at k, and k+1 fills one slot more for free.  Each
    run is built without the trace and served online; belady is a keyless
    blind_oracle fed the true arrivals, which evicts what belady evicts
    (test_blind_oracle_equals_belady_on_true_arrivals).
    """
    for name in STACK_POLICIES:
        kind, keys = ("blind_oracle", trace.arrivals) if name == "belady" else (name, trace.predictions)
        small, large = (make_policies((kind,), size)[kind] for size in (k, k + 1))
        serve_small, serve_large = online(small), online(large)
        for t, (page, prediction) in enumerate(zip(trace.requests, keys), 1):
            serve_small(t, page, prediction)
            serve_large(t, page, prediction)
            assert small.cache.keys() <= large.cache.keys(), (name, t)
        assert small.cost >= large.cost, name


@st.composite
def tie_heavy_long_traces(draw):
    """Up to 120 requests over up to 12 pages, predictions from a few values.

    Drawn in runs: a handful of requests is too few for a page's older, larger
    key to go stale while the page stays resident and outrank the live keys.
    """
    requests = draw(request_runs(draw(st.integers(1, 12)), 15, 8))
    n = len(requests)
    predictions = draw(
        st.lists(st.sampled_from([0, 1, 2, 5, n // 2, n + 1]), min_size=n, max_size=n)
    )
    return Trace(requests, predictions)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_long_traces(), st.integers(1, 7))
def test_cache_at_k_stays_inside_cache_at_k_plus_one(trace, k):
    _assert_inclusion(trace, k)


def test_cache_at_64_stays_inside_cache_at_65():
    # long enough for many heap rebuilds at both sizes
    rng = random.Random(7)
    requests = [f"p{rng.randrange(128)}" for _ in range(40 * 64)]
    predictions = [rng.choice([1, 5, 9, len(requests) + 1]) for _ in requests]
    _assert_inclusion(Trace(requests, predictions), 64)


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
    policy = Belady(2, trace)
    assert _simulated([policy], trace)[policy] == [None, None, "b", None]
