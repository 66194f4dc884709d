import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from predcache import (
    AdversaryConfig,
    Belady,
    BlindOracle,
    ConfigError,
    FtlCombiner,
    LRU,
    MwCombiner,
    NoiseSpec,
    Trace,
    WorkloadSpec,
    check_bounds,
    count_inversions_fast,
    ell1_loss,
    make_policies,
    next_arrivals,
    perturb_predictions,
    run_adversary,
    simulate,
    synthesize,
)
from oracles import check_potential, potential, request_runs, run_policy, serve_all


def _trace(requests, predictions=None):
    if predictions is None:
        predictions = [float(v) for v in next_arrivals(list(requests))]
    return Trace(list(requests), predictions)


def _sample_traces():
    yield "perfect", synthesize(
        WorkloadSpec("zipf", universe=40, length=1000, alpha=1.0), NoiseSpec("perfect"), seed=2
    )
    yield "noisy", synthesize(
        WorkloadSpec("uniform", universe=30, length=1000),
        NoiseSpec("additive_gaussian", sigma=8.0),
        seed=3,
    )
    yield "garbage", synthesize(
        WorkloadSpec("phased", universe=40, length=1200, cycle=10, phase_len=80),
        NoiseSpec("random_replace", prob=1.0, limit=2400.0),
        seed=4,
    )


def _costs(run):
    """The run's cost, then each expert's."""
    return (run.cost, *(expert.cost for expert in run.experts))


# ---------------------------------------------------------------- FTL


def test_leader_follows_strict_minimum_and_ties_keep_incumbent():
    # k=2, lru against blind_oracle on x y z x y x y with predictions
    # 1 9 1 9 9 1 1; each step lists (lru cost, blind_oracle cost, followed)
    a, b = LRU(2), BlindOracle(2)
    ftl = FtlCombiner(a, b)
    steps = []
    for t, (page, h) in enumerate(zip("xyzxyxy", [1.0, 9.0, 1.0, 9.0, 9.0, 1.0, 1.0]), start=1):
        ftl.serve(t, page, h)
        steps.append((a.cost, b.cost, ftl.followed))
    assert steps == [
        (0, 0, 0),
        (0, 0, 0),
        (1, 1, 0),  # z: both evict; the tie keeps the initial expert
        (2, 1, 1),  # x: only lru evicts; blind_oracle is the strict minimum
        (3, 2, 1),
        (3, 3, 1),  # x: only blind_oracle evicts; the tie keeps the incumbent
        (3, 4, 0),  # y: only blind_oracle evicts; lru is the strict minimum
    ]


def test_ftl_evicts_outside_leader_cache():
    # blind_oracle leads throughout: lru evicts as often, and a tie keeps the
    # incumbent.  Predictions a=10, b=3, c=9.
    leader, other = BlindOracle(2), LRU(2)
    ftl = FtlCombiner(leader, other)
    assert serve_all(ftl, "ab", [10.0, 3.0]) == [None, None]
    # own {a, b}, leader evicts a for c: own's least recent page a is outside
    assert ftl.serve(3, "c", 9.0) == "a"
    assert ftl.followed == 0 and list(leader.cache) == ["b", "c"]
    # own [b, c], leader evicts c for d: the least recent b is still held by
    # the leader, so it is passed over for c
    assert ftl.serve(4, "d", 1.0) == "c"
    assert ftl.followed == 0 and list(leader.cache) == ["b", "d"]
    assert other.cost == leader.cost == 2 and list(other.cache) == ["c", "d"]


def test_combiners_refuse_experts_of_another_capacity():
    # a combiner's k is its experts', so theirs must agree
    with pytest.raises(ConfigError, match="one k, got 3 and 2"):
        FtlCombiner(LRU(3), LRU(2))
    with pytest.raises(ConfigError, match="one k, got 2 and 4"):
        MwCombiner(LRU(2), BlindOracle(4), 0.1, random.Random(0))
    assert FtlCombiner(BlindOracle(3), LRU(3)).k == 3
    assert MwCombiner(BlindOracle(5), LRU(5), 0.1, random.Random(0)).k == 5


def test_identical_experts_reproduce_the_expert_exactly():
    trace = synthesize(
        WorkloadSpec("uniform", universe=25, length=800), NoiseSpec("perfect"), seed=9
    )
    expert = LRU(5)
    combined = FtlCombiner(expert, expert)
    simulate(trace.requests, [combined])
    alone = run_policy("lru", trace, k=5)
    a, b = combined.experts
    assert combined.cost == alone.cost == a.cost == b.cost
    victims = serve_all(LRU(5), trace.requests, trace.predictions)
    assert serve_all(FtlCombiner(LRU(5), LRU(5)), trace.requests, trace.predictions) == victims
    # one instance as both experts is served once per request
    shared = LRU(5)
    assert serve_all(FtlCombiner(shared, shared), trace.requests, trace.predictions) == victims
    assert shared.cost == combined.cost


@pytest.mark.parametrize("k", [2, 5, 9])
def test_ftl_within_twice_the_better_expert(k):
    for label, trace in _sample_traces():
        result = run_policy("ftl", trace, k)
        a, b = result.experts
        assert result.cost <= 2 * min(a.cost, b.cost) + 2 * k, label


def test_ftl_expert_costs_match_standalone_runs():
    trace = synthesize(
        WorkloadSpec("zipf", universe=50, length=600, alpha=0.9),
        NoiseSpec("additive_uniform", width=6.0),
        seed=12,
    )
    result = run_policy("ftl", trace, k=4)
    assert result.experts[0].cost == run_policy("blind_oracle", trace, 4).cost
    assert result.experts[1].cost == run_policy("lru", trace, 4).cost


def test_ftl_is_deterministic():
    trace = synthesize(
        WorkloadSpec("uniform", universe=20, length=500),
        NoiseSpec("additive_gaussian", sigma=4.0),
        seed=6,
    )
    a = run_policy("ftl", trace, 4)
    b = run_policy("ftl", trace, 4)
    assert _costs(a) == _costs(b)


# ---------------------------------------------------------------- MW update rule


def _excess(combiner):
    """The followed expert's evictions minus the other expert's."""
    a, b = (expert.cost for expert in combiner.experts)
    return b - a if combiner.followed else a - b


def test_mw_weights_step_by_step():
    # k=2, predictions a=5, b=9, c=1: at c both experts evict (blind_oracle
    # drops b, lru drops a); at b only blind_oracle misses.  Random(0) draws
    # 0.84 first, so lru is followed, and blind_oracle's lone eviction
    # lowers the excess without a draw.  Each step lists (blind_oracle cost,
    # lru cost, followed, excess).
    bo, lru = BlindOracle(2), LRU(2)
    combiner = MwCombiner(bo, lru, 0.1, random.Random(0))
    steps = []
    for t, (page, h) in enumerate(zip("abcb", [5.0, 9.0, 1.0, 1.0]), start=1):
        combiner.serve(t, page, h)
        steps.append((bo.cost, lru.cost, combiner.followed, combiner.excess))
        assert combiner.excess == _excess(combiner)
    assert steps == [(0, 0, 1, 0), (0, 0, 1, 0), (1, 1, 1, 0), (2, 1, 1, -1)]


def test_mw_epsilon_range_enforced():
    # the builder leaves the check to MwCombiner, whose range refuses None
    trace = _trace("abcabc")
    for eps in (0.0, 0.25, 0.3, -0.1, None):
        with pytest.raises(ConfigError, match="epsilon"):
            run_policy("mw", trace, 2, seed=0, epsilon=eps)
        with pytest.raises(ConfigError, match="epsilon"):
            MwCombiner(LRU(2), LRU(2), eps, random.Random(0))
    with pytest.raises(ConfigError, match="epsilon"):
        make_policies(("mw",), 2, trace)


# ---------------------------------------------------------------- MW combiner


def test_mw_weights_positive_nonincreasing_and_probabilities_normalized():
    # the weights (1-epsilon)**cost_i are carried as one integer, the excess
    trace = synthesize(
        WorkloadSpec("uniform", universe=30, length=600),
        NoiseSpec("additive_uniform", width=5.0),
        seed=8,
    )
    combiner = MwCombiner(BlindOracle(4), LRU(4), 0.1, random.Random(5))
    assert combiner.excess == 0
    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        combiner.serve(t, page, h)
        assert combiner.excess == _excess(combiner)


class _CountingRandom(random.Random):
    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def random(self):
        self.draws += 1
        return super().random()


class _StubRandom(random.Random):
    value = 0.5

    def random(self):
        return self.value


def test_mw_draws_only_when_the_followed_expert_alone_evicts():
    trace = synthesize(
        WorkloadSpec("zipf", universe=40, length=3000, alpha=0.8),
        NoiseSpec("additive_uniform", width=200.0),
        seed=14,
    )
    rng = _CountingRandom(2)
    bo, lru = BlindOracle(4), LRU(4)
    combiner = MwCombiner(bo, lru, 0.2, rng)
    assert rng.draws == 1
    kinds = {"followed alone": 0, "other alone": 0, "both": 0}
    switches = 0
    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        before = (bo.cost, lru.cost)
        followed, draws = combiner.followed, rng.draws
        combiner.serve(t, page, h)
        evicted = [bo.cost - before[0], lru.cost - before[1]]
        if evicted[followed] and not evicted[1 - followed]:
            kinds["followed alone"] += 1
            assert rng.draws == draws + 1, t
        else:
            if evicted[1 - followed]:
                kinds["both" if evicted[followed] else "other alone"] += 1
            assert rng.draws == draws, t
        switches += combiner.followed != followed
    # every kind of step occurs, and the followed expert changes
    assert min(kinds.values()) > 200 and switches > 1, (kinds, switches)
    assert combiner.excess == _excess(combiner)


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.2, 0.24])
def test_mw_switch_threshold_is_the_mass_lost(epsilon):
    keep = 1 - Fraction(epsilon)
    rng = _StubRandom()
    combiner = MwCombiner(LRU(2), LRU(2), epsilon, rng)
    other = 10
    for excess in range(-5, 6):
        # the followed expert's cost went from other + excess - 1 to other + excess
        before, after = keep ** (other + excess - 1), keep ** (other + excess)
        prior = before / (before + keep**other)
        posterior = after / (after + keep**other)
        threshold = float((prior - posterior) / prior)
        rng.value = threshold - 1e-12
        assert combiner._switch(excess), excess
        rng.value = threshold + 1e-12
        assert not combiner._switch(excess), excess


def test_mw_identical_experts_reproduce_the_expert():
    trace = synthesize(
        WorkloadSpec("zipf", universe=30, length=800, alpha=1.1), NoiseSpec("perfect"), seed=10
    )
    combiner = MwCombiner(LRU(4), LRU(4), 0.1, random.Random(3))
    evictions = []
    for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        if combiner.serve(t, page, h) is not None:
            evictions.append(t)
    alone = run_policy("lru", trace, 4)
    assert len(evictions) == alone.cost


def test_mw_deterministic_for_fixed_seed():
    trace = synthesize(
        WorkloadSpec("uniform", universe=25, length=500),
        NoiseSpec("additive_gaussian", sigma=6.0),
        seed=11,
    )
    a = run_policy("mw", trace, 5, seed=17, epsilon=0.1)
    b = run_policy("mw", trace, 5, seed=17, epsilon=0.1)
    assert _costs(a) == _costs(b)

    def victims(seed):
        mw = make_policies(("mw",), 5, seed=seed, epsilon=0.1)["mw"]
        return serve_all(mw, trace.requests, trace.predictions)

    assert victims(17) == victims(17)
    assert victims(17) != victims(18)


def test_mw_tracks_a_perfect_expert():
    # blind_oracle is optimal here, so the combined mean must stay within the
    # additive budget of it
    trace = synthesize(
        WorkloadSpec("uniform", universe=30, length=800), NoiseSpec("perfect"), seed=13
    )
    k, eps = 5, 0.2
    bo = run_policy("blind_oracle", trace, k).cost
    costs = [run_policy("mw", trace, k, seed=s, epsilon=eps).cost for s in range(100)]
    mean = statistics.fmean(costs)
    assert mean <= (1 + eps) * bo + 4 * k / eps


def test_mw_weight_rescale_keeps_running():
    # long enough that raw float weights would underflow
    requests = [f"p{i % 40}" for i in range(30_000)]
    rng = random.Random(0)
    rng.shuffle(requests)
    trace = _trace(requests, [0.0] * len(requests))
    result = run_policy("mw", trace, 3, seed=1, epsilon=0.2)
    assert result.cost > 0
    assert result.excess == _excess(result)


def test_mw_switch_rule_survives_a_large_negative_excess(monkeypatch):
    # blind_oracle is Belady on the cyclic part, where Marker evicts on nearly
    # every request, so the excess falls to about -8,345: far below -3181,
    # where 0.8**excess overflows a float.  In the tail the predictions are
    # worthless, so blind_oracle evicts alone and the rule is asked there.
    cyclic = synthesize(
        WorkloadSpec("cyclic", universe=4, length=30_000), NoiseSpec("perfect"), seed=1
    )
    rng = random.Random(0)
    tail = [f"p{rng.randrange(1, 5)}" for _ in range(200)]
    trace = _trace([*cyclic.requests, *tail], [*cyclic.predictions, *[0.0] * len(tail)])
    asked = []
    switch = MwCombiner._switch

    def recorded(self, excess):
        asked.append(excess)
        return switch(self, excess)

    monkeypatch.setattr(MwCombiner, "_switch", recorded)
    result = run_policy("mw", trace, 3, seed=1, epsilon=0.2)
    assert min(asked) < -8000
    assert result.excess == _excess(result) < -8000


# ---------------------------------------------------------------- stretches and potential


def _garbage_trace(requests, noise_seed):
    """The requests with every prediction redrawn (random_replace, prob 1)."""
    noise = NoiseSpec("random_replace", prob=1.0, limit=float(len(requests)))
    predictions = perturb_predictions(next_arrivals(requests), noise, noise_seed)
    return Trace(requests, predictions)


def _state(run):
    rng = run.rng.getstate() if hasattr(run, "rng") else None
    return run.cost, run.followed, run.excess, list(run.cache.items()), rng


def _assert_simulate_matches_serve(trace, k, seed):
    """ftl and mw alike under simulate and serve; each online run's switches.

    A pair combiner over each run makes simulate keep its victims.  The
    online run is built without the trace, as serve requires.  A switch
    taken at phi = 0 is listed as (request, first request of its stretch),
    the stretch being the requests since phi last became 0; one taken at
    phi > 0 is served by the body under both drivers and is not listed.
    """
    def build(name, over):
        return make_policies((name,), k, over, seed=seed, epsilon=0.24)[name]

    switches = {}
    for name in ("ftl", "mw"):
        batch, online = build(name, trace), build(name, None)
        reader = FtlCombiner(batch, batch)
        simulate(trace.requests, [reader])
        victims, switches[name] = [], []
        stretch = 1
        for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
            followed, phi = online.followed, potential(online)
            victims.append(online.serve(t, page, h))
            if online.followed != followed and phi == 0:
                switches[name].append((t, stretch))
            if potential(online):
                stretch = None
            elif stretch is None:
                stretch = t + 1
        assert batch.victims == victims, name
        assert _state(batch) == _state(online), name
        assert reader.cost == batch.cost, name
        assert list(reader.cache.items()) == list(batch.cache.items()), name
    return switches


# The last request of every trace switches at phi = 0 (under ftl for "bdcd",
# under mw for "abfa" and "aabg..."), and a switch comes on the first
# request of its stretch, right after the body handed back (under ftl at
# request 10 of "hhca...", under mw at request 19 of "aabg...").  No switch
# can come on request 1 of a trace: both experts start empty.
STRETCH_EDGES = [
    (list("bdcd"), 380, 2, 0),
    (list("abfa"), 400, 2, 2),
    (list("hhcahefhcae"), 313, 3, 1),
    (list("aabgeagadehebfechdc"), 58276, 3, 2),
]


def test_stretch_edges_switch_where_listed():
    switches = [_assert_simulate_matches_serve(_garbage_trace(r, s), k, seed)
                for r, s, k, seed in STRETCH_EDGES]
    assert (4, 1) in switches[0]["ftl"]
    assert switches[1]["mw"][-1][0] == 4
    assert (10, 10) in switches[2]["ftl"]
    assert (19, 19) in switches[3]["mw"]


@settings(max_examples=300, deadline=None)
@given(request_runs("abcdefgh", 6, 6), st.integers(0, 2**16), st.integers(1, 4), st.integers(0, 3))
@example(*STRETCH_EDGES[0])
@example(*STRETCH_EDGES[3])
def test_simulated_stretches_match_serve(requests, noise_seed, k, seed):
    # worthless predictions make blind_oracle a poor expert, so runs switch often
    _assert_simulate_matches_serve(_garbage_trace(requests, noise_seed), k, seed)


def _ftl_adversary_trace():
    """The adversary's trace against ftl: n = 1,600, about 200 switches at phi = 0."""
    return run_adversary("ftl", AdversaryConfig(k=8, j=7, num_phases=100)).trace


def test_simulated_stretches_match_serve_over_hundreds_of_switches():
    switches = _assert_simulate_matches_serve(_ftl_adversary_trace(), 8, 1)
    assert len(switches["ftl"]) > 200


class _CountedList(list):
    """A list that counts the items read from it, by iteration or by index."""

    reads = 0

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item

    def __getitem__(self, index):
        got = super().__getitem__(index)
        self.reads += len(got) if isinstance(index, slice) else 1
        return got


def test_combiner_reads_its_experts_victims_in_one_pass():
    # the scan or the body reads each request's two victims once, a switch's
    # replay its stretch's again, and counting the stretch that ends the
    # trace up to n more; a walk from the head per switch reads about 500
    # items per request here
    trace = _ftl_adversary_trace()
    probe, run = (make_policies(("ftl",), 8, trace)["ftl"] for _ in range(2))
    simulate(trace.requests, [probe])
    victims = [_CountedList(expert.victims) for expert in probe.experts]
    for expert, counted in zip(run.experts, victims):
        expert.victims = counted
    run._serve_trace(trace.requests, False)
    assert run.cost == probe.cost
    assert sum(v.reads for v in victims) <= 4 * len(trace.requests)


def _recording_start(run, sent):
    """Make each body ``run`` starts record the request of every item sent to it."""
    start = run._start

    def recording():
        steps = start()

        def body():
            evicted = None
            while True:
                item = yield evicted
                sent.append(item[0])
                evicted = steps.send(item)

        proxy = body()
        next(proxy)
        return proxy

    run._start = recording


@settings(max_examples=300, deadline=None)
@given(request_runs("abcdefgh", 6, 6), st.integers(0, 2**16), st.integers(1, 4), st.integers(0, 3))
@example(*STRETCH_EDGES[0])
@example(*STRETCH_EDGES[1])
@example(*STRETCH_EDGES[2])
@example(*STRETCH_EDGES[3])
def test_simulate_hands_back_to_stretches_once_phi_is_0(requests, noise_seed, k, seed):
    # simulate sends request t to a body exactly when the online run had
    # phi > 0 after request t-1, or switched at t
    trace = _garbage_trace(requests, noise_seed)
    for name in ("ftl", "mw"):
        batch, online = (
            make_policies((name,), k, over, seed=seed, epsilon=0.24)[name]
            for over in (trace, None)
        )
        sent = []
        _recording_start(batch, sent)
        simulate(trace.requests, [batch])
        expected = []
        for t, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
            followed, phi = online.followed, potential(online)
            online.serve(t, page, h)
            if phi or online.followed != followed:
                expected.append(t)
        assert sent == expected, name


@settings(max_examples=200, deadline=None)
@given(request_runs(12, 10, 8), st.integers(0, 2**16), st.integers(1, 6), st.integers(0, 3))
def test_combiners_pay_for_each_eviction_by_potential(requests, noise_seed, k, seed):
    trace = _garbage_trace(requests, noise_seed)
    for name in ("ftl", "mw"):
        run = make_policies((name,), k, seed=seed, epsilon=0.24)[name]
        check_potential(run, trace.requests, trace.predictions)


@pytest.mark.parametrize("name", ["ftl", "mw"])
def test_potential_holds_on_sample_and_golden_cells(name):
    # the golden sweep and uniform configs' cells, and the sample traces
    cells = [(label, trace, k) for label, trace in _sample_traces() for k in (2, 5, 9)]
    for seed in (1, 2):
        for workload, noise, k in (
            (WorkloadSpec("zipf", universe=60, length=600, alpha=1.0),
             NoiseSpec("additive_uniform", width=8.0), 8),
            (WorkloadSpec("uniform", universe=200, length=3000),
             NoiseSpec("additive_uniform", width=20.0), 64),
        ):
            cells.append((f"{workload.kind} seed {seed}", synthesize(workload, noise, seed), k))
    switched = 0
    for label, trace, k in cells:
        run = make_policies((name,), k, seed=1, epsilon=0.1)[name]
        _, _, switches = check_potential(run, trace.requests, trace.predictions)
        switched += switches > 0
    assert switched, name


# ---------------------------------------------------------------- builder


def test_make_policies_shares_experts_with_standalone_rows():
    runs = make_policies(
        ("lru", "belady", "blind_oracle", "marker", "ftl", "mw"),
        4,
        _trace("abc", [3.0, 1.0, 2.0]),
        seed=7,
        epsilon=0.1,
    )
    assert runs["ftl"].experts[0] is runs["blind_oracle"]
    assert runs["ftl"].experts[1] is runs["lru"]
    assert runs["mw"].experts[0] is runs["blind_oracle"]
    assert runs["mw"].experts[1] is runs["marker"]


def test_make_policies_returns_a_combiners_experts_by_name():
    # a caller that names only belady and a combiner gets every cost the
    # combiner's bounds read: its experts are returned under their names
    trace = synthesize(
        WorkloadSpec("zipf", universe=30, length=400, alpha=1.0),
        NoiseSpec("additive_uniform", width=4.0),
        seed=5,
    )
    eta = ell1_loss(trace.arrivals, trace.predictions)
    inversions = count_inversions_fast(trace)
    for combiner, other, bound_ids in (
        ("ftl", "lru", ("ftl_thm2", "cor1_det")),
        ("mw", "marker", ("mw_thm3", "cor2_rand")),
    ):
        runs = make_policies(("belady", combiner), 4, trace, seed=3, epsilon=0.1)
        assert list(runs) == ["belady", "blind_oracle", other, combiner]
        expert_a, expert_b = runs[combiner].experts
        assert expert_a is runs["blind_oracle"] and expert_b is runs[other]
        simulate(trace.requests, runs.values())
        costs = {name: run.cost for name, run in runs.items()}
        report = check_bounds(costs, costs.pop("belady"), eta, inversions, 4, 0.1)
        assert all(bound_id in report for bound_id in bound_ids), combiner
        for name in ("blind_oracle", other, combiner):
            assert costs[name] == run_policy(name, trace, 4, seed=3, epsilon=0.1).cost, name


def test_exact_predictions_return_the_belady_run_as_blind_oracle():
    trace = _trace("abcabdabeabcd")
    assert trace.exact
    runs = make_policies(("belady", "blind_oracle", "ftl"), 2, trace)
    assert runs["blind_oracle"] is runs["belady"] is runs["ftl"].experts[0]
    # not named, belady's run is returned under blind_oracle alone
    runs = make_policies(("ftl",), 2, trace)
    assert list(runs) == ["blind_oracle", "lru", "ftl"]
    assert type(runs["blind_oracle"]) is Belady


def test_exact_predictions_make_blind_oracle_the_belady_run():
    # predictions equal to the arrivals key every page as belady does
    trace = synthesize(
        WorkloadSpec("zipf", universe=30, length=400, alpha=1.0), NoiseSpec("perfect"), seed=5
    )
    assert trace.exact
    shared = {}
    names = ("blind_oracle", "ftl", "mw")
    runs = make_policies(names, 4, trace, seed=3, epsilon=0.1, shared=shared)
    assert runs["blind_oracle"] is shared["belady"]
    assert runs["ftl"].experts[0] is runs["mw"].experts[0] is shared["belady"]
    simulate(trace.requests, runs.values())
    # built without the trace, each is a blind_oracle run driven online
    for name in names:
        run = runs[name]
        alone = make_policies((name,), 4, seed=3, epsilon=0.1)[name]
        assert type((*alone.experts, alone)[0]) is BlindOracle, name
        victims = serve_all(alone, trace.requests, trace.predictions)
        assert run.cost == alone.cost, name
        if name == "blind_oracle":
            assert run.victims == victims


def test_shared_experts_match_standalone_runs():
    trace = synthesize(
        WorkloadSpec("zipf", universe=30, length=400, alpha=1.0),
        NoiseSpec("additive_uniform", width=4.0),
        seed=5,
    )
    runs = make_policies(("ftl", "mw"), 4, trace, seed=3, epsilon=0.1)
    simulate(trace.requests, runs.values())
    shared = runs["ftl"].experts[0]
    assert runs["mw"].experts[0] is shared
    assert shared.cost == run_policy("blind_oracle", trace, 4).cost
    assert runs["ftl"].cost == run_policy("ftl", trace, 4).cost
    assert runs["mw"].cost == run_policy("mw", trace, 4, seed=3, epsilon=0.1).cost
