import itertools
import math
import random
import re
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from predcache import (
    BOUND_IDS,
    AdversaryConfig,
    ConfigError,
    NoiseSpec,
    Trace,
    WorkloadSpec,
    check_bounds,
    count_inversions_fast,
    ell1_loss,
    harmonic,
    next_arrivals,
    perturb_predictions,
    run_adversary,
    synthesize,
)
from predcache import metrics
from oracles import count_inversions_fenwick, count_inversions_naive, request_runs

# The package's block width, then blocks of 1, 2 and 4 positions, so that
# small instances cross many block boundaries.
BLOCK_BITS = (metrics._BLOCK_BITS, 0, 1, 2)
# The package's insertion budget, then none, so that every instance with an
# inversion also takes the bitset count.
INSERTION_BUDGETS = (metrics._INSERTION_BUDGET, 0)


def _assert_fast_matches_naive(trace):
    expected = count_inversions_naive(trace.arrivals, trace.predictions)
    for bits in BLOCK_BITS:
        for budget in INSERTION_BUDGETS:
            with patch.object(metrics, "_BLOCK_BITS", bits), \
                    patch.object(metrics, "_INSERTION_BUDGET", budget):
                assert count_inversions_fast(trace) == expected, (bits, budget)


def test_harmonic():
    assert harmonic(1) == 1.0
    assert math.isclose(harmonic(4), 1 + 0.5 + 1 / 3 + 0.25)


def test_ell1_examples():
    assert ell1_loss([3, 4, 4], [3.0, 4.0, 4.0]) == 0.0
    assert ell1_loss([3, 4, 4], [5.0, 4.0, 2.0]) == 4.0
    assert ell1_loss([2], [0.0]) == 2.0
    with pytest.raises(ValueError):
        ell1_loss([1, 2], [1.0])


def test_sums_add_left_to_right_on_every_python():
    # sum() of floats compensates from Python 3.12 (1.0000000000000004e16 and
    # 8.178368103610282 there), which would move the CSV's eta bytes
    assert ell1_loss([0] * 5, [1e16, 1.0, 1.0, 1.0, 1.0]) == 1e16
    assert harmonic(2000) == 8.178368103610284


def test_inversion_examples():
    # sigma = (a,b,a,b): only the first pair is inverted
    y, h = [3, 4, 5, 5], [4.0, 3.0, 5.0, 5.0]
    assert count_inversions_naive(y, h) == 1
    y2 = [3, 4, 5, 5]
    assert count_inversions_naive(y2, [float(v) for v in y2]) == 0
    # sigma = (a,a,a): equal predictions at increasing arrivals invert once
    y3, h3 = [2, 3, 4], [3.0, 3.0, 4.0]
    assert count_inversions_naive(y3, h3) == 1
    assert ell1_loss(y3, h3) >= count_inversions_naive(y3, h3) / 2


def test_fast_matches_naive_on_examples():
    once = [f"p{i}" for i in range(300)]  # 300 pages, each requested once
    cases = [
        ("abab", [4.0, 3.0, 5.0, 5.0]),  # arrivals 3, 4, 5, 5
        ("abab", [3.0, 4.0, 5.0, 5.0]),
        ("aaa", [3.0, 3.0, 4.0]),  # arrivals 2, 3, 4
        ("abc", [1.0, 2.0, 3.0]),  # tied arrivals contribute nothing
        ("a", [9.0]),
        # n = 300: equal predictions, reversed predictions, equal arrivals
        ("a" * 300, [5.0] * 300),
        ("a" * 300, [float(301 - v) for v in range(1, 301)]),
        (once, [float(v % 13) for v in range(300)]),
    ]
    for requests, h in cases:
        _assert_fast_matches_naive(Trace(requests, h))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fast_matches_naive_on_random_instances(data):
    n = data.draw(st.integers(1, 60))
    requests = data.draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    h = data.draw(
        st.lists(
            st.floats(0, 30, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
        )
    )
    _assert_fast_matches_naive(Trace(requests, h))


def _zipf_trace(noise):
    spec = WorkloadSpec("zipf", universe=4096, length=20_000, alpha=1.0)
    return synthesize(spec, noise, seed=3)


def _heavy_ties():
    # about 2,150 of the 5,000 requests are their page's last, so the n + 1
    # group is large, and five prediction values tie both inside and across it
    rng = random.Random(11)
    requests = [f"p{rng.randrange(2_500)}" for _ in range(5_000)]
    h = [rng.choice((0.0, 2.5, 3.0, 40.0, 5_001.0)) for _ in range(5_000)]
    return Trace(requests, h)


def _adversary_trace():
    return run_adversary("blind_oracle", AdversaryConfig(k=8, j=7, num_phases=300)).trace


@pytest.mark.parametrize(
    "instance",
    [
        lambda: _zipf_trace(NoiseSpec("perfect")),
        lambda: _zipf_trace(NoiseSpec("additive_uniform", width=8.0)),
        # about 6.6 inversions per element, hundreds with exactly 15 or 16:
        # the insertion's search starts on both sides of 16 from the end
        lambda: _zipf_trace(NoiseSpec("additive_gaussian", sigma=16.0)),
        lambda: _zipf_trace(NoiseSpec("random_replace", prob=1.0, limit=20_000.0)),
        _adversary_trace,
        _heavy_ties,
    ],
    ids=["zipf_perfect", "zipf_additive_uniform", "zipf_additive_gaussian",
         "zipf_random_replace", "adversary", "heavy_ties"],
)
def test_fast_matches_fenwick_across_many_blocks(instance):
    trace = instance()
    assert count_inversions_fast(trace) == count_inversions_fenwick(
        trace.arrivals, trace.predictions
    )


@settings(max_examples=150, deadline=None)
@given(
    request_runs("abcd", 6, 5),  # up to 30 requests
    st.integers(0, 10_000),
    st.sampled_from(
        [
            NoiseSpec("perfect"),
            NoiseSpec("additive_uniform", width=4.0),
            NoiseSpec("additive_gaussian", sigma=3.0),
            NoiseSpec("lognormal_scale", sigma=0.6),
            NoiseSpec("constant_shift", shift=2.5),
            NoiseSpec("random_replace", prob=0.4, limit=60.0),
        ]
    ),
)
def test_loss_dominates_half_the_inversions(requests, seed, noise):
    y = next_arrivals(requests)
    h = perturb_predictions(y, noise, seed)
    assert ell1_loss(y, h) >= count_inversions_naive(y, h) / 2


def _with_inversions(m, inversions):
    """Requests p1..pm p1..pm with exactly ``inversions`` inverted pairs.

    The first m requests fill the slots of arrivals m+1..2m in order, with
    distinct predictions: slot j sits below min(j, what is left) earlier
    ones.  The last m form the tail, arrival 2m+1, predicted above every
    slot, so no pair with a tail request is inverted."""
    below = []
    for j in range(m):
        below.append(min(j, inversions))
        inversions -= below[-1]
    assert inversions == 0
    free = list(range(m))  # the values of slots 0..j, in order
    h = [0.0] * m
    for j in range(m - 1, -1, -1):
        h[j] = float(free.pop(j - below[j]))
    pages = [f"p{j + 1}" for j in range(m)]
    return Trace(pages + pages, h + [float(m + j) for j in range(m)])


def _count_and_sorts(trace):
    """count_inversions_fast's count and the sorts it ran: none by insertion,
    the bitset's rank sort past the budget."""
    with patch.object(metrics, "sorted", wraps=sorted, create=True) as spy:
        return count_inversions_fast(trace), spy.call_count


@pytest.mark.parametrize("extra", [0, 1], ids=["at_the_budget", "past_the_budget"])
def test_insertion_counts_up_to_its_budget_and_the_bitset_past_it(extra):
    n = 200  # p1..p100 twice: the budget counts the tail's requests too
    inversions = metrics._INSERTION_BUDGET * n + extra
    trace = _with_inversions(n // 2, inversions)
    assert trace.n == n
    assert count_inversions_fenwick(trace.arrivals, trace.predictions) == inversions
    assert _count_and_sorts(trace) == (inversions, extra)


def test_a_large_never_requested_group_counts_against_the_rest():
    # 8,000 pages requested once among 20,000 requests: arrival n + 1 ties a
    # group of 8,000 plus the recurring pages' last requests, with the once
    # pages' predictions in descending order across the trace
    rng = random.Random(5)
    requests = [f"once{i}" for i in range(8_000)]
    requests += [f"p{rng.randrange(200)}" for _ in range(12_000)]
    rng.shuffle(requests)
    y = next_arrivals(requests)
    n = len(y)
    falling = iter(range(8_000, 0, -1))
    h = [float(next(falling)) * n / 8_000 if page.startswith("once") else y_t + rng.uniform(-4, 4)
         for page, y_t in zip(requests, y)]
    trace = Trace(requests, h)
    expected = count_inversions_fenwick(y, h)
    assert _count_and_sorts(trace) == (expected, 0)
    with patch.object(metrics, "_INSERTION_BUDGET", 0):
        assert _count_and_sorts(trace) == (expected, 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fast_matches_naive_on_next_arrivals(data):
    # predictions near the arrivals, integral or not, so that they tie with
    # each other and with arrivals; every instance takes the insertion path,
    # and with no budget the bitset over its arrival order
    n = data.draw(st.integers(1, 60))
    pages = data.draw(st.integers(1, n))
    requests = data.draw(st.lists(st.integers(1, pages), min_size=n, max_size=n))
    h = data.draw(
        st.lists(
            st.one_of(st.integers(0, n + 2).map(float), st.floats(0, n + 2)),
            min_size=n,
            max_size=n,
        )
    )
    trace = Trace(requests, h)
    expected = count_inversions_naive(trace.arrivals, h)
    for budget in INSERTION_BUDGETS:
        with patch.object(metrics, "_INSERTION_BUDGET", budget):
            count, sorts = _count_and_sorts(trace)
        assert count == expected, budget
        assert sorts <= 1, budget  # the bitset's rank sort, at most


def test_zero_loss_means_zero_inversions():
    requests = [f"p{i % 7}" for i in range(50)]
    y = next_arrivals(requests)
    trace = Trace(requests, perturb_predictions(y, NoiseSpec("perfect"), seed=0))
    assert ell1_loss(trace.arrivals, trace.predictions) == 0.0
    assert count_inversions_fast(trace) == 0


# ---------------------------------------------------------------- check_bounds


def test_prop1_pass_and_fail():
    ok = check_bounds({"blind_oracle": 10}, opt=10, eta=0.0, inversions=0, k=4)
    assert ok.get("thm1_prop1").passed

    bad = check_bounds({"blind_oracle": 11}, opt=10, eta=0.0, inversions=0, k=4)
    record = bad.get("thm1_prop2")
    assert record.passed  # 11 <= 2*10 + 0 + 4
    assert not bad.get("thm1_prop1").passed
    assert bad.get("thm1_prop1").slack_used == 0.0


def test_lemma1_failure_signals_metrics_bug():
    report = check_bounds({}, opt=5, eta=3.0, inversions=7, k=4)
    record = report.get("lemma1")
    assert record is not None and not record.passed
    assert (record.lhs, record.rhs) == (3.5, 3.0)


def test_prop2_not_applicable_at_k1():
    report = check_bounds({"blind_oracle": 3}, opt=2, eta=1.0, inversions=0, k=1)
    record = report.get("thm1_prop2")
    assert record.vacuous and record.passed and "k >= 2" in record.note


def test_vacuous_pass_when_opt_is_zero():
    report = check_bounds({"blind_oracle": 0, "lru": 0}, opt=0, eta=5.0, inversions=1, k=4)
    assert report.get("thm1_prop1").vacuous
    assert report.get("lru_k").vacuous
    assert all(record.passed for record in report.values())


def test_ftl_and_mw_bounds():
    report = check_bounds(
        {"blind_oracle": 30, "lru": 50, "marker": 40, "ftl": 65, "mw": 45},
        opt=20,
        eta=10.0,
        inversions=4,
        k=4,
        epsilon=0.1,
    )
    ftl = report.get("ftl_thm2")
    assert (ftl.lhs, ftl.rhs) == (65.0, 2 * 30 + 8.0)
    assert ftl.passed
    mw = report.get("mw_thm3")
    assert mw.rhs == pytest.approx(1.1 * 30 + 8 * 4 / 0.1)
    assert mw.passed
    assert report.get("cor1_det") is not None
    assert report.get("cor2_rand") is not None


def test_missing_expert_costs_raise():
    with pytest.raises(ConfigError):
        check_bounds({"ftl": 10}, opt=5, eta=0.0, inversions=0, k=2)
    with pytest.raises(ConfigError):
        check_bounds({"mw": 10, "blind_oracle": 5}, opt=5, eta=0.0, inversions=0, k=2, epsilon=0.1)
    with pytest.raises(ConfigError):
        check_bounds({"mw": 10, "blind_oracle": 5, "marker": 6}, opt=5, eta=0.0, inversions=0, k=2)


def test_records_are_keyed_by_bound_id_with_each_additive_term():
    k, eps = 4, 0.1
    report = check_bounds(
        {"blind_oracle": 30, "lru": 50, "marker": 40, "ftl": 65, "mw": 45},
        opt=20,
        eta=10.0,
        inversions=4,
        k=k,
        epsilon=eps,
    )
    assert list(report) == [
        "lemma1", "thm1_prop1", "thm1_prop2", "lru_k", "marker_2hk",
        "ftl_thm2", "cor1_det", "mw_thm3", "cor2_rand",
    ]
    assert set(report) <= set(BOUND_IDS)
    assert all(record.bound_id == bound_id for bound_id, record in report.items())
    slack = {bound_id: record.slack_used for bound_id, record in report.items()}
    assert slack == {
        "lemma1": 0.0, "thm1_prop1": 0.0, "thm1_prop2": k, "lru_k": k, "marker_2hk": k,
        "ftl_thm2": 2 * k, "cor1_det": 2 * k, "mw_thm3": 8 * k / eps, "cor2_rand": 8 * k / eps,
    }


def test_readme_bound_table_lists_the_bound_ids_in_order():
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| id | inequality |") + 2  # past the header and its rule
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    assert [re.match(r"\| `(\w+)` \|", row).group(1) for row in rows] == list(BOUND_IDS)


def test_random_cross_check_fast_vs_naive_larger():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 200)
        requests = [rng.randint(1, n) for _ in range(n)]
        h = [rng.uniform(0, n + 2) for _ in range(n)]
        _assert_fast_matches_naive(Trace(requests, h))
