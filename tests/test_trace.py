import copy
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from predcache import (
    AdversaryConfig,
    ConfigError,
    NoiseSpec,
    Trace,
    TraceParseError,
    WorkloadSpec,
    count_inversions_fast,
    ell1_loss,
    generate_workload,
    next_arrivals,
    parse_trace,
    perturb_predictions,
    run_adversary,
    synthesize,
    synthesize_traces,
    write_trace,
)
from predcache.cli import ExperimentConfig, _seed_traces
from oracles import (
    ref_generate_workload,
    ref_perturb_predictions,
    request_runs,
    scan_next_arrivals,
)

pages = request_runs("abcde", 5, 8)  # up to 40 requests


def test_next_arrivals_basic():
    assert next_arrivals(["a", "b", "a"]) == [3, 4, 4]
    assert next_arrivals(["a"]) == [2]
    assert next_arrivals(["a", "a", "b"]) == [2, 4, 4]


def test_next_arrivals_rejects_empty():
    with pytest.raises(ValueError):
        next_arrivals([])


@given(pages)
def test_next_arrivals_matches_forward_scan(requests):
    assert next_arrivals(requests) == scan_next_arrivals(requests)


@given(pages)
def test_one_sentinel_arrival_per_distinct_page(requests):
    n = len(requests)
    arrivals = next_arrivals(requests)
    last_seen = [requests[i] for i in range(n) if arrivals[i] == n + 1]
    assert sorted(last_seen) == sorted(set(requests))


@given(pages)
def test_arrivals_are_strictly_in_the_future(requests):
    n = len(requests)
    for t, y in enumerate(next_arrivals(requests), start=1):
        assert t < y <= n + 1


def test_cyclic_workload_is_round_robin():
    spec = WorkloadSpec("cyclic", universe=3, length=6)
    assert generate_workload(spec, seed=123) == ["p1", "p2", "p3", "p1", "p2", "p3"]


def test_uniform_single_page():
    spec = WorkloadSpec("uniform", universe=1, length=4)
    assert generate_workload(spec, seed=5) == ["p1"] * 4


def test_workload_deterministic_per_seed():
    spec = WorkloadSpec("zipf", universe=30, length=200, alpha=1.2)
    assert generate_workload(spec, 7) == generate_workload(spec, 7)
    assert generate_workload(spec, 7) != generate_workload(spec, 8)


def test_zipf_top_rank_frequency():
    # relative frequency of the rank-1 page should land near 1/H_100
    spec = WorkloadSpec("zipf", universe=100, length=10_000, alpha=1.0)
    requests = generate_workload(spec, seed=7)
    h100 = sum(1.0 / i for i in range(1, 101))
    expected = 1.0 / h100
    observed = requests.count("p1") / len(requests)
    assert abs(observed - expected) <= 0.2 * expected


def test_phased_workload_stays_in_working_set():
    spec = WorkloadSpec("phased", universe=20, length=60, cycle=5, phase_len=10)
    requests = generate_workload(spec, seed=3)
    for phase in range(6):
        start = (phase * 5) % 20
        allowed = {f"p{(start + i) % 20 + 1}" for i in range(5)}
        assert set(requests[phase * 10 : (phase + 1) * 10]) <= allowed


@pytest.mark.parametrize(
    "spec",
    [
        WorkloadSpec("uniform", universe=0, length=5),
        WorkloadSpec("uniform", universe=5, length=0),
        WorkloadSpec("zipf", universe=5, length=5, alpha=0.0),
        WorkloadSpec("cyclic", universe=5, length=5, cycle=9),
        WorkloadSpec("phased", universe=5, length=5, cycle=2, phase_len=0),
        WorkloadSpec("nope", universe=5, length=5),
    ],
)
def test_invalid_workload_specs_rejected(spec):
    with pytest.raises(ConfigError):
        generate_workload(spec, seed=1)


# every kind; universes that are and are not powers of two, working sets that
# do not divide the universe, and cycle 0 (the whole universe)
_DRAW_WORKLOADS = [
    WorkloadSpec("uniform", universe=37, length=500),
    WorkloadSpec("uniform", universe=1024, length=500),
    WorkloadSpec("zipf", universe=50, length=500, alpha=1.3),
    WorkloadSpec("cyclic", universe=20, length=500, cycle=7),
    WorkloadSpec("phased", universe=100, length=500, cycle=24, phase_len=35),
    WorkloadSpec("phased", universe=100, length=500, cycle=64, phase_len=17),
    WorkloadSpec("phased", universe=10, length=500, phase_len=50),
]


@pytest.mark.parametrize("spec", _DRAW_WORKLOADS, ids=lambda spec: spec.label)
def test_workload_draws_match_the_random_api(spec):
    for seed in range(4):
        assert generate_workload(spec, seed) == ref_generate_workload(spec, seed)


@pytest.mark.parametrize(
    "noise",
    [
        NoiseSpec("perfect"),
        NoiseSpec("additive_uniform", width=8.0),
        NoiseSpec("additive_uniform", width=0.3),  # rounds differently if reassociated
        NoiseSpec("additive_gaussian", sigma=50.0),
        NoiseSpec("lognormal_scale", sigma=0.7),
        NoiseSpec("constant_shift", shift=3.5),
        NoiseSpec("constant_shift", shift=-20.0),
        NoiseSpec("random_replace", prob=0.3, limit=100.0),
        # the clamp's extremes: overflow to inf or nan, far below zero, exp overflow
        NoiseSpec("constant_shift", shift=1e40),
        NoiseSpec("constant_shift", shift=-1e40),
        NoiseSpec("additive_gaussian", sigma=1e308),
        NoiseSpec("additive_uniform", width=1e308),
        NoiseSpec("lognormal_scale", sigma=1000.0),
    ],
    ids=lambda noise: noise.label,
)
def test_noise_draws_match_the_random_api(noise):
    for spec in _DRAW_WORKLOADS:
        arrivals = next_arrivals(generate_workload(spec, 0))
        for seed in range(3):
            got = perturb_predictions(arrivals, noise, seed)
            want = ref_perturb_predictions(arrivals, noise, seed)
            assert list(map(repr, got)) == list(map(repr, want))


def test_perfect_noise_is_identity():
    y = [3, 4, 4]
    h = perturb_predictions(y, NoiseSpec("perfect"), seed=99)
    assert h == [3.0, 4.0, 4.0]
    assert ell1_loss(y, h) == 0.0
    assert count_inversions_fast(Trace("aba", h)) == 0


def test_constant_shift():
    h = perturb_predictions([3, 4, 4], NoiseSpec("constant_shift", shift=2.0), seed=0)
    assert h == [5.0, 6.0, 6.0]
    assert ell1_loss([3, 4, 4], h) == 6.0


def test_negative_shift_clamps_at_zero():
    h = perturb_predictions([3, 4, 4], NoiseSpec("constant_shift", shift=-10.0), seed=0)
    assert h == [0.0, 0.0, 0.0]


def test_additive_uniform_stays_within_width():
    y = [3, 4, 4, 9, 1, 17]
    h = perturb_predictions(y, NoiseSpec("additive_uniform", width=2.0), seed=1)
    assert h != [float(v) for v in y]
    for yv, hv in zip(y, h):
        assert abs(hv - yv) <= 2.0


@pytest.mark.parametrize(
    "noise",
    [
        NoiseSpec("additive_gaussian", sigma=5.0),
        NoiseSpec("lognormal_scale", sigma=0.7),
        NoiseSpec("random_replace", prob=0.5, limit=100.0),
    ],
)
def test_noise_outputs_finite_nonnegative_and_deterministic(noise):
    y = list(range(1, 200))
    h1 = perturb_predictions(y, noise, seed=11)
    h2 = perturb_predictions(y, noise, seed=11)
    assert h1 == h2
    assert all(math.isfinite(v) and v >= 0 for v in h1)


def test_invalid_noise_rejected():
    with pytest.raises(ConfigError):
        perturb_predictions([1], NoiseSpec("random_replace", prob=0.5, limit=0.0), seed=0)
    with pytest.raises(ConfigError):
        perturb_predictions([1], NoiseSpec("wat"), seed=0)


def test_parse_trace_example():
    trace = parse_trace("t,page,h\n1,a,3\n2,b,4\n3,a,4\n")
    assert trace.requests == ("a", "b", "a")
    assert trace.predictions == (3.0, 4.0, 4.0)
    assert trace.arrivals == (3, 4, 4)


def test_parse_header_only_is_empty_trace():
    with pytest.raises(TraceParseError):
        parse_trace("t,page,h\n")


def test_parse_negative_prediction_reports_line():
    with pytest.raises(TraceParseError) as err:
        parse_trace("t,page,h\n1,a,3\n2,b,-1\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text,line",
    [
        ("nope\n1,a,3\n", 1),
        ("t,page,h\n1,a\n", 2),
        ("t,page,h\n1,a,3\nx,b,4\n", 3),
        ("t,page,h\n2,a,3\n", 2),
        ("t,page,h\n1,a,3\n1,b,4\n", 3),
        ("t,page,h\n1,,3\n", 2),
        ("t,page,h\n1,a,zzz\n", 2),
        ("t,page,h\n1,a,inf\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(TraceParseError) as err:
        parse_trace(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "row",
    ["1,a,3_0", " 1,a,3", "+1,a,3", "\u0661,a,3", "01,a,3", "1,a,+3", "1,a, 3", "1,a,3 ",
     "1,a,\u0663"],
    ids=["h_underscore", "t_blank", "t_plus", "t_arabic_digit", "t_leading_zero", "h_plus",
         "h_leading_blank", "h_trailing_blank", "h_arabic_digit"],
)
def test_parse_reads_only_the_written_numerals(row):
    # int() and float() read each of these; the format does not
    with pytest.raises(TraceParseError) as err:
        parse_trace(f"t,page,h\n{row}\n")
    assert err.value.line == 2


def test_parse_reads_every_written_prediction():
    predictions = [1e30, 1.5e-07, -0.0, 0.0, 3.0, 123456789.0, 1e16, 0.1]
    trace = Trace(list("abcabcab"), predictions)
    again = parse_trace(write_trace(trace))
    assert again == trace
    assert [math.copysign(1.0, h) for h in again.predictions] == [
        math.copysign(1.0, h) for h in predictions
    ]


def test_every_label():
    # the labels are the CSV's trace_id and noise_id columns
    noises = [
        NoiseSpec("perfect", width=2.0),
        NoiseSpec("additive_uniform", width=2.5),
        NoiseSpec("additive_gaussian", sigma=0.75),
        NoiseSpec("lognormal_scale", sigma=1.5),
        NoiseSpec("constant_shift", shift=-3.0),
        NoiseSpec("random_replace", prob=0.25, limit=1e6),
    ]
    assert [noise.label for noise in noises] == [
        "perfect",
        "additive_uniform-w2.5",
        "additive_gaussian-s0.75",
        "lognormal_scale-s1.5",
        "constant_shift-c-3",
        "random_replace-p0.25-r1e+06",
    ]
    workloads = [
        WorkloadSpec("uniform", universe=12, length=150, alpha=2.0),
        WorkloadSpec("zipf", universe=40, length=600, alpha=1.25),
        WorkloadSpec("cyclic", universe=12, length=30, cycle=5),
        WorkloadSpec("cyclic", universe=12, length=30),
        WorkloadSpec("phased", universe=4000, length=25000, cycle=8, phase_len=100),
    ]
    assert [workload.label for workload in workloads] == [
        "uniform-u12-n150",
        "zipf-u40-n600-a1.25",
        "cyclic-u12-n30-m5",
        "cyclic-u12-n30",
        "phased-u4000-n25000-m8-pl100",
    ]


def test_write_then_parse_round_trip():
    trace = synthesize(
        WorkloadSpec("uniform", universe=10, length=50),
        NoiseSpec("additive_gaussian", sigma=3.0),
        seed=21,
    )
    text = write_trace(trace)
    again = parse_trace(text)
    assert again.requests == trace.requests
    assert again.predictions == trace.predictions  # bit-exact through repr
    assert write_trace(again) == text


def test_a_parsed_trace_holds_one_str_per_distinct_page():
    # pages of two or more characters: CPython already shares one-character strs
    trace = synthesize(
        WorkloadSpec("uniform", universe=30, length=400), NoiseSpec("perfect"), seed=8
    )
    again = parse_trace(write_trace(trace))
    assert again == trace
    assert len({id(p) for p in again.requests}) == len(set(again.requests)) == 30


def test_a_file_sweep_keeps_no_text_once_parsed(tmp_path):
    # each row is longer than the 8 bytes a tuple spends per request, so the
    # file's text is the largest block a sweep could still hold after the parse
    trace = synthesize(
        WorkloadSpec("uniform", universe=50, length=5_000),
        NoiseSpec("additive_gaussian", sigma=3.0),
        seed=9,
    )
    path = tmp_path / "trace.csv"
    path.write_text(write_trace(trace), encoding="utf-8")
    config = ExperimentConfig(policies=("lru",), seeds=(1, 2), trace_path=str(path))
    tracemalloc.start()
    try:
        steps = _seed_traces(config)
        _, (parsed,), _ = next(steps)
        largest = max(block.size for block in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert parsed == trace
    assert largest < path.stat().st_size / 2


def test_write_rejects_commas_in_pages():
    trace = Trace(["a,b"], [1.0])
    with pytest.raises(ValueError):
        write_trace(trace)


@pytest.mark.parametrize("page", ["", "a\nb", "a\r\nb", "a\rb", "a\u2028b", "\x0c", "b\x85"])
def test_write_rejects_pages_that_cannot_be_read_back(page):
    trace = Trace(["a", page], [1.0, 2.0])
    with pytest.raises(ValueError):
        write_trace(trace)


@given(st.lists(st.text(max_size=4), min_size=1, max_size=5))
def test_written_pages_always_read_back(requests):
    trace = Trace(requests, [1.0] * len(requests))
    try:
        text = write_trace(trace)
    except ValueError:
        return  # refused tokens never reach a file
    assert parse_trace(text) == trace


@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_traces(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    requests = [f"p{rng.randint(1, 6)}" for _ in range(n)]
    predictions = [rng.uniform(0, 50) for _ in range(n)]
    trace = Trace(requests, predictions)
    assert parse_trace(write_trace(trace)) == trace


def test_trace_validation():
    with pytest.raises(ValueError, match="equal length"):
        Trace(["a"], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite non-negative"):
        Trace(["a"], [-1.0])
    with pytest.raises(ValueError, match="empty trace"):
        Trace([], [])
    # a re-noised trace is validated the same way
    trace = Trace(("a", "b"), (3.0, 3.0))
    with pytest.raises(ValueError, match="finite non-negative"):
        trace.renoised((math.nan, 3.0))
    with pytest.raises(ValueError, match="equal length"):
        trace.renoised((3.0,))


def test_arrivals_cannot_be_passed_in():
    # arrivals that are not the requests' next arrivals: on these Belady
    # would pay 5 at k=2 where 3 is optimal, and the inversion count read 0
    with pytest.raises(TypeError):
        Trace(("a", "b", "c", "a", "b", "c", "a"), (1.0,) * 7, (9,) * 7)
    with pytest.raises(TypeError):
        Trace(("a",), (2.0,), (2,))
    with pytest.raises(TypeError):
        Trace(("a",), (2.0,), arrivals=(2,))
    trace = Trace(("a", "b", "a"), (3.0, 4.0, 4.0))
    with pytest.raises(TypeError):
        trace._replace(arrivals=(9, 9, 9))
    with pytest.raises(TypeError):
        Trace._make((trace.requests, trace.predictions, (9, 9, 9)))


def test_renoised_shares_requests_and_arrivals():
    trace = Trace(list("abcab"), [1.0] * 5)
    again = trace.renoised([4.0, 5.0, 6.0, 6.0, 6.0])
    assert again.requests is trace.requests and again.arrivals is trace.arrivals
    assert again.predictions == (4.0, 5.0, 6.0, 6.0, 6.0)
    assert again.exact and not trace.exact


def test_a_trace_pickles_and_copies_to_an_equal_trace():
    trace = synthesize(
        WorkloadSpec("zipf", universe=20, length=200), NoiseSpec("additive_uniform", width=3.0),
        seed=2,
    )
    for again in (pickle.loads(pickle.dumps(trace)), copy.copy(trace), copy.deepcopy(trace)):
        assert type(again) is Trace
        assert again == trace


def _built_traces(requests, predictions):
    """A trace from each public builder, over ``requests`` where it takes them."""
    trace = Trace(requests, predictions)
    yield trace
    yield trace.renoised(list(reversed(predictions)))
    named = Trace([f"p{page}" for page in requests], predictions)
    yield parse_trace(write_trace(named))
    spec = WorkloadSpec("uniform", universe=max(requests), length=len(requests))
    noises = (NoiseSpec("perfect"), NoiseSpec("additive_gaussian", sigma=2.0))
    yield synthesize(spec, noises[1], seed=len(requests))
    yield from synthesize_traces(spec, noises, seed=len(requests))
    k = 1 + requests[0] % 4
    config = AdversaryConfig(k=k, j=requests[-1] % k, num_phases=1 + len(requests) % 3)
    yield run_adversary(("lru", "blind_oracle", "ftl")[len(requests) % 3], config).trace


@given(st.lists(st.integers(1, 6), min_size=1, max_size=30), st.data())
def test_every_built_trace_holds_its_requests_next_arrivals(requests, data):
    n = len(requests)
    predictions = data.draw(st.lists(st.floats(0, n + 2), min_size=n, max_size=n))
    for trace in _built_traces(requests, predictions):
        assert trace.arrivals == tuple(next_arrivals(trace.requests))


def test_synthesize_same_requests_across_noise_models():
    w = WorkloadSpec("uniform", universe=10, length=100)
    t1 = synthesize(w, NoiseSpec("perfect"), seed=4)
    t2 = synthesize(w, NoiseSpec("additive_uniform", width=5.0), seed=4)
    assert t1.requests == t2.requests
    assert t1.predictions != t2.predictions


def test_synthesize_traces_is_synthesize_per_noise_over_shared_requests():
    w = WorkloadSpec("zipf", universe=10, length=100)
    noises = [NoiseSpec("perfect"), NoiseSpec("lognormal_scale", sigma=0.5)]
    traces = synthesize_traces(w, noises, seed=6)
    assert traces == [synthesize(w, noise, seed=6) for noise in noises]
    assert traces[0].requests is traces[1].requests
    assert traces[0].arrivals is traces[1].arrivals
