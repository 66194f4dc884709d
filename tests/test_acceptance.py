"""Acceptance suite: every advertised guarantee checked at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The corpora are fixed by seed, so the suite is deterministic end to end.
"""

import itertools
import math
import random
from dataclasses import dataclass

import pytest

from predcache import (
    AdversaryConfig,
    BlindOracle,
    Marker,
    MwCombiner,
    NoiseSpec,
    Trace,
    WorkloadSpec,
    certify_lower_bound,
    count_inversions_fast,
    ell1_loss,
    harmonic,
    make_policies,
    next_arrivals,
    run_adversary,
    run_policy,
    simulate,
    synthesize,
)
from predcache.combine import _child_seeds
from oracles import brute_force_opt, count_inversions_broadcast, count_inversions_naive

WORKLOADS = [
    WorkloadSpec("uniform", universe=50, length=2000),
    WorkloadSpec("uniform", universe=8, length=800),
    WorkloadSpec("zipf", universe=100, length=2000, alpha=1.0),
    WorkloadSpec("zipf", universe=200, length=2500, alpha=0.8),
    WorkloadSpec("cyclic", universe=20, length=1500),
    WorkloadSpec("phased", universe=60, length=2400, cycle=12, phase_len=120),
]

NOISES = [
    NoiseSpec("perfect"),
    NoiseSpec("additive_uniform", width=2.0),
    NoiseSpec("additive_uniform", width=8.0),
    NoiseSpec("additive_gaussian", sigma=5.0),
    NoiseSpec("lognormal_scale", sigma=0.5),
    NoiseSpec("constant_shift", shift=3.0),
    NoiseSpec("random_replace", prob=0.2, limit=5000.0),
    NoiseSpec("random_replace", prob=1.0, limit=5000.0),
]

KS = (2, 5, 16)
SEEDS = (1, 2)


@dataclass(frozen=True)
class Cell:
    label: str
    k: int
    trace: Trace
    opt: int
    eta: float
    bo: int
    lru: int
    ftl: int
    ftl_best_expert: int


def _print_line(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def corpus() -> list[Cell]:
    cells = []
    # the cyclic universe-of-k+1 workloads are the classical worst case for
    # plain recency eviction, so pin them per cache size
    extra = {k: WorkloadSpec("cyclic", universe=k + 1, length=1200) for k in KS}
    for k in KS:
        for workload in WORKLOADS + [extra[k]]:
            for noise in NOISES:
                for seed in SEEDS:
                    trace = synthesize(workload, noise, seed)
                    # ftl's experts are the blind_oracle and lru rows' runs
                    runs = make_policies(("belady", "blind_oracle", "lru", "ftl"), k, trace)
                    simulate(trace.requests, runs.values())
                    ftl = runs["ftl"]
                    cells.append(
                        Cell(
                            label=f"{workload.label}/{noise.label}/s{seed}/k{k}",
                            k=k,
                            trace=trace,
                            opt=runs["belady"].cost,
                            eta=ell1_loss(trace.arrivals, trace.predictions),
                            bo=runs["blind_oracle"].cost,
                            lru=runs["lru"].cost,
                            ftl=ftl.cost,
                            ftl_best_expert=min(ftl.experts[0].cost, ftl.experts[1].cost),
                        )
                    )
    return cells


def test_c01_perfect_predictions_match_offline_optimum():
    mismatches = 0
    count = 0
    for i in range(1000):
        rng = random.Random(20_260_801 + i)
        kind = "uniform" if i % 2 == 0 else "zipf"
        spec = WorkloadSpec(
            kind,
            universe=rng.randint(4, 60),
            length=rng.randint(20, 500),
            alpha=rng.uniform(0.6, 1.4),
        )
        k = rng.randint(2, 10)
        trace = synthesize(spec, NoiseSpec("perfect"), seed=rng.getrandbits(32))
        count += 1
        # a BlindOracle built by hand: the builder would make it the belady run
        blind_oracle = BlindOracle(k, trace.predictions)
        simulate(trace.requests, [blind_oracle])
        if blind_oracle.cost != run_policy("belady", trace, k).cost:
            mismatches += 1
    _print_line(
        "C1",
        mismatches == 0,
        f"oracle-following equals offline optimum on {count} perfect-prediction traces "
        f"({mismatches} mismatches, tolerance 0)",
    )
    assert mismatches == 0


def test_c02_cost_within_opt_plus_twice_the_loss(corpus):
    worst = max(cell.bo - (cell.opt + 2 * cell.eta) for cell in corpus)
    _print_line(
        "C2",
        worst <= 0,
        f"blind_oracle <= opt + 2*eta with zero slack on {len(corpus)} cells "
        f"(max margin {worst:.6g})",
    )
    assert worst <= 0


def test_c03_cost_within_twice_opt_plus_scaled_loss(corpus):
    eligible = [c for c in corpus if c.k >= 2]
    worst = max(c.bo - (2 * c.opt + 4 * c.eta / (c.k - 1) + c.k) for c in eligible)
    _print_line(
        "C3",
        worst <= 0,
        f"blind_oracle <= 2*opt + 4*eta/(k-1) + k on {len(eligible)} cells "
        f"(max margin {worst:.6g})",
    )
    assert worst <= 0


def test_c04_loss_dominates_half_the_inversions():
    noises = NOISES + [NoiseSpec("additive_uniform", width=0.6)]
    violations = 0
    count = 0
    for i in range(10_500):
        rng = random.Random(7_000 + i)
        spec = WorkloadSpec(
            "uniform" if i % 3 else "zipf",
            universe=rng.randint(2, 20),
            length=rng.randint(2, 80),
            alpha=1.0,
        )
        trace = synthesize(spec, noises[i % len(noises)], seed=rng.getrandbits(32))
        eta = ell1_loss(trace.arrivals, trace.predictions)
        inversions = count_inversions_fast(trace)
        count += 1
        if eta < inversions / 2:
            violations += 1
        if eta == 0 and inversions != 0:
            violations += 1
    _print_line(
        "C4",
        violations == 0,
        f"eta >= inversions/2 exactly on {count} generated instances ({violations} violations)",
    )
    assert violations == 0


def _exhaustive_inversion_instances():
    """Every request sequence of length <= 8 over 3 pages, with predictions
    drawn from permutations of the true arrivals."""
    for n in range(1, 9):
        for requests in itertools.product("abc", repeat=n):
            y = next_arrivals(list(requests))
            rng = random.Random(n * 31 + len(set(requests)))
            variants = [list(y), list(reversed(y))]
            for _ in range(2):
                shuffled = list(y)
                rng.shuffle(shuffled)
                variants.append(shuffled)
            for h in variants:
                yield Trace(requests, h)


def test_c05_inversion_count_matches_reference():
    mismatches = 0
    count = 0
    # exhaustive: against the pair enumeration
    for trace in _exhaustive_inversion_instances():
        count += 1
        expected = count_inversions_naive(trace.arrivals, trace.predictions)
        if count_inversions_fast(trace) != expected:
            mismatches += 1
    # randomized: larger instances with arbitrary real predictions, against
    # the same pair rule broadcast over all pairs
    for i in range(10_000):
        rng = random.Random(90_000 + i)
        n = rng.randint(1, 200)
        requests = [f"p{rng.randint(1, rng.randint(1, 50))}" for _ in range(n)]
        y = next_arrivals(requests)
        if i % 2:
            h = [float(v) for v in y]
            rng.shuffle(h)
        else:
            h = [rng.uniform(0, n + 2) for _ in range(n)]
        count += 1
        if count_inversions_fast(Trace(requests, h)) != count_inversions_broadcast(y, h):
            mismatches += 1
    _print_line(
        "C5",
        mismatches == 0,
        f"fast inversion count equals the quadratic reference on {count} instances "
        f"({mismatches} mismatches)",
    )
    assert mismatches == 0


def test_c05_references_agree_on_the_exhaustive_instances():
    # the broadcast reference C5 checks its random instances against counts
    # what the pair enumeration counts
    for trace in _exhaustive_inversion_instances():
        y, h = trace.arrivals, trace.predictions
        assert count_inversions_broadcast(y, h) == count_inversions_naive(y, h), (y, h)


def test_c06_belady_achieves_the_exhaustive_minimum():
    mismatches = 0
    count = 0
    # exhaustive slice: all traces of length <= 6 over 3 pages
    for n in range(1, 7):
        for requests in itertools.product("abc", repeat=n):
            trace = Trace(list(requests), [float(v) for v in next_arrivals(list(requests))])
            for k in (2, 3):
                count += 1
                if run_policy("belady", trace, k).cost != brute_force_opt(list(requests), k):
                    mismatches += 1
    # random draws at the stated limits: n <= 12, universe <= 5, k <= 4
    for i in range(1500):
        rng = random.Random(50_000 + i)
        n = rng.randint(1, 12)
        universe = rng.randint(1, 5)
        requests = [f"p{rng.randint(1, universe)}" for _ in range(n)]
        trace = Trace(requests, [float(v) for v in next_arrivals(requests)])
        k = rng.randint(1, 4)
        count += 1
        if run_policy("belady", trace, k).cost != brute_force_opt(requests, k):
            mismatches += 1
    _print_line(
        "C6",
        mismatches == 0,
        f"offline policy matches brute-force minimum over eviction choices on {count} runs "
        f"({mismatches} mismatches)",
    )
    assert mismatches == 0


def test_c07_deterministic_combiner_within_budget(corpus):
    worst = max(c.ftl - (2 * c.ftl_best_expert + 2 * c.k) for c in corpus)
    _print_line(
        "C7",
        worst <= 0,
        f"ftl <= 2*min(experts) + 2k on {len(corpus)} cells incl. adversarial noise "
        f"(max margin {worst:.6g})",
    )
    assert worst <= 0


def test_c08_randomized_combiner_within_budget():
    combos = [
        (WorkloadSpec("uniform", universe=40, length=1000), NoiseSpec("additive_uniform", width=4.0)),
        (WorkloadSpec("zipf", universe=80, length=1000, alpha=1.0), NoiseSpec("additive_gaussian", sigma=5.0)),
        (WorkloadSpec("cyclic", universe=12, length=1000), NoiseSpec("random_replace", prob=1.0, limit=2000.0)),
        (WorkloadSpec("phased", universe=40, length=1200, cycle=10, phase_len=100), NoiseSpec("perfect")),
    ]
    seeds = range(100)
    worst_margin = -math.inf
    worst_constant = -math.inf
    cells = 0
    for k in (5, 10):
        for workload, noise in combos:
            trace = synthesize(workload, noise, seed=3)
            # one deterministic blind_oracle run for every epsilon and seed;
            # each mw's Marker and generator are seeded as make_policies seeds them
            blind_oracle = BlindOracle(k, trace.predictions)
            runs = {
                epsilon: [
                    MwCombiner(
                        blind_oracle, Marker(k, random.Random(marker_seed)), k, epsilon,
                        random.Random(mw_seed),
                    )
                    for _, marker_seed, mw_seed in map(_child_seeds, seeds)
                ]
                for epsilon in (0.05, 0.1, 0.2)
            }
            simulate(trace.requests, [mw for mws in runs.values() for mw in mws])
            for epsilon, mws in runs.items():
                mean = sum(mw.cost for mw in mws) / len(seeds)
                best = min(sum(mw.experts[i].cost for mw in mws) for i in (0, 1)) / len(seeds)
                margin = mean - ((1 + epsilon) * best + 8 * k / epsilon)
                constant = (mean - (1 + epsilon) * best) * epsilon / k
                worst_margin = max(worst_margin, margin)
                worst_constant = max(worst_constant, constant)
                cells += 1
    _print_line(
        "C8",
        worst_margin <= 0,
        f"mw mean over 100 seeds <= (1+eps)*min(experts) + 8k/eps on {cells} cells "
        f"(max margin {worst_margin:.4g}; worst empirical constant {worst_constant:.3f} "
        f"of the budgeted 8)",
    )
    assert worst_margin <= 0


def test_c09_adaptive_lower_bound_construction():
    cost_violations: list[str] = []
    opt_violations: list[str] = []
    eta_violations: list[str] = []
    cells = 0
    for policy in ("lru", "blind_oracle", "ftl"):
        for k in (3, 5, 8):
            for j in sorted({1, math.ceil(k / 2), k - 1}):
                config = AdversaryConfig(k=k, j=j, num_phases=10)
                result = run_adversary(policy, config)
                cells += 1
                tag = f"{policy}(k={k},j={j})"
                if any(p.alg_cost < j + 1 for p in result.phases):
                    cost_violations.append(tag)
                if result.opt_cost > 2 * config.num_phases:
                    opt_violations.append(tag)
                if not certify_lower_bound(result).passed:
                    cost_violations.append(tag + ":certificate")
                excess = max(p.eta - p.eta_upper_bound for p in result.phases)
                if excess > 0:
                    eta_violations.append(f"{tag}:+{excess:g}")
    ok = not (cost_violations or opt_violations or eta_violations)
    _print_line(
        "C9",
        ok,
        f"adaptive construction over {cells} configs: per-phase cost >= j+1 "
        f"({'ok' if not cost_violations else cost_violations}), "
        f"offline optimum <= 2/phase ({'ok' if not opt_violations else opt_violations}), "
        f"per-phase eta <= 2jk ({'ok' if not eta_violations else eta_violations})",
    )
    assert not cost_violations, cost_violations
    assert not opt_violations, opt_violations
    assert not eta_violations, eta_violations


def test_c10_robust_baselines_within_classical_budgets(corpus):
    worst_lru = max(c.lru - (c.k * c.opt + c.k) for c in corpus)

    marker_cells = 0
    worst_marker = -math.inf
    for k in KS:
        for workload in [
            WorkloadSpec("uniform", universe=k + 1, length=1200),
            WorkloadSpec("cyclic", universe=k + 1, length=1200),
            WorkloadSpec("zipf", universe=60, length=1200, alpha=1.0),
            WorkloadSpec("uniform", universe=50, length=1200),
        ]:
            trace = synthesize(workload, NoiseSpec("perfect"), seed=9)
            opt = run_policy("belady", trace, k).cost
            total = sum(run_policy("marker", trace, k, seed=s).cost for s in range(200))
            mean = total / 200
            worst_marker = max(worst_marker, mean - ((2 * harmonic(k) - 1) * opt + k))
            marker_cells += 1
    ok = worst_lru <= 0 and worst_marker <= 0
    _print_line(
        "C10",
        ok,
        f"lru <= k*opt + k on {len(corpus)} cells (max margin {worst_lru:.6g}); "
        f"marker mean over 200 seeds <= (2H_k - 1)*opt + k on {marker_cells} cells "
        f"(max margin {worst_marker:.4g})",
    )
    assert worst_lru <= 0
    assert worst_marker <= 0
