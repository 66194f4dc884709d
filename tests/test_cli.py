import csv
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml

import predcache
from predcache import (
    POLICY_NAMES,
    BoundRecord,
    ConfigError,
    Marker,
    NoiseSpec,
    Policy,
    Trace,
    WorkloadSpec,
    make_policies,
    next_arrivals,
    parse_trace,
    simulate,
    synthesize,
    write_trace,
)
from predcache.cli import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    _cell_costs,
    config_from_mapping,
    emit_csv,
    load_config,
    main,
    render_csv,
    run_experiment,
)
from predcache.metrics import BOUNDS, count_inversions_fast, ell1_loss
from oracles import serve_all

WORKLOAD = {"kind": "uniform", "universe": 12, "length": 150}
GOLDEN = Path(__file__).parent / "golden"


def _config(**overrides):
    data = {
        "policies": ["lru", "belady", "blind_oracle"],
        "k": [3],
        "seeds": 2,
        "workload": dict(WORKLOAD),
        "noise": [{"kind": "perfect"}],
    }
    data.update(overrides)
    return config_from_mapping(data)


# ---------------------------------------------------------------- config


def test_defaults_and_scalars_normalize():
    config = config_from_mapping({"workload": dict(WORKLOAD), "k": 4, "seeds": 3})
    assert config.ks == (4,)
    assert config.seeds == (0, 1, 2)
    assert config.noises == (NoiseSpec("perfect"),)
    assert config.policies == ("lru", "belady", "blind_oracle", "marker")

    # a single string is a one-element list, not a sequence of characters
    config = config_from_mapping(
        {"workload": dict(WORKLOAD), "k": 4, "policies": "lru", "fatal_bounds": "lemma1"}
    )
    assert config.policies == ("lru",)
    assert config.fatal_bounds == ("lemma1",)
    config.validate()


@pytest.mark.parametrize(
    "data",
    [
        {"bogus": 1},
        {"workload": {"kind": "uniform"}},
        {"workload": dict(WORKLOAD), "noise": [{"kind": "perfect", "oops": 1}]},
        {"workload": dict(WORKLOAD), "adversary": {"k": 3}},
    ],
)
def test_malformed_config_mappings(data):
    with pytest.raises(ConfigError):
        config_from_mapping(data)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(policies=()),
        dict(policies=("nope",)),
        dict(policies=("mw",), epsilon=0.4),
        dict(workload=None, trace_path=None),
        dict(ks=()),
        dict(ks=(0,)),
        dict(noises=()),
    ],
)
def test_config_validation(kwargs):
    base = dict(
        policies=("lru",),
        ks=(3,),
        seeds=(0,),
        workload=WorkloadSpec("uniform", universe=12, length=150),
        noises=(NoiseSpec("perfect"),),
    )
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ExperimentConfig(**base).validate()


def test_workload_and_trace_are_exclusive():
    with pytest.raises(ConfigError):
        ExperimentConfig(
            policies=("lru",),
            ks=(2,),
            seeds=(0,),
            workload=WorkloadSpec("uniform", universe=4, length=10),
            trace_path="x.csv",
        ).validate()


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "policies: [lru]\nk: [2, 4]\nseeds: [7]\n"
        "workload:\n  kind: cyclic\n  universe: 5\n  length: 30\n",
        encoding="utf-8",
    )
    config = load_config(str(path))
    assert config.ks == (2, 4)
    assert config.seeds == (7,)
    assert config.workload.kind == "cyclic"
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.yaml"))


@pytest.mark.parametrize("root", ["[]", "0", "false", "[policies]", "lru"])
def test_load_config_rejects_a_root_that_is_not_a_mapping(tmp_path, root):
    path = tmp_path / "exp.yaml"
    path.write_text(root + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        load_config(str(path))


def test_load_config_reads_an_empty_document_as_the_defaults(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("# nothing configured\n", encoding="utf-8")
    assert load_config(str(path)) == config_from_mapping({})


@pytest.mark.parametrize(
    "record",
    [
        Trace(("a",), (2.0,)),
        ExperimentConfig(policies=("lru",), ks=(2,), seeds=(0,)),
        ResultRow("tr", 2, "perfect", 0, "lru", 1, 1, 0.0, 0, 0.0, (), ()),
        BoundRecord("lru_k", 1.0, 2.0, 0.0, True),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_statistics():
    # Every CLI run pays for its imports; the records are NamedTuples and the
    # means use math.fsum, so none of these (nor what they import) is needed.
    # argparse is loaded by main alone, which library callers never run.
    src = str(Path(predcache.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import predcache.cli; print(sorted("
        "{'argparse', 'dataclasses', 'inspect', 'statistics'} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------- experiments


def test_perfect_predictions_rows_match_offline_optimum():
    rows = run_experiment(_config())
    by_policy = {}
    for row in rows:
        assert row.eta == 0.0
        by_policy.setdefault((row.seed, row.policy), row)
    for seed in (0, 1):
        assert by_policy[(seed, "blind_oracle")].cost == by_policy[(seed, "belady")].cost


def test_k1_marks_second_bound_vacuous():
    rows = run_experiment(_config(k=[1]))
    bo_rows = [r for r in rows if r.policy == "blind_oracle"]
    assert bo_rows
    for row in bo_rows:
        assert "thm1_prop2(vacuous)" in row.bounds_passed


def test_rows_cover_the_whole_grid_and_aggregate_randomized():
    config = _config(policies=["lru", "marker"], k=[2, 4], seeds=3)
    rows = run_experiment(config)
    marker_agg = [r for r in rows if r.policy == "marker" and r.seed is None]
    assert len(marker_agg) == 2  # one per k
    lru_rows = [r for r in rows if r.policy == "lru"]
    assert len(lru_rows) == 2 * 3
    agg = marker_agg[0]
    per_seed = [
        r.cost for r in rows if r.policy == "marker" and r.seed is not None and r.k == agg.k
    ]
    assert agg.cost == pytest.approx(statistics.fmean(per_seed))


def test_mean_rows_are_the_policies_with_a_bound_in_expectation():
    expected = {b.policy for b in BOUNDS if b.in_expectation}
    assert expected == {"marker", "mw"}
    rows = run_experiment(_config(policies=list(POLICY_NAMES)))
    assert {r.policy for r in rows if r.seed is None} == expected


def test_trace_file_source(tmp_path):
    trace = synthesize(
        WorkloadSpec("zipf", universe=15, length=120, alpha=1.0),
        NoiseSpec("additive_uniform", width=3.0),
        seed=3,
    )
    path = tmp_path / "sample.csv"
    path.write_text(write_trace(trace), encoding="utf-8")
    config = config_from_mapping(
        {"policies": ["lru", "blind_oracle"], "k": 3, "trace": str(path)}
    )
    rows = run_experiment(config)
    assert all(row.trace_id == "sample" for row in rows)
    assert all(row.noise_id == "file" for row in rows)
    # with a noise section, predictions are re-derived from the file's arrivals
    noisy = config_from_mapping(
        {
            "policies": ["lru"],
            "k": 3,
            "trace": str(path),
            "noise": [{"kind": "perfect"}],
        }
    )
    noisy_rows = run_experiment(noisy)
    assert all(row.eta == 0.0 for row in noisy_rows)


def test_mw_rows_include_combiner_bounds():
    config = _config(
        policies=["blind_oracle", "marker", "mw", "ftl", "lru", "belady"],
        seeds=2,
        epsilon=0.1,
        noise=[{"kind": "additive_uniform", "width": 4.0}],
    )
    rows = run_experiment(config)
    mw_rows = [r for r in rows if r.policy == "mw" and r.seed is not None]
    assert mw_rows
    for row in mw_rows:
        assert any(b.startswith("mw_thm3") for b in row.bounds_passed + row.bounds_failed)
    ftl_rows = [r for r in rows if r.policy == "ftl"]
    for row in ftl_rows:
        assert any(b.startswith("ftl_thm2") for b in row.bounds_passed + row.bounds_failed)


def test_rows_do_not_depend_on_policy_order():
    # mw combines the marker run; whichever of the two is built first, the
    # marker row and mw's expert are one run seeded alike
    def rows(order):
        config = config_from_mapping(
            {
                "policies": order,
                "k": 4,
                "seeds": [1, 2],
                "workload": {"kind": "zipf", "universe": 40, "length": 600},
            }
        )
        return sorted(render_csv(run_experiment(config)).splitlines())

    assert rows(["marker", "mw"]) == rows(["mw", "marker"])


def test_runs_without_predictions_are_built_once_per_seed_and_k(monkeypatch):
    # lru, belady and marker (also mw's expert) never read a prediction, so
    # every noise's cell shares them; blind_oracle reads them and is built per
    # cell, except in the exact (perfect) cells, where it is the belady run
    noises = [
        {"kind": "perfect"},
        {"kind": "additive_uniform", "width": 6.0},
        {"kind": "random_replace", "prob": 0.5, "limit": 300.0},
    ]
    config = config_from_mapping(
        {
            "policies": list(POLICY_NAMES),
            "k": [2, 5],
            "seeds": [3, 4],
            "workload": {"kind": "zipf", "universe": 30, "length": 300},
            "noise": noises,
        }
    )
    built = Counter()
    init = Policy.__init__

    def counted(self, k):
        built[type(self).__name__] += 1
        init(self, k)

    monkeypatch.setattr(Policy, "__init__", counted)
    rows = run_experiment(config)
    monkeypatch.undo()
    seed_ks = len(config.seeds) * len(config.ks)
    assert built["LRU"] == built["Belady"] == built["Marker"] == seed_ks
    assert built["BlindOracle"] == (len(noises) - 1) * seed_ks
    assert built["FtlCombiner"] == built["MwCombiner"] == len(noises) * seed_ks

    # every row matches its cell built and served alone
    cells = 0
    for noise in config.noises:
        for seed in config.seeds:
            trace = synthesize(config.workload, noise, seed)
            for k in config.ks:
                runs = make_policies(
                    POLICY_NAMES, k, trace, seed=seed, epsilon=config.epsilon
                )
                simulate(trace.requests, runs.values())
                for row in rows:
                    if (row.noise_id, row.seed, row.k) == (noise.label, seed, k):
                        assert (row.cost, row.opt) == (
                            runs[row.policy].cost, runs["belady"].cost
                        ), row
                        cells += 1
    assert cells == len(noises) * seed_ks * len(POLICY_NAMES)


def test_one_marker_run_serves_each_seed_and_k(monkeypatch):
    # the marker row and mw's expert are one run, seeded Random(seed): the
    # bodies of a (seed, k)'s Markers are sent each request once in all
    config = config_from_mapping(
        {
            "policies": list(POLICY_NAMES),
            "k": [4, 8],
            "seeds": [3, 4],
            "workload": {"kind": "zipf", "universe": 30, "length": 300},
            "noise": [{"kind": "perfect"}, {"kind": "additive_uniform", "width": 6.0}],
        }
    )
    seed_of = {random.Random(seed).getstate(): seed for seed in config.seeds}
    sent = Counter()
    steps = Marker._steps

    def spied(self):
        run = (seed_of[self.rng.getstate()], self.k)
        body = steps(self)
        evicted = next(body)
        while True:
            item = yield evicted
            sent[run] += 1
            evicted = body.send(item)

    monkeypatch.setattr(Marker, "_steps", spied)
    run_experiment(config)
    runs = [(seed, k) for seed in config.seeds for k in config.ks]
    assert sent == dict.fromkeys(runs, config.workload.length)


EXACT_NOISES = [{"kind": "perfect"}, {"kind": "additive_uniform", "width": 0.0}]
NOISY = [
    {"kind": "additive_uniform", "width": 8.0},
    {"kind": "random_replace", "prob": 0.5, "limit": 300.0},
]


@pytest.mark.parametrize(
    "noises",
    [
        [*EXACT_NOISES, *NOISY],
        [*NOISY, *EXACT_NOISES],
        [NOISY[0], EXACT_NOISES[0], NOISY[1], EXACT_NOISES[1]],
    ],
    ids=["exact_first", "exact_last", "exact_between"],
)
@pytest.mark.parametrize(
    "policies", [["ftl"], ["mw"], ["blind_oracle"], list(POLICY_NAMES)], ids="-".join
)
def test_exact_cells_serve_alike_in_any_noise_order(noises, policies):
    # an exact cell's blind_oracle is the shared belady run; each row must
    # equal its cell run alone, and its policy built without the trace (so
    # never the belady run) and served online
    data = {
        "policies": policies,
        "k": [1, 4],
        "seeds": [5, 6],
        "workload": {"kind": "zipf", "universe": 25, "length": 250},
        "noise": noises,
    }
    config = config_from_mapping(data)
    rows = run_experiment(config)
    assert len(rows) == len(config.noises) * len(config.ks) * (
        len(config.seeds) * len(policies) + sum(p in ("marker", "mw") for p in policies)
    )
    for raw, noise in zip(noises, config.noises):
        for seed in config.seeds:
            alone = run_experiment(config_from_mapping({**data, "noise": raw, "seeds": [seed]}))
            trace = synthesize(config.workload, noise, seed)
            for k in config.ks:
                belady = make_policies(("belady",), k, trace)["belady"]
                simulate(trace.requests, [belady])
                cell = [r for r in rows if (r.noise_id, r.seed, r.k) == (noise.label, seed, k)]
                assert cell == [r for r in alone if r.k == k and r.seed == seed]
                for row in cell:
                    if row.policy == "belady":
                        cost = belady.cost
                    else:
                        run = make_policies(
                            (row.policy,), k, seed=seed, epsilon=config.epsilon
                        )[row.policy]
                        serve_all(run, trace.requests, trace.predictions)
                        cost = run.cost
                    assert (row.cost, row.opt) == (cost, belady.cost)
                    recorded = {b.removesuffix("(vacuous)") for b in row.bounds_passed}
                    assert recorded | set(row.bounds_failed) == {
                        b.bound_id for b in BOUNDS if b.policy in (None, row.policy)
                    }


def test_mw_bounds_read_the_marker_mw_combined():
    # mw combines the (seed, k)'s one marker run, so the cell's marker cost,
    # which mw_thm3 and cor2_rand read, is the cost of the Marker mw combined
    # whether or not marker is configured, and the mw rows are the same
    workload = {"kind": "uniform", "universe": 30, "length": 400}
    trace = synthesize(WorkloadSpec(**workload), NoiseSpec("perfect"), seed=0)
    runs = make_policies(("marker", "mw"), 4, trace, seed=0, epsilon=0.1)
    assert runs["mw"].experts[1] is runs["marker"]
    simulate(trace.requests, runs.values())
    assert runs["marker"].cost == 336
    mw_rows = set()
    for policies in (["mw"], ["marker", "mw"], ["mw", "marker"]):
        config = _config(policies=policies, k=[4], seeds=[0, 1], workload=workload, epsilon=0.1)
        [(_, costs)] = _cell_costs(config, [trace], 4, 0)
        assert costs["marker"] == runs["mw"].experts[1].cost, policies
        assert costs["mw"] == runs["mw"].cost, policies
        lines = render_csv(run_experiment(config)).splitlines()
        mw_rows.add(tuple(line for line in lines if ",mw," in line))
    [rows] = mw_rows
    assert len(rows) == 3  # two seeds and their mean


def test_adversary_rows():
    config = config_from_mapping(
        {
            "policies": ["lru", "blind_oracle", "marker"],
            "adversary": {"k": 3, "j": 2, "num_phases": 5},
        }
    )
    rows = run_experiment(config)
    adv_rows = [r for r in rows if r.noise_id == "adaptive"]
    assert {r.policy for r in adv_rows} == {"lru", "blind_oracle"}  # marker skipped
    for row in adv_rows:
        assert "lower_bound_thm4" in row.bounds_passed
        assert row.opt <= 10


# ---------------------------------------------------------------- CSV output


def test_emit_csv_header_only_for_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def test_single_row_renders_two_lines():
    row = ResultRow("tr", 2, "perfect", 0, "lru", 5, 4, 0.0, 0, 0.0, ("lru_k",), ())
    text = render_csv([row])
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "tr,2,perfect,0,lru,5,4,0,0,0,lru_k,"


def test_repeated_runs_are_byte_identical(tmp_path):
    config = _config(
        policies=["lru", "belady", "blind_oracle", "marker", "ftl", "mw"],
        seeds=2,
        noise=[{"kind": "additive_gaussian", "sigma": 4.0}],
    )
    a = render_csv(run_experiment(config))
    b = render_csv(run_experiment(config))
    assert a == b
    out = tmp_path / "out.csv"
    emit_csv(run_experiment(config), str(out))
    assert out.read_text(encoding="utf-8") == a


def test_row_order_is_stable():
    config = _config(k=[4, 2], seeds=[5, 1])
    rows = run_experiment(config)
    keys = [(r.trace_id, r.k, r.noise_id, r.seed if r.seed is not None else 1 << 60, r.policy)
            for r in rows]
    assert keys == sorted(keys)


def test_row_verdicts_reproducible_from_row_quantities():
    from predcache import check_bounds

    config = _config(noise=[{"kind": "additive_uniform", "width": 5.0}])
    rows = run_experiment(config)
    for row in rows:
        if row.policy != "blind_oracle" or row.seed is None:
            continue
        report = check_bounds(
            {"blind_oracle": row.cost}, int(row.opt), row.eta, int(row.inversions), row.k
        )
        expected_failed = tuple(
            b for b in ("thm1_prop1", "thm1_prop2") if not report.get(b).passed
        )
        assert row.bounds_failed == expected_failed


def test_aggregate_mean_eps_ratio_nondecreasing_in_noise():
    # widening uniform noise must not shrink the mean error ratio
    widths = [0.0, 1.0, 2.0, 4.0, 8.0]
    config = config_from_mapping(
        {
            "policies": ["blind_oracle"],
            "k": 4,
            "seeds": 50,
            "workload": {"kind": "zipf", "universe": 25, "length": 400, "alpha": 1.0},
            "noise": [
                {"kind": "additive_uniform", "width": w} for w in widths
            ],
        }
    )
    rows = run_experiment(config)
    means = []
    for w in widths:
        noise_id = NoiseSpec("additive_uniform", width=w).label
        ratios = [r.eps_ratio for r in rows if r.noise_id == noise_id and r.seed is not None]
        assert all(r is not None for r in ratios)
        means.append(statistics.fmean(ratios))
    assert means == sorted(means)


# ---------------------------------------------------------------- CLI process


def test_main_writes_csv(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "policies: [lru, belady]\nk: [2]\nseeds: 1\n"
        "workload:\n  kind: uniform\n  universe: 8\n  length: 50\n"
        f"out: {tmp_path / 'res.csv'}\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 0
    text = (tmp_path / "res.csv").read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER)


def test_main_flag_overrides(tmp_path, capsys):
    trace = synthesize(
        WorkloadSpec("uniform", universe=6, length=40), NoiseSpec("perfect"), seed=0
    )
    tr = tmp_path / "t.csv"
    tr.write_text(write_trace(trace), encoding="utf-8")
    out = tmp_path / "o.csv"
    code = main(
        ["--trace", str(tr), "--out", str(out), "--k", "2", "--policy", "lru", "--seed", "4"]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2  # one policy, one seed, one k
    assert ",lru," in lines[1]


def test_a_trace_id_with_a_comma_or_quote_is_quoted(tmp_path):
    trace = _trace_file(tmp_path)
    path = tmp_path / 'a,b "c".csv'
    Path(trace).rename(path)
    out = tmp_path / "res.csv"
    assert main(["--trace", str(path), "--policy", "lru", "--out", str(out)]) == 0
    with out.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == list(ResultRow._fields)
    assert rows and all(len(row) == len(header) for row in rows)
    assert {row[0] for row in rows} == {'a,b "c"'}


def _main_csv(tmp_path, data, *flags) -> bytes:
    """The CSV bytes ``main`` writes for the YAML config ``data`` and ``flags``."""
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["--config", str(cfg), *flags]) == 0
    return Path(flags[flags.index("--out") + 1] if "--out" in flags else data["out"]).read_bytes()


def _trace_file(tmp_path, name="t", seed=0) -> str:
    workload = WorkloadSpec("zipf", universe=15, length=120)
    trace = synthesize(workload, NoiseSpec("additive_uniform", width=6.0), seed)
    path = tmp_path / f"{name}.csv"
    path.write_text(write_trace(trace), encoding="utf-8")
    return str(path)


def test_trace_flag_keeps_the_files_predictions_over_a_workload_config(tmp_path):
    # --trace replaces a configured workload; without a noise section the
    # file's own predictions are read, as from a config without a workload
    trace = _trace_file(tmp_path)
    base = {"policies": ["lru", "blind_oracle"], "k": [3], "out": str(tmp_path / "res.csv")}
    from_workload = _main_csv(tmp_path, {**base, "workload": dict(WORKLOAD)}, "--trace", trace)
    assert from_workload == _main_csv(tmp_path, base, "--trace", trace)
    assert from_workload == _main_csv(tmp_path, {**base, "trace": trace})
    rows = from_workload.decode().splitlines()[1:]
    assert rows and all(row.split(",")[2] == "file" for row in rows)


@pytest.mark.parametrize(
    "key,value,flags",
    [
        ("trace", "{other}", ["--trace", "{other}"]),
        ("out", "{out}", ["--out", "{out}"]),
        ("seeds", [7], ["--seed", "7"]),
        ("k", [5], ["--k", "5"]),
        ("policies", ["mw", "lru"], ["--policy", "mw", "--policy", "lru"]),
        ("epsilon", 0.2, ["--epsilon", "0.2"]),
    ],
)
def test_each_flag_gives_the_bytes_of_its_config_key(tmp_path, key, value, flags):
    names = {"other": _trace_file(tmp_path, "other", seed=1), "out": str(tmp_path / "o.csv")}
    value = value.format(**names) if isinstance(value, str) else value
    flags = [flag.format(**names) for flag in flags]
    base = {
        "policies": ["lru", "marker", "mw"],
        "k": [2, 3],
        "seeds": [1, 2],
        "trace": _trace_file(tmp_path),
        "out": str(tmp_path / "res.csv"),
    }
    from_flag = _main_csv(tmp_path, base, *flags)
    assert from_flag == _main_csv(tmp_path, {**base, key: value})
    if key != "out":
        assert from_flag != _main_csv(tmp_path, base)


def test_a_config_without_k_runs_at_k_8(tmp_path):
    data = {"policies": ["lru"], "workload": dict(WORKLOAD)}
    cfg = tmp_path / "lib.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert {row.k for row in run_experiment(load_config(str(cfg)))} == {8}
    rows = _main_csv(tmp_path, data, "--out", str(tmp_path / "res.csv")).decode().splitlines()[1:]
    assert rows and all(row.split(",")[1] == "8" for row in rows)


def test_an_empty_k_list_is_a_configuration_error(tmp_path, capsys):
    cfg, out = tmp_path / "exp.yaml", tmp_path / "res.csv"
    cfg.write_text(
        "policies: [lru]\nk: []\nworkload: {kind: uniform, universe: 8, length: 20}\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="at least one cache size k is required"):
        run_experiment(load_config(str(cfg)))
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: at least one cache size k is required\n"
    assert not out.exists()


def test_main_configuration_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("policies: [nope]\nk: [2]\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1


def test_main_unparseable_trace_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,page,h\n1,a,-3\n", encoding="utf-8")
    assert main(["--trace", str(bad), "--policy", "lru", "--k", "2"]) == 1


def test_main_io_error_exit_code(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "policies: [lru]\nk: [2]\nseeds: 1\n"
        "workload:\n  kind: uniform\n  universe: 8\n  length: 20\n"
        "out: /nonexistent-dir/res.csv\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 2


def test_main_fatal_bound_exit_code(tmp_path, monkeypatch):
    import predcache.cli as cli_module

    row = ResultRow("tr", 2, "perfect", 0, "lru", 9, 1, 0.0, 0, 0.0, (), ("lru_k",))
    monkeypatch.setattr(cli_module, "run_experiment", lambda config: [row])
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "policies: [lru]\nk: [2]\nfatal_bounds: [lru_k]\n"
        "workload:\n  kind: uniform\n  universe: 8\n  length: 20\n"
        f"out: {tmp_path / 'res.csv'}\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 3


@pytest.mark.parametrize(
    "overrides",
    [
        {"k": "abc"},
        {"k": 0.5},
        {"seeds": ["a"]},
        {"epsilon": "abc"},
        {"noise": {"kind": "additive_uniform", "width": "x"}},
        {"adversary": {"k": "x", "j": 1}},
        {"fatal_bounds": ["nonexistent"]},
        {"policies": ["mw"], "workload": None, "adversary": {"k": 3, "j": 1}},
        {"noise": [5]},
        {"out": 5},
        {"policies": ["lru", "lru"]},
        {"policies": None},
        {"policies": "nope"},
        {"fatal_bounds": "nope"},
        {"seeds": True},
        {"noise": {"kind": "lognormal_scale", "sigma": float("inf")}},
        {"noise": {"kind": "additive_gaussian", "sigma": float("nan")}},
        {"noise": {"kind": "additive_uniform", "width": float("inf")}},
        {"noise": {"kind": "constant_shift", "shift": float("-inf")}},
        {"noise": {"kind": "random_replace", "prob": 0.5, "limit": float("nan")}},
        {"k": [2, 2]},
        {"seeds": [1, 1]},
        {"noise": [{"kind": "perfect"}, {"kind": "perfect"}]},
        {"noise": {"kind": "constant_shift", "shift": 10**400}},
        {"noise": {"kind": "additive_uniform", "width": -(10**400)}},
        {"epsilon": 10**400},
        {"workload": {"kind": "zipf", "universe": 8, "length": 20, "alpha": 10**400}},
        {"seeds": 10**20},
        {1: "x", "foo": "y"},
        {"workload": {"kind": "uniform", "universe": 8, "length": 20, 1: "x", "foo": "y"}},
        {"noise": {"kind": [1]}},
        {"workload": {"kind": {"a": 1}, "universe": 8, "length": 20}},
    ],
    ids=["k_text", "k_fraction", "seed_text", "epsilon_text", "noise_width_text",
         "adversary_k_text", "fatal_bound_unknown", "adversary_without_its_policies",
         "noise_not_a_mapping", "out_not_a_path", "policy_repeated", "policies_null",
         "policy_scalar_unknown", "fatal_bound_scalar_unknown", "seeds_bool",
         "noise_sigma_inf", "noise_sigma_nan", "noise_width_inf", "noise_shift_minus_inf",
         "noise_limit_nan", "k_repeated", "seeds_repeated", "noise_repeated",
         "noise_shift_beyond_float", "noise_width_beyond_float", "epsilon_beyond_float",
         "zipf_alpha_beyond_float", "seeds_count_beyond_a_list", "keys_of_mixed_types",
         "workload_keys_of_mixed_types", "noise_kind_not_a_string",
         "workload_kind_not_a_string"],
)
def test_main_rejects_malformed_input(tmp_path, capsys, overrides):
    data = {
        "policies": ["lru"],
        "k": [2],
        "seeds": 1,
        "workload": {"kind": "uniform", "universe": 8, "length": 20},
        "out": str(tmp_path / "res.csv"),
    }
    data.update(overrides)
    cfg = tmp_path / "exp.yaml"
    # unsorted: sorting keys of mixed types would fail here, not in the CLI
    cfg.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "res.csv").exists()


# one parameter per kind that the kind does not read, set off its default
UNREAD = [
    ("workload", {"kind": "uniform", "universe": 8, "length": 20, "alpha": 3.0}, "alpha"),
    ("workload", {"kind": "zipf", "universe": 8, "length": 20, "cycle": 5}, "cycle"),
    ("workload", {"kind": "cyclic", "universe": 8, "length": 20, "phase_len": 7}, "phase_len"),
    ("workload", {"kind": "phased", "universe": 8, "length": 20, "phase_len": 5, "alpha": 2.0},
     "alpha"),
    ("noise", {"kind": "perfect", "width": 8.0}, "width"),
    ("noise", {"kind": "additive_uniform", "width": 2.0, "sigma": 1.0}, "sigma"),
    ("noise", {"kind": "additive_gaussian", "width": 8.0}, "width"),
    ("noise", {"kind": "lognormal_scale", "sigma": 0.5, "shift": 1.0}, "shift"),
    ("noise", {"kind": "constant_shift", "shift": 1.0, "prob": 0.5}, "prob"),
    ("noise", {"kind": "random_replace", "prob": 0.5, "limit": 10.0, "width": 1.0}, "width"),
]
UNREAD_IDS = [f"{section}_{fields['kind']}_{name}" for section, fields, name in UNREAD]


@pytest.mark.parametrize("section, fields, name", UNREAD, ids=UNREAD_IDS)
def test_a_spec_refuses_a_parameter_its_kind_does_not_read(section, fields, name):
    spec = (WorkloadSpec if section == "workload" else NoiseSpec)(**fields)
    message = f"{section} kind {fields['kind']} does not read {name}"
    with pytest.raises(ConfigError, match=message):
        spec.validate()
    # the same parameter at its default is accepted
    spec._replace(**{name: type(spec)._field_defaults[name]}).validate()


@pytest.mark.parametrize("section, fields, name", UNREAD, ids=UNREAD_IDS)
def test_main_refuses_a_parameter_a_kind_does_not_read(tmp_path, capsys, section, fields, name):
    data = {
        "policies": ["lru"],
        "workload": {"kind": "uniform", "universe": 8, "length": 20},
        section: fields,
        "out": str(tmp_path / "res.csv"),
    }
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    message = f"{section} kind {fields['kind']} does not read {name}"
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "res.csv").exists()


def test_main_clamps_an_overflowing_lognormal_draw(tmp_path):
    # exp of a draw with sigma 1000 overflows; the prediction is clamped
    cfg, out = tmp_path / "exp.yaml", tmp_path / "res.csv"
    cfg.write_text(
        "policies: [lru, blind_oracle]\nk: [2]\nseeds: 2\n"
        "workload: {kind: uniform, universe: 8, length: 10}\n"
        "noise: [{kind: lognormal_scale, sigma: 1000}]\n"
        f"out: {out}\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg)]) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == CSV_HEADER and len(rows) == 4
    columns = CSV_HEADER.split(",")
    for row in rows:
        fields = dict(zip(columns, row.split(",")))
        for name in ("cost", "opt", "eta", "inversions", "eps_ratio"):
            assert math.isfinite(float(fields[name])), (name, row)
    assert max(float(row.split(",")[columns.index("eta")]) for row in rows) >= 1e30


def test_main_is_fast_at_a_cache_size_beyond_the_trace(tmp_path):
    # opt is 0, so no bound needs H_k, an O(k) sum
    cfg, out = tmp_path / "exp.yaml", tmp_path / "res.csv"
    cfg.write_text(
        "policies: [lru, belady, marker, blind_oracle, ftl, mw]\nk: 100000000000000000000\n"
        f"workload: {{kind: uniform, universe: 10, length: 10}}\nout: {out}\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert main(["--config", str(cfg)]) == 0
    assert time.perf_counter() - start < 1.0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == CSV_HEADER and len(rows) == 6
    assert all(row.split(",")[CSV_HEADER.split(",").index("cost")] == "0" for row in rows)


@pytest.mark.parametrize(
    "workload",
    [
        "{kind: uniform, universe: 1000000000000000000000000000000, length: 10}",
        "{kind: cyclic, universe: 1000000000000000000000000000000, length: 10}",
        "{kind: phased, universe: 1000000000000000000000000000000, length: 10, phase_len: 3}",
    ],
    ids=["uniform", "cyclic", "phased"],
)
def test_main_is_fast_at_a_universe_beyond_the_trace(tmp_path, workload):
    # page names are made for the drawn indexes only, never for the universe
    cfg, out = tmp_path / "exp.yaml", tmp_path / "res.csv"
    cfg.write_text(
        f"policies: [lru, belady, blind_oracle]\nk: [2]\nworkload: {workload}\nout: {out}\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert main(["--config", str(cfg)]) == 0
    assert time.perf_counter() - start < 1.0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == CSV_HEADER and len(rows) == 3
    # ten requests to ten distinct pages: every miss after the first two evicts
    assert all(row.split(",")[CSV_HEADER.split(",").index("cost")] == "8" for row in rows)


@pytest.mark.parametrize("k", [10**308, 10**400])
def test_main_rejects_a_cache_size_too_large_for_a_float(tmp_path, capsys, k):
    cfg, out = tmp_path / "exp.yaml", tmp_path / "res.csv"
    cfg.write_text(
        "policies: [lru, ftl]\nworkload: {kind: uniform, universe: 8, length: 10}\n"
        f"out: {out}\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg), "--k", str(k)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cache sizes must be at most")
    assert "Traceback" not in err
    assert not out.exists()


def test_main_rejects_a_repeated_policy_flag(tmp_path, capsys):
    out = tmp_path / "res.csv"
    argv = ["--policy", "lru", "--policy", "lru", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error: policies must not repeat")
    assert not out.exists()


def test_main_rejects_a_trace_that_is_not_utf8(tmp_path, capsys):
    trace, out = tmp_path / "bad.csv", tmp_path / "res.csv"
    trace.write_bytes(b"t,page,h\n1,\xff\xfe,3\n")
    assert main(["--trace", str(trace), "--policy", "lru", "--k", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: trace {trace} is not UTF-8")
    assert not out.exists()


def test_main_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg, out = tmp_path / "bad.yaml", tmp_path / "res.csv"
    cfg.write_bytes(b"policies: [lru]\nk: [2]\n# \xff\xfe\n")
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: cannot read config {cfg}")
    assert not out.exists()


def test_main_rejects_a_config_nested_too_deeply(tmp_path, capsys):
    cfg, out = tmp_path / "deep.yaml", tmp_path / "res.csv"
    cfg.write_text(f"k: {'[' * 2000}{']' * 2000}\nout: {out}\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: invalid YAML in {cfg}: nested too deeply")
    assert "Traceback" not in err
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(predcache.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "sweep.csv"
    run = subprocess.run(
        [sys.executable, "-m", "predcache", "--config", "sweep.yaml", "--out", str(out)],
        cwd=GOLDEN, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == (GOLDEN / "sweep.expected.csv").read_bytes()

    bad = tmp_path / "bad.yaml"
    bad.write_text("policies: [nope]\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "predcache", "--config", str(bad), "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("configuration error: ")


@pytest.mark.parametrize(
    "name,calls", [("file", 1), ("sweep", 5), ("file_noise", 2), ("exact_late", 2)]
)
def test_each_golden_trace_is_counted_once(tmp_path, monkeypatch, name, calls):
    # a (noise, seed) trace is counted once for every k, the file's own
    # predictions once for every seed, an exact trace never, and each
    # adversary row once
    counted = []

    def count(trace):
        counted.append(trace.n)
        return count_inversions_fast(trace)

    monkeypatch.setattr(predcache.cli, "count_inversions_fast", count)
    monkeypatch.chdir(GOLDEN)
    assert main(["--config", f"{name}.yaml", "--out", str(tmp_path / "out.csv")]) == 0
    assert len(counted) == calls


@pytest.mark.parametrize(
    "name,calls", [("file", 1), ("sweep", 2), ("file_noise", 2), ("exact_late", 2)]
)
def test_each_golden_trace_is_measured_once_unless_exact(tmp_path, monkeypatch, name, calls):
    # a (noise, seed) trace's l1 loss is summed once for all its k, the
    # file's own predictions once for all seeds, and an exact trace's (0.0)
    # never; an adversary row reads its eta off the adversary's result
    measured = []

    def loss(arrivals, predictions):
        measured.append(len(predictions))
        return ell1_loss(arrivals, predictions)

    monkeypatch.setattr(predcache.cli, "ell1_loss", loss)
    monkeypatch.chdir(GOLDEN)
    assert main(["--config", f"{name}.yaml", "--out", str(tmp_path / "out.csv")]) == 0
    assert len(measured) == calls


@pytest.mark.parametrize(
    "name,calls",
    [("sweep", 5), ("file", 1), ("file_noise", 1), ("exact_late", 2), ("uniform", 2)],
)
def test_each_golden_derives_next_arrivals_once_per_request_sequence(
    tmp_path, monkeypatch, name, calls
):
    # once per seed of a workload, whatever its noise models; once for a
    # trace file, whatever its seeds; once per adversary row (sweep: 2 seeds
    # and the lru, blind_oracle and ftl rows)
    derived = []

    def spy(requests):
        derived.append(len(requests))
        return next_arrivals(requests)

    monkeypatch.setattr(predcache.trace, "next_arrivals", spy)
    monkeypatch.chdir(GOLDEN)
    assert main(["--config", f"{name}.yaml", "--out", str(tmp_path / "out.csv")]) == 0
    assert len(derived) == calls


@pytest.mark.parametrize("name", ["file", "file_noise"])
def test_a_trace_file_is_parsed_once_per_sweep(tmp_path, monkeypatch, name):
    # both sweep 2 seeds and k 1 and 8 over phased.csv: one parse serves them all
    parsed = []

    def parse(text):
        parsed.append(len(text))
        return parse_trace(text)

    monkeypatch.setattr(predcache.cli, "parse_trace", parse)
    monkeypatch.chdir(GOLDEN)
    assert main(["--config", f"{name}.yaml", "--out", str(tmp_path / "out.csv")]) == 0
    assert parsed == [(GOLDEN / "phased.csv").stat().st_size]


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.yaml")))
def test_golden_results_are_byte_identical(tmp_path, monkeypatch, name):
    # The expected CSVs were written by an earlier revision of the program;
    # any change to the rows a fixed config produces must be deliberate.
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "out.csv"
    assert main(["--config", f"{name}.yaml", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.expected.csv").read_bytes()
