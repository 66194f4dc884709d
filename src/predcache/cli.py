"""Experiment runner: sweeps policies over traces, noise models and seeds.

Configuration lives in a YAML file (nested key-value sections); command-line
flags override individual values.  Results are written as a CSV whose rows are
fully determined by the configuration, so re-running an identical config
reproduces the output byte for byte.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 when a bound
check listed in ``fatal_bounds`` fails.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import yaml

from .adversary import AdversaryConfig, certify_lower_bound, run_adversary

# run_policy, run_ftl, run_mw and synthesize are not called here.  The
# benchmark's tracer looks them up by name on this module, and its file
# workload builds its trace with predcache.synthesize, so they stay until
# the benchmark's set-up and tracer stop reading them.
from .combine import POLICY_NAMES, make_policies, run_ftl, run_mw, run_policy  # noqa: F401
from .combine import EXPERTS
from .errors import ConfigError, TraceParseError
from .metrics import BOUND_IDS, BOUNDS, BoundRecord, check_bounds, count_inversions_fast
from .metrics import ell1_loss
from .policies import Policy, simulate
from .trace import NoiseSpec, Trace, WorkloadSpec, parse_trace, perturb_predictions
from .trace import synthesize, synthesize_requests  # noqa: F401

CSV_HEADER = (
    "trace_id,k,noise_id,seed,policy,cost,opt,eta,inversions,eps_ratio,"
    "bounds_passed,bounds_failed"
)

_ADVERSARY_POLICIES = ("lru", "blind_oracle", "ftl")


@dataclass(frozen=True)
class ExperimentConfig:
    policies: tuple[str, ...]
    ks: tuple[int, ...]
    seeds: tuple[int, ...]
    workload: WorkloadSpec | None = None
    trace_path: str | None = None
    noises: tuple[NoiseSpec, ...] = ()
    epsilon: float = 0.1
    adversary: AdversaryConfig | None = None
    out_path: str = "results.csv"
    fatal_bounds: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.policies:
            raise ConfigError("at least one policy is required")
        for name in self.policies:
            if name not in POLICY_NAMES:
                raise ConfigError(f"unknown policy {name!r}")
        # a repeat, or two noises of one label (the rows' noise_id), would write rows twice
        for what, values in (
            ("policies", self.policies),
            ("k", self.ks),
            ("seeds", self.seeds),
            ("noise labels", [noise.label for noise in self.noises]),
        ):
            if len(set(values)) != len(values):
                raise ConfigError(f"{what} must not repeat, got {list(values)}")
        if "mw" in self.policies and not 0.0 < self.epsilon < 0.25:
            raise ConfigError("mw requires epsilon in (0, 1/4)")
        if self.workload is not None and self.trace_path is not None:
            raise ConfigError("give either a workload or a trace file, not both")
        if self.workload is None and self.trace_path is None and self.adversary is None:
            raise ConfigError("no trace source: configure a workload, trace file or adversary")
        if self.workload is not None:
            self.workload.validate()
        for noise in self.noises:
            noise.validate()
        if not self.ks and (self.workload is not None or self.trace_path is not None):
            raise ConfigError("at least one cache size k is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        for k in self.ks:
            if k < 1:
                raise ConfigError("cache sizes must be >= 1")
            # the bounds turn k, 2k and 8k into floats
            if k > sys.float_info.max / 8:
                raise ConfigError(f"cache sizes must be at most {sys.float_info.max / 8:.4g}")
        if self.adversary is not None:
            self.adversary.validate()
            if not set(self.policies) & set(_ADVERSARY_POLICIES):
                raise ConfigError(f"the adversary runs only {', '.join(_ADVERSARY_POLICIES)}")
        for bound_id in self.fatal_bounds:
            if bound_id not in BOUND_IDS:
                raise ConfigError(f"unknown bound id {bound_id!r} in fatal_bounds")


@dataclass(frozen=True)
class ResultRow:
    trace_id: str
    k: int
    noise_id: str
    seed: int | None  # None marks an aggregate (mean over seeds) row
    policy: str
    cost: float
    opt: float
    eta: float
    inversions: float
    eps_ratio: float | None
    bounds_passed: tuple[str, ...]
    bounds_failed: tuple[str, ...]


def _number(what: str, value, integer: bool = False):
    """``value`` if it is a number (an integer when ``integer``), else ConfigError.

    A number for a float field must convert to a float: an int beyond the
    float range does not.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    if not integer:
        try:
            float(value)
        except OverflowError:
            bits = value.bit_length()
            raise ConfigError(f"{what} must lie in the float range, got a {bits}-bit int") from None
    return value


def _section(cls, section: str, data):
    """Build ``cls`` from a config section; its dataclass fields give the keys.

    Fields without a default are required; every value but the ``kind`` string
    must be a number, an integer where the field is annotated ``int``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a mapping, got {data!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    for name, f in declared.items():
        if name not in data:
            if f.default is MISSING:
                raise ConfigError(f"{section} needs {name!r}")
        elif name != "kind":
            _number(f"{section} {name}", data[name], integer=f.type == "int")
    return cls(**data)


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed YAML mapping."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    allowed = {
        "policies",
        "k",
        "seeds",
        "workload",
        "trace",
        "noise",
        "epsilon",
        "adversary",
        "out",
        "fatal_bounds",
    }
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    trace_path, out_path = data.get("trace"), data.get("out", "results.csv")
    if not isinstance(trace_path, (str, type(None))) or not isinstance(out_path, str):
        raise ConfigError(f"trace and out must be paths, got {trace_path!r} and {out_path!r}")
    seeds = data.get("seeds", [0])
    if isinstance(seeds, int) and not isinstance(seeds, bool):
        if seeds > sys.maxsize:
            bits = seeds.bit_length()
            raise ConfigError(f"a seeds count must be at most {sys.maxsize}, got a {bits}-bit int")
        seeds = list(range(seeds))
    # a single value stands for a one-element list
    ks, seeds, noises, policies, fatal_bounds = (
        v if isinstance(v, list) else [v]
        for v in (
            data.get("k", []),
            seeds,
            data.get("noise", []),
            data.get("policies", ["lru", "belady", "blind_oracle", "marker"]),
            data.get("fatal_bounds", []),
        )
    )
    workload = data.get("workload")
    if workload is not None and not noises:
        noises = [{"kind": "perfect"}]
    adversary = data.get("adversary")
    return ExperimentConfig(
        policies=tuple(policies),
        ks=tuple(_number("k", k, integer=True) for k in ks),
        seeds=tuple(_number("seeds", s, integer=True) for s in seeds),
        workload=_section(WorkloadSpec, "workload", workload) if workload is not None else None,
        trace_path=trace_path,
        noises=tuple(_section(NoiseSpec, "noise", n) for n in noises),
        epsilon=float(_number("epsilon", data.get("epsilon", 0.1))),
        adversary=(
            _section(AdversaryConfig, "adversary", adversary) if adversary is not None else None
        ),
        out_path=out_path,
        fatal_bounds=tuple(fatal_bounds),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"invalid YAML in {path}: nested too deeply") from None
    return config_from_mapping(data or {})


def _cell_costs(config: ExperimentConfig, traces: list[Trace], k: int, seed: int):
    """Serve a seed's cells at k in one pass; per trace, (opt, costs for the
    rows and bounds).

    The traces share their requests.  Each configured policy maps to its own
    run; a combiner's expert that is not configured maps to the combiner's
    copy, so its bounds stay checkable.  The cells share one ``shared`` dict
    (see ``make_policies``), so the runs that read no prediction, and an
    exact cell's blind_oracle, are served once for them all.
    """
    names = ("belady", *config.policies)
    shared: dict[str, Policy] = {}
    cells = [
        make_policies(names, k, trace, seed=seed, epsilon=config.epsilon, shared=shared)
        for trace in traces
    ]
    simulate(traces[0].requests, [run for runs in cells for run in runs.values()])
    out = []
    for runs in cells:
        costs = {name: runs[name].cost for name in config.policies}
        for name in config.policies:
            for expert_name, expert in zip(EXPERTS.get(name, ()), runs[name].experts):
                costs.setdefault(expert_name, expert.cost)
        out.append((runs["belady"].cost, costs))
    return out


def _measure(trace: Trace) -> tuple[float, int]:
    """The trace's l1 loss and inversions; an exact trace has none to count."""
    inversions = 0 if trace.exact else count_inversions_fast(trace.arrivals, trace.predictions)
    return ell1_loss(trace.arrivals, trace.predictions), inversions


def _row(trace_id, k, noise_id, seed, policy, cost, opt, eta, inversions, records) -> ResultRow:
    """The result row, its verdicts read from ``records``: passed, failed."""
    passed = tuple(
        f"{r.bound_id}(vacuous)" if r.vacuous else r.bound_id for r in records if r.passed
    )
    failed = tuple(r.bound_id for r in records if not r.passed)
    return ResultRow(
        trace_id, k, noise_id, seed, policy, cost, opt, eta, inversions,
        eta / opt if opt > 0 else None, passed, failed,
    )


def _on_row(report: dict[str, BoundRecord], policy: str) -> list[BoundRecord]:
    """The report's records that go on ``policy``'s row: lemma1, then its own."""
    return [report[b.bound_id] for b in BOUNDS if b.policy in (None, policy)]


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the configured sweep; rows come back in deterministic order.

    Each seed's requests are built once and re-noised under every noise model;
    each (noise, seed) trace is measured once.  At every k, one ``simulate``
    call serves all of the seed's cells, so the runs that never read a
    prediction (lru, belady, marker and mw's Marker) are served once and
    stand in every noise's cell.  A cell whose predictions equal the true
    arrivals is exact: blind_oracle, standalone or as an expert, is that
    (seed, k)'s belady run, and its inversion count is 0.
    """
    config.validate()
    rows: list[ResultRow] = []

    file_trace = None
    trace_id = ""
    if config.trace_path is not None:
        try:
            text = Path(config.trace_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"trace {config.trace_path} is not UTF-8: {exc}") from exc
        file_trace = parse_trace(text)
        trace_id = Path(config.trace_path).stem
    elif config.workload is not None:
        trace_id = config.workload.label

    # a workload needs a noise model to become traces; a file trace has its own
    if file_trace is not None or config.workload is not None and config.noises:
        cells: dict[tuple[str, int], list] = {}  # (noise id, k) -> one entry per seed
        noise_ids = [noise.label for noise in config.noises] or ["file"]
        if not config.noises:  # the file's own predictions serve every seed
            traces, measures = [file_trace], [_measure(file_trace)]
        for seed in config.seeds:
            if config.noises:
                # rebound before it is filled, so the previous seed's traces go first
                traces = []
                if file_trace is not None:
                    requests, arrivals, noise_seed = file_trace.requests, file_trace.arrivals, seed
                else:
                    requests, arrivals, noise_seed = synthesize_requests(config.workload, seed)
                traces += (
                    Trace(requests, tuple(perturb_predictions(arrivals, noise, noise_seed)),
                          arrivals)
                    for noise in config.noises
                )
                measures = [_measure(trace) for trace in traces]
            for k in config.ks:
                for noise_id, (eta, inversions), (opt, costs) in zip(
                    noise_ids, measures, _cell_costs(config, traces, k, seed)
                ):
                    cells.setdefault((noise_id, k), []).append((opt, eta, inversions, costs))
                    report = check_bounds(costs, opt, eta, inversions, k, config.epsilon)
                    rows.extend(
                        _row(
                            trace_id, k, noise_id, seed, name, costs[name], opt, eta,
                            inversions, _on_row(report, name),
                        )
                        for name in config.policies
                    )
        del traces  # the last seed's
        for (noise_id, k), cell in cells.items():
            rows.extend(_aggregate_rows(config, trace_id, k, noise_id, cell))

    if config.adversary is not None:
        rows.extend(_adversary_rows(config))

    rows.sort(key=_row_key)
    return rows


def _aggregate_rows(config, trace_id, k, noise_id, cells) -> list[ResultRow]:
    """Mean-over-seeds rows (seed column 'agg') for each policy with a bound
    that holds in expectation, over the costs those bounds need.

    ``cells`` holds one ``(opt, eta, inversions, costs)`` per seed.
    """
    out = []
    if len(config.seeds) < 2:
        return out
    opt, eta, inversions = (statistics.fmean(cell[i] for cell in cells) for i in range(3))
    for name in config.policies:
        bounds = [b for b in BOUNDS if b.policy == name and b.in_expectation]
        if not bounds:
            continue
        needed = dict.fromkeys(p for b in bounds for p in (name, *b.needs))
        costs = {p: statistics.fmean(cell[3][p] for cell in cells) for p in needed}
        report = check_bounds(costs, opt, eta, inversions, k, config.epsilon)
        out.append(
            _row(trace_id, k, noise_id, None, name, costs[name], opt, eta, inversions,
                 _on_row(report, name))
        )
    return out


def _adversary_rows(config: ExperimentConfig) -> list[ResultRow]:
    adv = config.adversary
    rows = []
    for name in config.policies:
        if name not in _ADVERSARY_POLICIES:
            continue
        result = run_adversary(name, adv)
        inversions = count_inversions_fast(result.trace.arrivals, result.trace.predictions)
        rows.append(
            _row(
                adv.label, adv.k, "adaptive", 0, name, result.alg_cost, result.opt_cost,
                result.eta, inversions, [certify_lower_bound(result)],
            )
        )
    return rows


def _row_key(row: ResultRow):
    return (
        row.trace_id,
        row.k,
        row.noise_id,
        (1, 0) if row.seed is None else (0, row.seed),
        row.policy,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if not value.is_integer() else str(int(value))
    return str(value)


def render_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in sorted(rows, key=_row_key):
        lines.append(
            ",".join(
                (
                    row.trace_id,
                    str(row.k),
                    row.noise_id,
                    "agg" if row.seed is None else str(row.seed),
                    row.policy,
                    _fmt(row.cost),
                    _fmt(row.opt),
                    _fmt(row.eta),
                    _fmt(row.inversions),
                    _fmt(row.eps_ratio),
                    ";".join(row.bounds_passed),
                    ";".join(row.bounds_failed),
                )
            )
        )
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[ResultRow], path: str) -> None:
    Path(path).write_text(render_csv(rows), encoding="utf-8")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predcache",
        description="Run caching-with-predictions experiments and write a results CSV.",
    )
    parser.add_argument("--config", help="YAML experiment config")
    parser.add_argument("--trace", help="trace CSV file (overrides the config's source)")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", type=int, help="single seed (overrides the config's seeds)")
    parser.add_argument("--k", type=int, help="single cache size (overrides the config's list)")
    parser.add_argument(
        "--policy",
        action="append",
        help="policy to run; repeatable (overrides the config's list)",
    )
    parser.add_argument("--epsilon", type=float, help="epsilon for the mw combiner")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else config_from_mapping({})
        if args.trace is not None:
            config = replace(config, trace_path=args.trace, workload=None)
        if args.out is not None:
            config = replace(config, out_path=args.out)
        if args.seed is not None:
            config = replace(config, seeds=(args.seed,))
        if args.k is not None:
            config = replace(config, ks=(args.k,))
        if args.policy:
            config = replace(config, policies=tuple(args.policy))
        if args.epsilon is not None:
            config = replace(config, epsilon=args.epsilon)
        if not config.ks:
            config = replace(config, ks=(8,))
        rows = run_experiment(config)
    except (ConfigError, TraceParseError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2

    try:
        emit_csv(rows, config.out_path)
    except OSError as exc:
        print(f"I/O error writing {config.out_path}: {exc}", file=sys.stderr)
        return 2

    failed = sorted({b for row in rows for b in row.bounds_failed})
    print(f"wrote {len(rows)} rows to {config.out_path}")
    if failed:
        print(f"failed bounds: {', '.join(failed)}")
    fatal = sorted(set(failed) & set(config.fatal_bounds))
    if fatal:
        print(f"fatal bound failures: {', '.join(fatal)}", file=sys.stderr)
        return 3
    return 0
