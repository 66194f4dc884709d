"""Experiment runner: sweeps policies over traces, noise models and seeds.

Configuration lives in a YAML file (nested key-value sections).  Each
command-line flag sets the config key it names, and ``--trace`` also drops a
configured workload; a key left out takes its ``ExperimentConfig`` default.
Results are written as a CSV whose columns are ``ResultRow``'s fields and
whose rows are fully determined by the configuration, so re-running an
identical config reproduces the output byte for byte.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 when a bound
check listed in ``fatal_bounds`` fails.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple, get_type_hints

import yaml

from .adversary import ADVERSARY_POLICIES, AdversaryConfig, certify_lower_bound, run_adversary
from .combine import POLICY_NAMES, make_policies
from .errors import ConfigError, TraceParseError
from .metrics import BOUND_IDS, BOUNDS, check_bounds, count_inversions_fast
from .metrics import ell1_loss
from .policies import Policy, simulate
from .trace import NoiseSpec, Trace, WorkloadSpec, parse_trace, perturb_predictions
from .trace import synthesize_traces

# The benchmark's tracer (bench/tracing.py) patches run_policy, run_ftl,
# run_mw and synthesize on this module, and Policy.serve; the sweep calls
# none of them.  The run wrappers and the method are gone, so the first three
# and Policy.serve are None: the tracer only needs the names to exist.  All
# five go once the tracer wraps what the sweep calls (ROADMAP item 1).
from .trace import synthesize  # noqa: F401

run_policy = run_ftl = run_mw = None


class ExperimentConfig(NamedTuple):
    """One sweep; a config key left out keeps its field's default."""

    policies: tuple[str, ...] = ("lru", "belady", "blind_oracle", "marker")
    ks: tuple[int, ...] = (8,)
    seeds: tuple[int, ...] = (0,)
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
        for noise in self.noises:  # before their labels are read
            noise.validate()
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
            if not self.noises:
                raise ConfigError("a workload needs at least one noise model")
        if not self.ks:
            raise ConfigError("at least one cache size k is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        # random.Random(-s) draws what Random(s) draws, so a negative seed repeats one
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        for k in self.ks:
            if k < 1:
                raise ConfigError("cache sizes must be >= 1")
            # the bounds turn k, 2k and 8k into floats
            if k > sys.float_info.max / 8:
                raise ConfigError(f"cache sizes must be at most {sys.float_info.max / 8:.4g}")
        if self.adversary is not None:
            self.adversary.validate()
            if not set(self.policies) & set(ADVERSARY_POLICIES):
                raise ConfigError(f"the adversary runs only {', '.join(ADVERSARY_POLICIES)}")
        for bound_id in self.fatal_bounds:
            if bound_id not in BOUND_IDS:
                raise ConfigError(f"unknown bound id {bound_id!r} in fatal_bounds")


class ResultRow(NamedTuple):
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


CSV_HEADER = ",".join(ResultRow._fields)


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
    """Build ``cls`` from a config section; its NamedTuple fields give the keys.

    Fields without a default are required.  A value must be a string where the
    field is annotated ``str``, else a number, an integer where it is ``int``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a mapping, got {data!r}")
    unknown = set(data) - set(cls._fields)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown, key=str)}")
    types = get_type_hints(cls)
    for name in cls._fields:
        if name not in data:
            if name not in cls._field_defaults:
                raise ConfigError(f"{section} needs {name!r}")
        elif types[name] is str:
            if not isinstance(data[name], str):
                raise ConfigError(f"{section} {name} must be a string, got {data[name]!r}")
        else:
            _number(f"{section} {name}", data[name], integer=types[name] is int)
    return cls(**data)


def _listed(value) -> tuple:
    """A single value stands for a one-element list."""
    return tuple(value) if isinstance(value, list) else (value,)


def _seeds(value) -> tuple[int, ...]:
    """The seeds of a list, or of a count n: 0..n-1."""
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise ConfigError(f"a seeds count must be >= 0, got {value}")
        if value > sys.maxsize:
            bits = value.bit_length()
            raise ConfigError(f"a seeds count must be at most {sys.maxsize}, got a {bits}-bit int")
        return tuple(range(value))
    return tuple(_number("seeds", seed, integer=True) for seed in _listed(value))


def _path(what: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a path, got {value!r}")
    return value


def _or_none(read):
    """``read``, but a null value stands for none (no workload, trace or adversary)."""
    return lambda value: None if value is None else read(value)


# Each config key: the ExperimentConfig field it sets, and the reader of its value.
_KEYS = {
    "policies": ("policies", _listed),
    "k": ("ks", lambda v: tuple(_number("k", k, integer=True) for k in _listed(v))),
    "seeds": ("seeds", _seeds),
    "workload": ("workload", _or_none(partial(_section, WorkloadSpec, "workload"))),
    "trace": ("trace_path", _or_none(partial(_path, "trace"))),
    "noise": ("noises", lambda v: tuple(_section(NoiseSpec, "noise", n) for n in _listed(v))),
    "epsilon": ("epsilon", lambda v: float(_number("epsilon", v))),
    "adversary": ("adversary", _or_none(partial(_section, AdversaryConfig, "adversary"))),
    "out": ("out_path", partial(_path, "out")),
    "fatal_bounds": ("fatal_bounds", _listed),
}


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed YAML mapping.

    Only the keys present are read.  A workload without a noise section is
    read under perfect predictions; a trace file without one keeps its own.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    fields = {_KEYS[key][0]: _KEYS[key][1](value) for key, value in data.items()}
    config = ExperimentConfig(**fields)
    if config.workload is not None and not config.noises:
        config = config._replace(noises=(NoiseSpec("perfect"),))
    return config


def _read_yaml(path: str):
    """The parsed YAML document at ``path``; an empty document reads as ``{}``."""
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
    return {} if data is None else data


def load_config(path: str) -> ExperimentConfig:
    return config_from_mapping(_read_yaml(path))


def _cell_costs(config: ExperimentConfig, traces: list[Trace], k: int, seed: int):
    """Serve a seed's cells at k in one pass; per trace, (opt, costs for the
    rows and bounds).

    The traces share their requests.  ``make_policies`` returns a combiner's
    experts by name too, so its bounds read the runs it combined.  The cells
    share one ``shared`` dict (see ``make_policies``), so the runs that read
    no prediction, and an exact cell's blind_oracle, are served once for
    them all.
    """
    names = ("belady", *config.policies)
    shared: dict[str, Policy] = {}
    cells = [
        make_policies(names, k, trace, seed=seed, epsilon=config.epsilon, shared=shared)
        for trace in traces
    ]
    simulate(traces[0].requests, [run for runs in cells for run in runs.values()])
    return [(runs["belady"].cost, {name: run.cost for name, run in runs.items()}) for runs in cells]


def _measure(trace: Trace) -> tuple[float, int]:
    """The trace's l1 loss and inversions; an exact trace has none to count."""
    if trace.exact:
        return 0.0, 0
    return ell1_loss(trace.arrivals, trace.predictions), count_inversions_fast(trace)


def _seed_traces(config: ExperimentConfig):
    """Yield each seed, its traces (one per noise label) and their measures.

    Each noise model re-noises the seed's requests, a workload's or a trace
    file's; without one the file keeps its own predictions, measured once.
    """
    file_trace = None
    if config.trace_path is not None:
        try:
            text = Path(config.trace_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"trace {config.trace_path} is not UTF-8: {exc}") from exc
        file_trace = parse_trace(text)
        del text  # the sweep keeps the parsed trace, not the file's text
    if not config.noises:
        measures = [_measure(file_trace)]
        yield from ((seed, [file_trace], measures) for seed in config.seeds)
        return
    for seed in config.seeds:
        if file_trace is None:
            traces = synthesize_traces(config.workload, config.noises, seed)
        else:
            traces = [
                file_trace.renoised(perturb_predictions(file_trace.arrivals, noise, seed))
                for noise in config.noises
            ]
        yield seed, traces, [_measure(trace) for trace in traces]
        del traces  # before the next seed's are built


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


def _cell_rows(config, trace_id, k, noise_id, seed, costs, opt, eta, inversions):
    """A cell's rows, from one ``check_bounds`` over every cost it holds: one per
    policy, or for a mean over seeds (seed None) one per policy with a bound in
    expectation.  Each row gets lemma1's verdict and its own bounds'."""
    report = check_bounds(costs, opt, eta, inversions, k, config.epsilon)
    return [
        _row(trace_id, k, noise_id, seed, name, costs[name], opt, eta, inversions,
             [report[b.bound_id] for b in BOUNDS if b.policy in (None, name)])
        for name in config.policies
        if seed is not None or any(b.in_expectation for b in BOUNDS if b.policy == name)
    ]


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the configured sweep; rows come back in deterministic order.

    Each seed's requests are built once and re-noised under every noise model;
    each (noise, seed) trace is measured once.  At every k, one ``simulate``
    call serves all of the seed's cells, so the runs that never read a
    prediction (lru, belady and marker, which mw combines) are served once
    and stand in every noise's cell.  A cell whose predictions equal the true
    arrivals is exact: blind_oracle, standalone or as an expert, is that
    (seed, k)'s belady run, and its inversion count is 0.  With two or more
    seeds, the seed means of a (noise, k)'s costs and measures form one more
    cell, and its rows are made like a seed's.
    """
    config.validate()
    rows: list[ResultRow] = []

    if config.workload is not None or config.trace_path is not None:
        trace_id = config.workload.label if config.workload else Path(config.trace_path).stem
        noise_ids = [noise.label for noise in config.noises] or ["file"]
        cells: dict[tuple[str, int], list] = {}  # (noise id, k) -> one cell per seed
        for seed, traces, measures in _seed_traces(config):
            for k in config.ks:
                for noise_id, (opt, costs), measure in zip(
                    noise_ids, _cell_costs(config, traces, k, seed), measures
                ):
                    cells.setdefault((noise_id, k), []).append((seed, costs, opt, *measure))
            del traces  # before the next seed's are built
        for (noise_id, k), seeds in cells.items():
            if len(seeds) > 1:
                _, costs, *columns = zip(*seeds)  # opt, eta, inversions
                mean = {p: math.fsum(cost[p] for cost in costs) / len(costs) for p in costs[0]}
                seeds.append((None, mean, *(math.fsum(c) / len(costs) for c in columns)))
            for seed, *cell in seeds:
                rows += _cell_rows(config, trace_id, k, noise_id, seed, *cell)

    if config.adversary is not None:
        rows.extend(_adversary_rows(config))

    rows.sort(key=_row_key)
    return rows


def _adversary_rows(config: ExperimentConfig) -> list[ResultRow]:
    adv = config.adversary
    rows = []
    for name in config.policies:
        if name not in ADVERSARY_POLICIES:
            continue
        result = run_adversary(name, adv)
        rows.append(
            _row(
                adv.label, adv.k, "adaptive", 0, name, result.alg_cost, result.opt_cost,
                result.eta, count_inversions_fast(result.trace), [certify_lower_bound(result)],
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
    """A CSV cell: None is empty, a tuple joins with ';', an integral float drops
    '.0', and a string holding a comma, quote or line break is quoted, its
    quotes doubled."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(value)
    if isinstance(value, float):
        return repr(value) if not value.is_integer() else str(int(value))
    if isinstance(value, str) and any(char in value for char in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def render_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in sorted(rows, key=_row_key):
        if row.seed is None:
            row = row._replace(seed="agg")
        lines.append(",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[ResultRow], path: str) -> None:
    Path(path).write_text(render_csv(rows), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    import argparse  # here, so that library callers never load it
    # each flag's dest is the config key it sets; a flag not given is not parsed
    parser = argparse.ArgumentParser(
        prog="predcache",
        description="Run caching-with-predictions experiments and write a results CSV.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="YAML experiment config")
    parser.add_argument("--trace", help="trace CSV file (replaces the config's workload)")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", dest="seeds", nargs=1, type=int, metavar="N", help="single seed")
    parser.add_argument("--k", nargs=1, type=int, metavar="N", help="single cache size")
    parser.add_argument(
        "--policy", dest="policies", action="append", metavar="NAME",
        help="policy to run; repeatable",
    )
    parser.add_argument("--epsilon", type=float, help="epsilon for the mw combiner")
    flags = vars(parser.parse_args(argv))
    config_path = flags.pop("config", None)
    if "trace" in flags:  # a trace file replaces a configured workload
        flags["workload"] = None
    try:
        data = _read_yaml(config_path) if config_path else {}
        config = config_from_mapping({**data, **flags} if isinstance(data, dict) else data)
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
