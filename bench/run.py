"""Sweep benchmark for predcache's CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports predcache from ``src/``.
Workloads are defined in ``bench/workloads.py``.  To print every metric for
every workload:

    for w in zipf_k8_all uniform_k512_all file_k64_adversary; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

With ``--trace 0`` it reports the end-to-end metrics of untraced runs:

- ``setup_s``: importing predcache and ``cli.load_config``, median over
  fresh processes (interpreter start-up excluded);
- ``sweep_s``: ``cli.run_experiment`` through ``cli.emit_csv``, median over
  the sweeps repeated for S seconds in one process;
- ``peak_rss_mb``: peak resident memory of that process.

With ``--trace 1`` it reports per-layer metrics from spans recorded around
the calls into each module (see ``bench/tracing.py``), exact counts
(``policies.serve_calls_per_req``, ``policies.eviction_share.<policy>``) and
``trace_overhead_s``, the traced minus the untraced median sweep time
measured in the same process.  Spans are written to
``bench/out/<workload>-seed<N>-trace1/spans.json``.

Every results CSV is checked (``bench/checks.py``) and must be byte-identical
across the run's sweeps, traced or not.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds run metadata: Python version, usable cores, commit,
``src/`` line count, ``csv_sha256``, ``failed_ratio`` and
``bounds_failed_rows`` (paper-bound verdicts, which are results, not
failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from checks import check_results
from workloads import WORKLOADS, build_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 12
DEADLINE_S = 175.0  # a run must end within 180 s


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_worker(inputs, seconds: float, trace: bool, timeout: float) -> dict | None:
    result_path = inputs.config_path.with_name(f"worker-{os.getpid()}.json")
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), str(SRC), str(inputs.config_path),
        repr(float(seconds)), "1" if trace else "0", str(result_path),
    ]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {timeout:.0f} s and was killed", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "predcache" / "cli.py").is_file():
        print(f"bench: no predcache sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import predcache

    wl = WORKLOADS[args.workload]
    workdir = BENCH / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = tracing.SpanRecorder()
    targets = []
    if args.trace:
        targets = [(predcache, "write_trace", recorder.wrap("trace.write_trace", predcache.write_trace))]
    with tracing.patched(targets):
        inputs = build_inputs(wl, args.seed, workdir, predcache)

    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = _run_worker(inputs, 0, False, timeout=30)
            if probe is None:
                return 1
            probes.append(probe)
    result = _run_worker(
        inputs, args.seconds, bool(args.trace), DEADLINE_S - (perf_counter() - started)
    )
    if result is None or not result["sweeps"] or (args.trace and result["error"]):
        if result is not None:
            print(result["error"], file=sys.stderr)
        return 1

    # Failure accounting: the CSV on disk is the last sweep's.  A sweep whose
    # CSV differs from it, or that raised, fails all its operations.
    checked = check_results(inputs.csv_path.read_text(encoding="utf-8"), wl, inputs)
    sweeps = result["sweeps"]
    csv_sha = sweeps[-1]["sha"]
    attempted = checked.operations * (len(sweeps) + (result["error"] is not None))
    failed = sum(
        checked.operations if s["sha"] != csv_sha else len(checked.failed) for s in sweeps
    )
    if result["error"] is not None:
        failed += checked.operations
        print(result["error"], file=sys.stderr)
    for problem in checked.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)

    def times(kind):
        return [s["s"] for s in sweeps if s["kind"] == kind]

    plain = times("plain")
    if args.trace:
        passes = [tracing.pass_metrics(spans, wl.policies) for spans in result["passes"]]
        metrics = tracing.median_metrics(passes)
        own = tracing.self_times(recorder.spans)
        metrics["trace.write_trace.s"] = sum(own)
        metrics["trace.write_trace.calls"] = len(own)
        setup_selfs = tracing.self_times(result["setup_spans"])
        metrics["cli.load_config.s"] = sum(
            t for span, t in zip(result["setup_spans"], setup_selfs) if span[0] == "cli.load_config"
        )
        serves = result["serve_calls"]
        cell_serves = sum(
            serves.get(name, 0)
            for name in ("policies.run_policy", "combine.run_ftl", "combine.run_mw")
        )
        metrics["policies.serve_calls_per_req"] = cell_serves / (inputs.cells * inputs.n)
        for policy, share in checked.eviction_share.items():
            metrics[f"policies.eviction_share.{policy}"] = share
        metrics["trace_overhead_s"] = statistics.median(times("traced")) - statistics.median(plain)
        spans_out = {
            "format": "[name, start, end, parent, attrs]; parent is an index into the same list or -1",
            "inputs": recorder.spans,
            "setup": result["setup_spans"],
            "traced_sweeps": result["passes"],
        }
        (workdir / "spans.json").write_text(json.dumps(spans_out), encoding="utf-8")
    else:
        metrics = {
            "sweep_s": statistics.median(
                s["normalized_s"] for s in sweeps if s["kind"] == "plain"
            ),
            "setup_s": statistics.median(p["normalized_setup_s"] for p in probes),
            "peak_rss_mb": result["peak_rss_mb"],
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(units.keys() ^ metrics.keys())}",
              file=sys.stderr)
        return 1
    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_loc": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "csv_sha256": csv_sha,
        "sweep_samples": len(plain),
        "sweep_wall_s": statistics.median(plain),
        "setup_samples": len(probes),
        "setup_wall_s": statistics.median(p["setup_s"] for p in probes) if probes else None,
        "failed_ratio": failed / attempted,
        "bounds_failed_rows": checked.bounds_failed_rows,
        "eviction_share": checked.eviction_share,
    }
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
