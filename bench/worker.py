"""The measured process: imports predcache, loads one config and runs sweeps.

    python3 bench/worker.py SRC CONFIG SECONDS TRACE RESULT

It drives the public CLI path: ``cli.load_config``, then repeatedly
``cli.run_experiment`` and ``cli.emit_csv``, for at least SECONDS (with
SECONDS = 0 it only sets up).  Each sweep is bracketed by calibration loops
(``bench/calibration.py``).  Nothing from predcache (or PyYAML, which it
imports) is loaded before the set-up clock starts.  With TRACE = 1 it
alternates untraced and traced sweeps, then makes one more traced sweep that
also counts ``Policy.serve`` calls.  It writes its measurements to RESULT as
JSON; the run's peak RSS is this process's alone.
"""

import hashlib
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibration
import tracing


def main(argv: list[str]) -> int:
    src, config_path, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"

    loop_before = calibration.loop_s()
    t0 = perf_counter()
    sys.path.insert(0, src)
    import predcache.cli as cli

    if Path(cli.__file__).resolve().parent.parent != Path(src).resolve():
        print(f"predcache was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if trace:
        import predcache.policies
        import predcache.trace

        modules = {"cli": cli, "trace": predcache.trace}
        setup_recorder = tracing.SpanRecorder()
        with tracing.patched(tracing.layer_wrappers(setup_recorder, modules)):
            config = cli.load_config(config_path)
    else:
        config = cli.load_config(config_path)
    setup_s = perf_counter() - t0
    loop_after = calibration.loop_s()
    out = {
        "setup_s": setup_s,
        "normalized_setup_s": calibration.normalize(setup_s, loop_before, loop_after),
        "sweeps": [],
        "error": None,
    }
    loop_before = loop_after

    def sweep(kind="plain", targets=()):
        nonlocal loop_before
        with tracing.patched(targets):
            start = perf_counter()
            cli.emit_csv(cli.run_experiment(config), config.out_path)
            elapsed = perf_counter() - start
        loop_after = calibration.loop_s()
        sha = hashlib.sha256(Path(config.out_path).read_bytes()).hexdigest()
        out["sweeps"].append({
            "s": elapsed,
            "normalized_s": calibration.normalize(elapsed, loop_before, loop_after),
            "sha": sha,
            "kind": kind,
        })
        loop_before = loop_after

    try:
        if seconds > 0 and not trace:
            while True:
                sweep()
                if perf_counter() - t0 >= seconds:
                    break
        elif seconds > 0:
            out["passes"] = []
            while True:
                sweep()
                recorder = tracing.SpanRecorder()
                sweep("traced", tracing.layer_wrappers(recorder, modules))
                out["passes"].append(recorder.spans)
                if perf_counter() - t0 >= seconds:
                    break
            recorder, counts = tracing.SpanRecorder(), Counter()
            sweep(
                "counted",
                tracing.layer_wrappers(recorder, modules)
                + tracing.serve_counter(recorder, predcache.policies.Policy, counts)
            )
            out["serve_calls"] = dict(counts)
            out["setup_spans"] = setup_recorder.spans
    except Exception:  # reported as failed operations by bench/run.py
        out["error"] = traceback.format_exc()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
