"""The names the benchmark under ``bench/`` reads from predcache still resolve.

``bench/tracing.py`` patches each ``(module, name)`` of its ``WRAPPED`` table
by ``getattr`` on ``predcache.cli`` or ``predcache.trace``, and
``bench/workloads.build_inputs`` and ``bench/run.py`` read the trace builders
off the package.  A missing name fails the benchmark before it measures.
"""

import importlib.util
from pathlib import Path

import predcache
import predcache.cli
import predcache.trace

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_name_the_benchmark_reads_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"cli": predcache.cli, "trace": predcache.trace}
    missing = [(mod, name) for mod, name, _, _ in tracing.WRAPPED if not hasattr(modules[mod], name)]
    assert missing == []
    for name in ("WorkloadSpec", "NoiseSpec", "synthesize", "write_trace"):
        assert hasattr(predcache, name), name
