"""The names the benchmark under ``bench/`` reads from predcache still resolve.

``bench/tracing.py`` patches each ``(module, name)`` of its ``WRAPPED`` table
by ``getattr`` on ``predcache.cli`` or ``predcache.trace``, and
``bench/workloads.build_inputs`` and ``bench/run.py`` read the trace builders
off the package.  A missing name fails the benchmark before it measures.
Its ``serve_counter`` patches ``Policy.serve``, a placeholder that nothing in
the package calls.
The benchmark also keeps its own copies of some of the package's tables; a
copy that drifts from the package is caught here, not in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import predcache
import predcache.adversary
import predcache.cli
import predcache.combine
import predcache.trace

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _bench(name, monkeypatch):
    """Load ``bench/<name>.py`` under its own name, as the benchmark imports it."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_reads_exists(monkeypatch):
    tracing = _bench("tracing", monkeypatch)
    modules = {"cli": predcache.cli, "trace": predcache.trace}
    missing = [(mod, name) for mod, name, _, _ in tracing.WRAPPED if not hasattr(modules[mod], name)]
    assert missing == []
    for name in ("WorkloadSpec", "NoiseSpec", "synthesize", "write_trace"):
        assert hasattr(predcache, name), name


def test_the_benchmarks_copies_of_package_tables_match(monkeypatch):
    workloads = _bench("workloads", monkeypatch)
    checks = _bench("checks", monkeypatch)  # imports workloads
    tracing = _bench("tracing", monkeypatch)
    assert workloads.ADVERSARY_POLICIES == predcache.adversary.ADVERSARY_POLICIES
    assert set(workloads.ALL_POLICIES) == set(predcache.combine.POLICY_NAMES)
    assert tracing.COMBINER_EXPERTS == predcache.combine.EXPERTS
    assert checks.HEADER == predcache.cli.CSV_HEADER.split(",")
    # serve_counter patches Policy.serve, a placeholder since the method went
    assert "serve" in vars(predcache.Policy) and predcache.Policy.serve is None


def test_nothing_in_the_package_calls_the_serve_placeholder(monkeypatch, tmp_path):
    # the sweep serves its runs by simulate and the adversary by online, so a
    # serve that raises leaves the goldens and the adversary's runs as they are
    def refused(*args):
        raise AssertionError("Policy.serve was called")

    monkeypatch.setattr(predcache.Policy, "serve", refused)
    monkeypatch.chdir(GOLDEN)  # the file golden names its trace relative to it
    for name in ("sweep", "file"):
        out = tmp_path / f"{name}.csv"
        assert predcache.cli.main(["--config", f"{name}.yaml", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.expected.csv").read_bytes(), name
    for policy in predcache.adversary.ADVERSARY_POLICIES:
        result = predcache.run_adversary(policy, predcache.AdversaryConfig(k=4, j=3, num_phases=5))
        assert result.alg_cost > 0, policy
