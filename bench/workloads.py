"""The benchmark's workloads.

Each workload is a predcache CLI config plus, for the file workload, a trace
file.  Both are derived from the workload seed alone: the config's ``seeds``
and the file trace's seed are drawn from ``random.Random(seed)``, so the same
seed always yields the same inputs and the same results CSV.

Why these three (see BENCHMARK.json for the measured eviction shares):

- ``zipf_k8_all``: small k makes every victim scan cheap, so time goes to the
  per-request serve overhead and to the combiners' private expert copies
  (11 ``serve`` calls per request for 7 distinct runs).
- ``uniform_k512_all``: about a third of the requests evict, and each
  eviction pays an O(k) ``max``/``min`` scan or a Marker sort at k=512.
- ``file_k64_adversary``: a phased trace whose working set equals k, so
  policies run almost only on hits (eviction share about 0.064); time goes
  to trace parsing, the inversion count and the adaptive adversary instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

ALL_POLICIES = ("lru", "belady", "blind_oracle", "marker", "ftl", "mw")

# Policies that the CLI also runs against the adversary (cli._ADVERSARY_POLICIES).
ADVERSARY_POLICIES = ("lru", "blind_oracle", "ftl")


@dataclass(frozen=True)
class Workload:
    name: str
    policies: tuple[str, ...]
    k: int
    num_seeds: int
    workload: dict | None = None  # synthetic source, generated by the CLI
    noises: tuple[dict, ...] = ()
    file_workload: dict | None = None  # source of the trace file the benchmark writes
    file_noise: dict | None = None
    adversary: dict | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zipf_k8_all",
            policies=ALL_POLICIES,
            k=8,
            num_seeds=2,
            workload={"kind": "zipf", "universe": 200, "length": 5000, "alpha": 1.0},
            noises=({"kind": "perfect"}, {"kind": "additive_uniform", "width": 8.0}),
        ),
        Workload(
            name="uniform_k512_all",
            policies=ALL_POLICIES,
            k=512,
            num_seeds=2,
            workload={"kind": "uniform", "universe": 1024, "length": 2500},
            noises=({"kind": "additive_gaussian", "sigma": 50.0},),
        ),
        Workload(
            name="file_k64_adversary",
            policies=("lru", "blind_oracle", "belady", "ftl"),
            k=64,
            num_seeds=1,
            file_workload={
                "kind": "phased", "universe": 4000, "length": 25000,
                "cycle": 64, "phase_len": 1000,
            },
            file_noise={"kind": "additive_uniform", "width": 4.0},
            adversary={"k": 8, "j": 7, "num_phases": 100},
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What one run of a workload needs, and what its results CSV must hold."""

    config_path: Path
    csv_path: Path
    seeds: tuple[int, ...]
    noise_ids: tuple[str, ...]
    trace_id: str
    n: int

    @property
    def cells(self) -> int:
        return len(self.seeds) * len(self.noise_ids)


def build_inputs(wl: Workload, seed: int, workdir: Path, predcache) -> Inputs:
    """Write the config (and trace file) for ``wl`` under ``workdir``.

    ``predcache`` is the package imported from the checkout's ``src/``; the
    file workload uses its ``synthesize`` and ``write_trace``.
    """
    rng = random.Random(seed)
    seeds = tuple(rng.getrandbits(31) for _ in range(wl.num_seeds))
    csv_path = workdir / "results.csv"
    config = {
        "policies": list(wl.policies),
        "k": [wl.k],
        "seeds": list(seeds),
        "out": str(csv_path),
    }
    if wl.workload is not None:
        config["workload"] = dict(wl.workload)
        config["noise"] = [dict(n) for n in wl.noises]
        trace_id = predcache.WorkloadSpec(**wl.workload).label
        noise_ids = tuple(predcache.NoiseSpec(**n).label for n in wl.noises)
    else:
        # Equivalent to the CLI's --trace flag: no noise is configured, so the
        # CLI keeps the predictions stored in the file.
        trace_path = workdir / "trace.csv"
        trace = predcache.synthesize(
            predcache.WorkloadSpec(**wl.file_workload),
            predcache.NoiseSpec(**wl.file_noise),
            rng.getrandbits(31),
        )
        trace_path.write_text(predcache.write_trace(trace), encoding="utf-8")
        config["trace"] = str(trace_path)
        trace_id = trace_path.stem
        noise_ids = ("file",)
    if wl.adversary is not None:
        config["adversary"] = dict(wl.adversary)
    config_path = workdir / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    n = (wl.workload or wl.file_workload)["length"]
    return Inputs(config_path, csv_path, seeds, noise_ids, trace_id, n)
