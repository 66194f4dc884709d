"""The golden CSVs' marker and mw costs, re-derived from the reference code alone.

The golden CSVs pin bytes that the program wrote itself, so they catch change,
not error.  This test rebuilds the cost of every marker and mw row of every
golden from ``tests/oracles``: a seed's traces from the reference workload and
noise draws, or a trace file read with the ``csv`` module, and each run from
``ref_policy``, seeded as the package seeds it.  A mean row's cost is the
``fsum`` mean of its seeded rows.
"""

import csv
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from oracles import (
    ref_generate_workload,
    ref_perturb_predictions,
    ref_policy,
    scan_next_arrivals,
    serve_all,
)

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(path.stem for path in GOLDEN.glob("*.yaml"))
NOISE_IDS = {
    "perfect": "perfect",
    "additive_uniform": "additive_uniform-w{width:g}",
    "additive_gaussian": "additive_gaussian-s{sigma:g}",
    "constant_shift": "constant_shift-c{shift:g}",
    "lognormal_scale": "lognormal_scale-s{sigma:g}",
    "random_replace": "random_replace-p{prob:g}-r{limit:g}",
}
RANDOMIZED = ("marker", "mw")


def _read_trace(path):
    """A trace file's requests and predictions (header ``t,page,h``)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [int(row["t"]) for row in rows] == list(range(1, len(rows) + 1))
    return [row["page"] for row in rows], [float(row["h"]) for row in rows]


def _traces(config, seed):
    """One seed's traces, noise id -> (requests, arrivals, predictions).

    A workload's requests and the noise draws take the first and second
    63-bit draws of ``Random(seed)``; a trace file's noise draws take the seed
    itself, and without a noise model the file keeps its own predictions.
    """
    noises = config.get("noise", [])
    if "trace" in config:
        requests, predictions = _read_trace(GOLDEN / config["trace"])
        arrivals = scan_next_arrivals(requests)
        if not noises:
            return {"file": (requests, arrivals, predictions)}
        noise_seed = seed
    else:
        root = random.Random(seed)
        workload_seed, noise_seed = root.getrandbits(63), root.getrandbits(63)
        requests = ref_generate_workload(SimpleNamespace(**config["workload"]), workload_seed)
        arrivals = scan_next_arrivals(requests)
    return {
        NOISE_IDS[noise["kind"]].format_map(noise): (
            requests,
            arrivals,
            ref_perturb_predictions(arrivals, SimpleNamespace(**noise), noise_seed),
        )
        for noise in noises
    }


@pytest.mark.parametrize("name", NAMES)
def test_golden_marker_and_mw_costs_match_the_reference_runs(name):
    config = yaml.safe_load((GOLDEN / f"{name}.yaml").read_text(encoding="utf-8"))
    ks = config["k"] if isinstance(config["k"], list) else [config["k"]]
    seeds = config["seeds"]
    policies = [p for p in config["policies"] if p in RANDOMIZED]
    with open(GOLDEN / f"{name}.expected.csv", newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.DictReader(handle) if row["policy"] in RANDOMIZED]

    costs = {}  # (k, noise id, policy) -> seeded costs
    for seed in seeds:
        traces = _traces(config, seed)
        for row in rows:
            if row["seed"] != str(seed):
                continue
            k, policy = int(row["k"]), row["policy"]
            requests, arrivals, predictions = traces[row["noise_id"]]
            run = ref_policy(policy, k, arrivals, seed=seed, epsilon=config["epsilon"])
            serve_all(run, requests, predictions)
            assert int(row["cost"]) == run.cost, row
            costs.setdefault((k, row["noise_id"], policy), []).append(run.cost)

    means = [row for row in rows if row["seed"] == "agg"]
    for row in means:
        seeded = costs[int(row["k"]), row["noise_id"], row["policy"]]
        assert float(row["cost"]) == math.fsum(seeded) / len(seeded), row
    cells = len(ks) * (len(config.get("noise", [])) or 1)  # a file alone is one cell
    assert sorted(map(len, costs.values())) == [len(seeds)] * cells * len(policies)
    assert len(means) == cells * len(policies) * (len(seeds) > 1)
    assert len(rows) == cells * len(policies) * (len(seeds) + (len(seeds) > 1))
