"""Correctness checks on a results CSV, and the operations they fail.

An operation is one cell, one (k, noise, seed) trace served by every
configured policy, or one adversary run.  It fails when a row it owns is
missing, duplicated or wrong:

- every row is labelled with the configured trace, k, noise and seed;
- every cost and opt of a seeded or adversary row is an integer;
- every cost is at least its row's opt (Belady is optimal on the trace);
- the ``belady`` row's cost equals opt;
- each mean-over-seeds ("agg") row has mean cost >= mean opt; a bad one
  fails every cell it averages.

Bound verdicts (``bounds_failed``) are simulation results, not failures;
they are only counted.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

from workloads import ADVERSARY_POLICIES, ALL_POLICIES, Inputs, Workload

HEADER = [
    "trace_id", "k", "noise_id", "seed", "policy", "cost", "opt", "eta",
    "inversions", "eps_ratio", "bounds_passed", "bounds_failed",
]
_INT = re.compile(r"\d+")


@dataclass
class CheckedResults:
    operations: int
    failed: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    eviction_share: dict[str, float] = field(default_factory=dict)
    bounds_failed_rows: int = 0


def check_results(text: str, wl: Workload, inputs: Inputs) -> CheckedResults:
    cells = [(str(wl.k), noise, str(seed)) for noise in inputs.noise_ids for seed in inputs.seeds]
    adversary_runs = [
        ("adversary", p) for p in wl.policies if wl.adversary and p in ADVERSARY_POLICIES
    ]
    out = CheckedResults(operations=len(cells) + len(adversary_runs))

    def fail(op, problem):
        out.failed.add(op)
        out.problems.append(f"{op}: {problem}")

    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != HEADER:
        for op in cells + adversary_runs:
            fail(op, "missing or wrong CSV header")
        return out

    seen: dict[tuple, list[dict]] = {}
    for values in reader:
        if len(values) != len(HEADER):
            out.problems.append(f"malformed row {values}")
            out.failed.update(cells + adversary_runs)
            continue
        row = dict(zip(HEADER, values))
        out.bounds_failed_rows += bool(row["bounds_failed"])
        if row["trace_id"].startswith("adversary-"):
            key = ("adversary", row["policy"])
        elif row["seed"] == "agg":
            key = ("agg", row["noise_id"], row["policy"])
        else:
            key = (row["trace_id"], row["k"], row["noise_id"], row["seed"], row["policy"])
        seen.setdefault(key, []).append(row)

    expected = {(inputs.trace_id, *cell, p): cell for cell in cells for p in wl.policies}
    expected.update({op: op for op in adversary_runs})
    if len(inputs.seeds) >= 2:
        for noise in inputs.noise_ids:
            for p in wl.policies:
                if p in ("marker", "mw"):
                    expected[("agg", noise, p)] = noise
    for key in seen.keys() - expected.keys():
        out.problems.append(f"unexpected row {key}")
        out.failed.update(cells + adversary_runs)

    shares = {p: 0 for p in ALL_POLICIES}
    for key, owner in expected.items():
        rows = seen.get(key, [])
        owners = [c for c in cells if c[1] == owner] if key[0] == "agg" else [owner]
        if len(rows) != 1:
            for op in owners:
                fail(op, f"{len(rows)} rows for {key}")
            continue
        row = rows[0]
        if key[0] == "agg":
            if float(row["cost"]) < float(row["opt"]):
                for op in owners:
                    fail(op, f"mean cost {row['cost']} < mean opt {row['opt']} in {key}")
            continue
        if not (_INT.fullmatch(row["cost"]) and _INT.fullmatch(row["opt"])):
            fail(owner, f"non-integer cost or opt in {key}")
            continue
        cost, opt = int(row["cost"]), int(row["opt"])
        if cost < opt:
            fail(owner, f"cost {cost} < opt {opt} in {key}")
        if row["policy"] == "belady" and cost != opt:
            fail(owner, f"belady cost {cost} != opt {opt} in {key}")
        if owner != key:  # a seeded row
            shares[row["policy"]] += cost
    out.eviction_share = {p: c / (len(cells) * inputs.n) for p, c in shares.items()}
    return out
