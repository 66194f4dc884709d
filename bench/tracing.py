"""Spans around calls into predcache's layers, recorded from outside ``src/``.

A wrapper replaces the name a caller looks up (for example
``predcache.cli.run_policy``, which ``run_experiment`` calls), so the program
itself is not edited.  Spans are kept in memory as
``[name, start, end, parent, attrs]`` lists; ``parent`` is the index of the
enclosing span or -1.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _policy_attrs(args, kwargs, result):
    return {"policy": args[0], "n": args[1].n}


def _combiner_attrs(args, kwargs, result):
    return {"n": args[2].n}


def _adversary_attrs(args, kwargs, result):
    return {"n": result.trace.n}


# (module, attribute, span name, attrs).  The cli entries are the names
# run_experiment looks up; the trace entries are the names synthesize and
# Trace.from_requests look up inside predcache.trace.
WRAPPED = (
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "run_experiment", "cli.run_experiment", None),
    ("cli", "emit_csv", "cli.emit_csv", None),
    ("cli", "synthesize", "trace.synthesize", None),
    ("cli", "parse_trace", "trace.parse_trace", None),
    ("cli", "perturb_predictions", "trace.perturb_predictions", None),
    ("trace", "generate_workload", "trace.generate_workload", None),
    ("trace", "next_arrivals", "trace.next_arrivals", None),
    ("trace", "perturb_predictions", "trace.perturb_predictions", None),
    ("cli", "run_policy", "policies.run_policy", _policy_attrs),
    ("cli", "run_ftl", "combine.run_ftl", _combiner_attrs),
    ("cli", "run_mw", "combine.run_mw", _combiner_attrs),
    ("cli", "ell1_loss", "metrics.ell1_loss", None),
    ("cli", "count_inversions_fast", "metrics.count_inversions_fast", None),
    ("cli", "check_bounds", "metrics.check_bounds", None),
    ("cli", "run_adversary", "adversary.run_adversary", _adversary_attrs),
    ("cli", "certify_lower_bound", "adversary.certify_lower_bound", None),
)


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""


@contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_wrappers(recorder: SpanRecorder, modules: dict):
    """Patch targets that route every WRAPPED name through ``recorder``."""
    return [
        (modules[mod], attr, recorder.wrap(name, getattr(modules[mod], attr), attrs))
        for mod, attr, name, attrs in WRAPPED
    ]


def serve_counter(recorder: SpanRecorder, policy_class, counts: Counter):
    """Patch target counting ``Policy.serve`` calls by the innermost span's name."""
    serve = policy_class.serve

    def counted(self, t, page, prediction):
        counts[recorder.current()] += 1
        return serve(self, t, page, prediction)

    return [(policy_class, "serve", counted)]


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


# Layer entry points reported as self seconds plus call count.
TIMED = (
    "trace.generate_workload",
    "trace.next_arrivals",
    "trace.perturb_predictions",
    "trace.parse_trace",
    "trace.write_trace",
    "metrics.ell1_loss",
    "metrics.count_inversions_fast",
    "metrics.check_bounds",
    "adversary.certify_lower_bound",
)
RUN_POLICIES = ("lru", "blind_oracle", "belady", "marker")
COMBINER_EXPERTS = {"ftl": ("blind_oracle", "lru"), "mw": ("blind_oracle", "marker")}


def pass_metrics(spans, policies) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (run_experiment plus emit_csv).

    A combiner's overhead ratio is its time over its experts' standalone
    ``run_policy`` time.  Every cell runs every configured policy, so sweep
    totals compare the same cells; the ratio is 0 unless the combiner and
    both experts are configured.
    """
    selfs = self_times(spans)
    self_s, busy_s, calls, reqs = Counter(), Counter(), Counter(), Counter()
    for (name, start, end, _, attrs), own in zip(spans, selfs):
        if name == "policies.run_policy":
            name = f"{name}.{attrs['policy']}"
        self_s[name] += own
        busy_s[name] += end - start
        calls[name] += 1
        if attrs is not None:
            reqs[name] += attrs["n"]

    def rate(name):
        return reqs[name] / busy_s[name] if busy_s[name] > 0 else 0.0

    out = {}
    for name in TIMED:
        out[f"{name}.s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    out["trace.synthesize.self_s"] = self_s["trace.synthesize"]
    out["trace.synthesize.calls"] = calls["trace.synthesize"]
    for policy in RUN_POLICIES:
        name = f"policies.run_policy.{policy}"
        out[f"{name}.req_per_s"] = rate(name)
        out[f"{name}.calls"] = calls[name]
    for combiner, experts in COMBINER_EXPERTS.items():
        name = f"combine.run_{combiner}"
        out[f"{name}.req_per_s"] = rate(name)
        out[f"{name}.calls"] = calls[name]
        expert_s = sum(busy_s[f"policies.run_policy.{e}"] for e in experts)
        configured = combiner in policies and all(e in policies for e in experts)
        out[f"combine.{combiner}.overhead_ratio"] = (
            busy_s[name] / expert_s if configured and expert_s > 0 else 0.0
        )
    out["adversary.run_adversary.req_per_s"] = rate("adversary.run_adversary")
    out["adversary.run_adversary.calls"] = calls["adversary.run_adversary"]
    out["cli.run_experiment.self_s"] = self_s["cli.run_experiment"]
    out["cli.emit_csv.s"] = self_s["cli.emit_csv"]
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the lower median over passes (a measured value; counts stay whole)."""
    return {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
