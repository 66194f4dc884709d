"""Request traces with next-arrival predictions.

A trace is a sequence of page requests together with, for each request, a
real-valued prediction of when that page will next be requested.  Times are
1-based request indices; a page that never recurs has true next arrival n+1.
A ``Trace`` derives its true arrivals from its requests with one
``next_arrivals`` pass, and ``Trace.renoised`` pairs the same requests and
arrivals with new predictions, so no trace holds arrivals it did not derive.

All randomness in this package comes from ``random.Random`` (Mersenne Twister)
seeded explicitly, so every generated trace is reproducible from its seed.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Sequence

from .errors import ConfigError, TraceParseError

PageId = str

TRACE_HEADER = "t,page,h"

# Predictions are clamped into [0, _MAX_PREDICTION] so noise models can never
# emit inf/nan.
_MAX_PREDICTION = 1e30
_TWOPI = 2.0 * math.pi  # random.TWOPI, which gauss scales its first draw by


def next_arrivals(requests: Sequence[PageId]) -> list[int]:
    """True next-arrival index for each request (n+1 if the page never recurs).

    Takes any sequence of pages, a list or a ``Trace``'s tuple alike.  Single
    backward pass; position t's value is the smallest t' > t with the same
    page, using 1-based indices.
    """
    if not requests:
        raise ValueError("requests must be non-empty")
    n = len(requests)
    seen: dict[PageId, int] = {}
    out = [0] * n
    for i in range(n - 1, -1, -1):
        page = requests[i]
        out[i] = seen.get(page, n + 1)
        seen[page] = i + 1
    return out


class _TraceFields(NamedTuple):
    requests: tuple[PageId, ...]
    predictions: tuple[float, ...]
    arrivals: tuple[int, ...]


class Trace(_TraceFields):
    """Immutable request sequence with predictions and derived true arrivals.

    ``Trace(requests, predictions)`` derives the arrivals; ``renoised`` swaps
    the predictions.  Both validate the predictions.  ``_make`` and
    ``_replace``, which would take any arrivals, raise ``TypeError``.
    """

    __slots__ = ()

    def __new__(cls, requests: Sequence[PageId], predictions: Sequence[float]):
        if not requests:
            raise ValueError("empty trace")
        return _derived(tuple(requests), predictions, next_arrivals(requests))

    def __getnewargs__(self):  # what pickle and copy rebuild a trace from
        return self.requests, self.predictions

    def _make(*args, **kwargs):
        raise TypeError("build a trace with Trace(requests, predictions) or renoised")

    _replace = _make

    def renoised(self, predictions: Sequence[float]) -> "Trace":
        """This trace's requests and arrivals under other predictions."""
        return _derived(self.requests, predictions, self.arrivals)

    @property
    def n(self) -> int:
        return len(self.requests)

    @property
    def exact(self) -> bool:
        """Whether the predictions are the true arrivals; stops at the first that differs."""
        return self.predictions == self.arrivals


def _derived(requests: tuple[PageId, ...], predictions, arrivals: Sequence[int]) -> Trace:
    """The trace of ``requests``, whose ``next_arrivals`` are ``arrivals``."""
    predictions, arrivals = tuple(map(float, predictions)), tuple(arrivals)
    if len(predictions) != len(requests):
        raise ValueError("requests and predictions must have equal length")
    for h in predictions:
        if not math.isfinite(h) or h < 0:
            raise ValueError(f"prediction {h!r} is not a finite non-negative real")
    return tuple.__new__(Trace, (requests, predictions, arrivals))


def _refuse_unread(spec, section: str, reads) -> None:
    """Refuse a parameter the kind does not read, so the checks after this see it at its default."""
    for name, default in spec._field_defaults.items():
        if name not in reads and getattr(spec, name) != default:
            raise ConfigError(f"{section} kind {spec.kind} does not read {name}")


# Each workload kind, the parameters it reads beyond universe and length, and
# their parts of its label; a part is left out while its value is 0.
WORKLOAD_PARAMS = {
    "uniform": {},
    "zipf": {"alpha": "-a{:g}"},
    "cyclic": {"cycle": "-m{}"},
    "phased": {"cycle": "-m{}", "phase_len": "-pl{}"},
}


class WorkloadSpec(NamedTuple):
    """Synthetic workload description.

    kinds (each reads only the parameters ``WORKLOAD_PARAMS`` lists):
      - ``uniform``: each request drawn uniformly from the page universe
      - ``zipf``: rank r requested with probability proportional to r**-alpha
      - ``cyclic``: deterministic round-robin over the first ``cycle`` pages
      - ``phased``: working set of ``cycle`` pages, shifted every ``phase_len``
        requests, sampled uniformly within a phase
    """

    kind: str
    universe: int
    length: int
    alpha: float = 1.0
    cycle: int = 0  # 0 means "use the whole universe"
    phase_len: int = 0

    def validate(self) -> None:
        if self.kind not in WORKLOAD_PARAMS:
            raise ConfigError(f"unknown workload kind {self.kind!r}")
        _refuse_unread(self, "workload", WORKLOAD_PARAMS[self.kind])
        if self.universe < 1:
            raise ConfigError("universe must be >= 1")
        if self.length < 1:
            raise ConfigError("length must be >= 1")
        if not self.alpha > 0:
            raise ConfigError("zipf requires alpha > 0")
        if not 1 <= (self.cycle or self.universe) <= self.universe:
            raise ConfigError("cycle must be in 1..universe")
        if self.kind == "phased" and self.phase_len < 1:
            raise ConfigError("phased requires phase_len >= 1")

    @property
    def label(self) -> str:
        parts = WORKLOAD_PARAMS[self.kind].items()
        return f"{self.kind}-u{self.universe}-n{self.length}" + "".join(
            part.format(getattr(self, name)) for name, part in parts if getattr(self, name)
        )


# Each noise kind and its label, the results CSV's noise_id, which names the
# parameters the kind reads.
NOISE_LABELS = {
    "perfect": "perfect",
    "additive_uniform": "additive_uniform-w{width:g}",
    "additive_gaussian": "additive_gaussian-s{sigma:g}",
    "lognormal_scale": "lognormal_scale-s{sigma:g}",
    "constant_shift": "constant_shift-c{shift:g}",
    "random_replace": "random_replace-p{prob:g}-r{limit:g}",
}


class NoiseSpec(NamedTuple):
    """Prediction noise model applied to the true arrival times.

    The kinds, and the only parameters each reads, are those of ``NOISE_LABELS``.
    Outputs are clamped to finite values >= 0.
    """

    kind: str
    width: float = 0.0
    sigma: float = 0.0
    shift: float = 0.0
    prob: float = 0.0
    limit: float = 0.0

    def validate(self) -> None:
        if self.kind not in NOISE_LABELS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        label = NOISE_LABELS[self.kind]  # a parameter is read if it is a field of the label
        _refuse_unread(self, "noise", [name for name in self._fields if "{" + name in label])
        for value in (self.width, self.sigma, self.shift, self.limit):
            if not math.isfinite(value):
                raise ConfigError(f"noise parameters must be finite, got {value!r}")
        if self.width < 0:
            raise ConfigError("additive_uniform requires width >= 0")
        if self.sigma < 0:
            raise ConfigError(f"{self.kind} requires sigma >= 0")
        if self.kind == "random_replace":
            if not 0 <= self.prob <= 1:
                raise ConfigError("random_replace requires prob in [0, 1]")
            if not self.limit > 0:
                raise ConfigError("random_replace requires limit > 0")

    @property
    def label(self) -> str:
        return NOISE_LABELS[self.kind].format_map(self._asdict())


def _page(index: int) -> PageId:
    return f"p{index + 1}"


def generate_workload(spec: WorkloadSpec, seed: int) -> list[PageId]:
    """Generate a request sequence; deterministic for a fixed (spec, seed).

    The draws are those of ``random.Random.randrange`` and ``choices``, which
    the golden CSVs pin.
    """
    spec.validate()
    rng = random.Random(seed)
    u, n = spec.universe, spec.length
    if spec.kind == "zipf":
        pages = [_page(i) for i in range(u)]
        weights = [(r + 1) ** -spec.alpha for r in range(u)]
        return rng.choices(pages, weights=weights, k=n)
    if spec.kind == "cyclic":
        m = spec.cycle or u
        names = [_page(i) for i in range(min(m, n))]
        return [names[i % m] for i in range(n)]
    # uniform is one phase over the whole universe; phased draws from a
    # contiguous working set of m pages that slides by m pages each phase.
    # r is rng.randrange(m), inlined: the same getrandbits draws.
    if spec.kind == "uniform":
        m, phase_len = u, n
    else:
        m, phase_len = spec.cycle or u, spec.phase_len
    getrandbits, bits = rng.getrandbits, m.bit_length()
    names: dict[int, PageId] = {}  # each drawn index's name, made once
    out: list[PageId] = []
    for i in range(n):
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        index = (i // phase_len * m + r) % u
        name = names.get(index)
        if name is None:
            name = names[index] = _page(index)
        out.append(name)
    return out


def perturb_predictions(arrivals: Sequence[int], noise: NoiseSpec, seed: int) -> list[float]:
    """Derive predictions from true arrivals under a noise model.

    ``perfect`` returns the arrivals exactly; every other kind perturbs them
    with the seeded generator, one draw sequence in request order.  The draws
    are those of ``random.Random.uniform`` (inlined as ``a + (b - a) *
    random()``), ``gauss`` (inlined, one pair of draws per two requests) and
    ``lognormvariate``, which the golden CSVs pin.
    """
    noise.validate()
    rng = random.Random(seed)
    kind, random_ = noise.kind, rng.random
    if kind == "perfect":
        out = [float(y) for y in arrivals]
    elif kind == "additive_uniform":
        low, span = -noise.width, noise.width - -noise.width
        out = [y + (low + span * random_()) for y in arrivals]
    elif kind == "additive_gaussian":
        # gauss(0.0, sigma), inlined: a pair of draws gives one request its
        # cos value and the next its sin value, which gauss keeps for its next
        # call; a 0 pads an odd count, whose last pair's sin value is dropped
        cos, sin, log, sqrt = math.cos, math.sin, math.log, math.sqrt
        sigma, out, ys = noise.sigma, [], iter([*arrivals, 0])
        for y, y2 in zip(ys, ys):
            x2pi, g2rad = random_() * _TWOPI, sqrt(-2.0 * log(1.0 - random_()))
            out += (y + (0.0 + cos(x2pi) * g2rad * sigma), y2 + (0.0 + sin(x2pi) * g2rad * sigma))
        del out[len(arrivals):]
    elif kind == "lognormal_scale":
        lognormvariate, sigma = rng.lognormvariate, noise.sigma
        out = []
        for y in arrivals:
            try:
                out.append(y * lognormvariate(0.0, sigma))
            except OverflowError:  # raised by exp, after the draw
                out.append(_MAX_PREDICTION)
    elif kind == "constant_shift":
        out = [y + noise.shift for y in arrivals]
    else:  # random_replace; uniform(0.0, limit) is limit * random()
        prob, limit = noise.prob, noise.limit
        out = [limit * random_() if random_() < prob else float(y) for y in arrivals]
    # negatives become 0; nan, inf and -inf become _MAX_PREDICTION
    top, inf = _MAX_PREDICTION, math.inf
    return [h if 0.0 <= h <= top else 0.0 if -inf < h < 0.0 else top for h in out]


def synthesize_traces(workload: WorkloadSpec, noises: Sequence[NoiseSpec], seed: int) -> list[Trace]:
    """A seed's synthetic traces, one per noise model, over the same requests.

    The workload and noise streams get independent child seeds derived from
    ``seed``; every noise model perturbs the one set of true arrivals with
    the same noise seed.
    """
    root = random.Random(seed)
    wseed = root.getrandbits(63)
    nseed = root.getrandbits(63)
    requests = tuple(generate_workload(workload, wseed))
    arrivals = tuple(next_arrivals(requests))
    return [
        _derived(requests, perturb_predictions(arrivals, noise, nseed), arrivals)
        for noise in noises
    ]


def synthesize(workload: WorkloadSpec, noise: NoiseSpec, seed: int) -> Trace:
    """Generate a complete trace: ``synthesize_traces`` under one noise model."""
    (trace,) = synthesize_traces(workload, (noise,), seed)
    return trace


def parse_trace(text: str) -> Trace:
    """Parse the CSV trace format (header ``t,page,h``; see ``write_trace``).

    Each distinct page token becomes one str, shared by all its requests.
    Raises TraceParseError with the 1-based line number on malformed input.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise TraceParseError(f"expected header {TRACE_HEADER!r}", 1)
    lines.reverse()  # rows are popped off the end, so each row's str goes once it is read
    lines.pop()
    requests: list[PageId] = []
    predictions: list[float] = []
    pages: dict[PageId, PageId] = {}  # each token's first str, kept for every request
    for lineno in range(2, len(lines) + 2):
        parts = lines.pop().split(",")
        if len(parts) != 3:
            raise TraceParseError(f"expected 3 comma-separated fields, got {len(parts)}", lineno)
        t_text, page, h_text = parts
        # the index as write_trace writes it: int() also reads signs, blanks,
        # '_', leading zeros and non-ASCII digits
        if t_text != str(lineno - 1):
            raise TraceParseError(f"index {t_text!r} where {lineno - 1} was expected", lineno)
        if not page:
            raise TraceParseError("empty page token", lineno)
        try:
            h = float(h_text)
        except ValueError:
            raise TraceParseError(f"non-numeric prediction {h_text!r}", lineno) from None
        # float() also reads blanks, a '+', '_' and non-ASCII digits (and inf
        # and nan, which the isfinite test rejects)
        if h_text != h_text.strip() or h_text[0] == "+" or "_" in h_text or not h_text.isascii():
            raise TraceParseError(f"prediction {h_text!r} is not a decimal", lineno)
        if not math.isfinite(h):
            raise TraceParseError(f"non-finite prediction {h_text!r}", lineno)
        if h < 0:
            raise TraceParseError(f"negative prediction {h_text!r}", lineno)
        requests.append(pages.setdefault(page, page))
        predictions.append(h)
    if not requests:
        raise TraceParseError("empty trace (no request rows)", 2)
    return Trace(requests, predictions)


def write_trace(trace: Trace) -> str:
    """Render a trace in the CSV format; predictions keep full precision."""
    rows = [TRACE_HEADER]
    for i, (page, h) in enumerate(zip(trace.requests, trace.predictions), start=1):
        if "," in page:
            raise ValueError(f"page token {page!r} contains a comma")
        if page.splitlines() != [page]:
            raise ValueError(f"page token {page!r} is empty or spans a line boundary")
        rows.append(f"{i},{page},{h!r}")
    return "\n".join(rows) + "\n"
