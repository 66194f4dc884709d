"""Prediction-error measures and competitive-bound checkers.

The two error measures are the l1 loss (sum of |prediction - true arrival|)
and the inversion count: ordered pairs (i, j) whose true arrivals satisfy
y_i < y_j while the predictions order the other way, h_i >= h_j.  The l1 loss
is always at least half the inversion count, which ``check_bounds`` verifies
alongside the cost bounds of the individual policies and combiners.  The
inversions are counted over a ``Trace``, whose arrivals are its requests'
next arrivals: by insertion into a sorted list in arrival order, in
O(n log n + I) for I inversions (Knuth, TAOCP vol. 3, 5.2.1), and by a
blocked bitset over the same order when I is large.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from itertools import repeat
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .trace import Trace


def harmonic(k: int) -> float:
    """k-th harmonic number, 1 + 1/2 + ... + 1/k, added left to right."""
    total = 0.0
    for i in range(1, k + 1):
        total += 1.0 / i
    return total


def ell1_loss(arrivals: Sequence[int], predictions: Sequence[float]) -> float:
    if len(arrivals) != len(predictions):
        raise ValueError("arrivals and predictions must have equal length")
    # not sum(): from Python 3.12 it compensates, which moves the CSV bytes
    total = 0
    for y, h in zip(arrivals, predictions):
        total += abs(h - y)
    return total


_BLOCK_BITS = 11  # count_inversions_fast keeps an int bitset per 2**_BLOCK_BITS positions
_INSERTION_BUDGET = 16  # inversions per element before insertion gives way to the bitset


def count_inversions_fast(trace: Trace) -> int:
    """A trace's inversion count, by insertion over the arrival order, O(n log n + I).

    The arrivals up to n are distinct and the rest are n + 1 (pages never
    requested again), so one pass puts each prediction in its arrival's slot
    and the n + 1 group in a tail.  In slot order each prediction is
    inserted into a sorted list, whose items >= it are its inversions and
    what the insert's memmove shifts (Knuth, TAOCP vol. 3, 5.2.1).  The tail
    is counted against the finished list, so its tied pairs never count.

    Past ``_INSERTION_BUDGET`` inversions per element the count starts over
    on the same order, the tail descending.  There an earlier element pairs
    with a later one exactly when its prediction is >=, which also counts
    each pair within the tail, so C(g, 2) for its g elements is subtracted.
    Ranked by prediction, ties ranking higher the earlier they come, the
    positions listed by rank form a permutation whose inversions are exactly
    those pairs: each position adds the set bits above it in its block's
    bitset and the counts of later blocks, then sets its bit."""
    n = trace.n
    last = n + 1
    slots: list[float | None] = [None] * last
    tail: list[float] = []
    for y, h in zip(trace.arrivals, trace.predictions):
        if y == last:
            tail.append(h)
        else:
            slots[y] = h
    budget = _INSERTION_BUDGET * n
    done: list[float] = []
    insert = done.insert
    total = size = 0
    for h in slots:
        if h is None:
            continue
        if size > 16 and done[size - 16] < h:  # search the last 16 items
            i = bisect_left(done, h, size - 15)
        else:
            i = bisect_left(done, h)
        total += size - i
        if total > budget:
            break
        insert(i, h)
        size += 1
    else:
        return total + len(tail) * size - sum(map(bisect_left, repeat(done), tail))
    del done, insert  # free the list before the bitset's n new ints
    ordered = [h for h in slots if h is not None]
    del slots
    tail.sort(reverse=True)
    ordered += tail
    total = -(len(tail) * (len(tail) - 1) // 2)
    by_rank = sorted(range(n - 1, -1, -1), key=ordered.__getitem__)
    shift, mask = _BLOCK_BITS, (1 << _BLOCK_BITS) - 1
    words = [0] * ((n >> shift) + 1)
    counts = [0] * len(words)
    for position in by_rank:
        block, bit = position >> shift, position & mask
        word = words[block]
        total += (word >> bit).bit_count() + sum(counts[block + 1:])
        words[block] = word | (1 << bit)
        counts[block] += 1
    return total


# One entry per checked inequality, lhs <= rhs + additive, in record order.
# lhs, rhs and additive read one namespace: opt, eta, inversions, k, eps,
# each given policy's cost by name, and each earlier bound's whole right-hand
# side by bound id.  A bound goes on its policy's result rows (lemma1, a
# property of the trace, on every row) and is checked when that policy has a
# cost; it then needs the costs of ``needs``.  ``uses_opt``: it holds
# trivially at opt = 0, where every in-contract policy pays nothing.
# ``in_expectation``: it bounds the mean over seeds, not each run.  Below
# ``min_k`` it does not apply.
Bound = namedtuple(
    "Bound",
    "bound_id policy needs lhs rhs additive uses_opt in_expectation min_k",
    defaults=(1,),
)
BOUNDS = (
    Bound("lemma1", None, (), lambda v: v.inversions / 2.0, lambda v: v.eta,
          lambda v: 0, False, False),
    Bound("thm1_prop1", "blind_oracle", (), lambda v: v.blind_oracle,
          lambda v: v.opt + 2.0 * v.eta, lambda v: 0, True, False),
    Bound("thm1_prop2", "blind_oracle", (), lambda v: v.blind_oracle,
          lambda v: 2.0 * v.opt + 4.0 * v.eta / (v.k - 1), lambda v: v.k, True, False, 2),
    Bound("lru_k", "lru", (), lambda v: v.lru, lambda v: v.k * v.opt, lambda v: v.k, True, False),
    # Fiat et al. (1991); H_k is an O(k) sum, and opt > 0 means Belady
    # evicted, so k is below the trace length
    Bound("marker_2hk", "marker", (), lambda v: v.marker,
          lambda v: (2.0 * harmonic(v.k) - 1.0) * v.opt if v.opt else 0.0, lambda v: v.k,
          True, True),
    Bound("ftl_thm2", "ftl", ("blind_oracle", "lru"), lambda v: v.ftl,
          lambda v: 2.0 * min(v.blind_oracle, v.lru), lambda v: 2 * v.k, False, False),
    Bound("cor1_det", "ftl", ("blind_oracle", "lru"), lambda v: v.ftl,
          lambda v: 2.0 * min(v.thm1_prop1, v.thm1_prop2, v.lru_k), lambda v: 2 * v.k,
          True, False),
    Bound("mw_thm3", "mw", ("blind_oracle", "marker"), lambda v: v.mw,
          lambda v: (1.0 + v.eps) * min(v.blind_oracle, v.marker), lambda v: 8 * v.k / v.eps,
          False, True),
    Bound("cor2_rand", "mw", ("blind_oracle", "marker"), lambda v: v.mw,
          lambda v: (1.0 + v.eps) * min(v.thm1_prop1, v.thm1_prop2, v.marker_2hk),
          lambda v: 8 * v.k / v.eps, True, True),
)

# Identifiers of the checkable bounds, as they appear in reports and CSV
# output.  adversary.certify_lower_bound checks lower_bound_thm4 outside the
# table: it reads an adversary run, not a cell's costs, and its inequality
# runs the other way (alg >= required).
BOUND_IDS = tuple(bound.bound_id for bound in BOUNDS) + ("lower_bound_thm4",)


class BoundRecord(NamedTuple):
    bound_id: str
    lhs: float
    rhs: float
    slack_used: float
    passed: bool
    vacuous: bool = False
    note: str = ""


def check_bounds(
    costs: Mapping[str, float],
    opt: int,
    eta: float,
    inversions: int,
    k: int,
    epsilon: float | None = None,
) -> dict[str, BoundRecord]:
    """Evaluate every bound of ``BOUNDS`` whose policy has an entry in ``costs``.

    ``costs`` maps policy names (lru, blind_oracle, marker, ftl, mw) to
    measured eviction counts, or to their means over seeds; mw's bounds need
    ``epsilon``.  Returns the records by bound id, in table order; each
    record's ``slack_used`` is its inequality's additive term.  A bound that
    uses opt is flagged vacuous when opt is 0.
    """
    if "mw" in costs and epsilon is None:
        raise ConfigError("mw bound checks need epsilon")
    v = SimpleNamespace(**costs, opt=opt, eta=eta, inversions=inversions, k=k, eps=epsilon)
    records: dict[str, BoundRecord] = {}
    for bound in BOUNDS:
        if bound.policy is not None and bound.policy not in costs:
            continue
        if not all(name in costs for name in bound.needs):
            raise ConfigError(f"{bound.policy} bound checks need {' and '.join(bound.needs)} costs")
        lhs = bound.lhs(v)
        if k < bound.min_k:
            rhs = math.inf
            record = BoundRecord(
                bound.bound_id, float(lhs), rhs, 0.0, True, True, f"requires k >= {bound.min_k}"
            )
        else:
            additive = bound.additive(v)
            rhs = bound.rhs(v) + additive
            record = BoundRecord(
                bound.bound_id, float(lhs), float(rhs), float(additive), lhs <= rhs,
                bound.uses_opt and opt == 0,
            )
        setattr(v, bound.bound_id, rhs)
        records[bound.bound_id] = record
    return records
