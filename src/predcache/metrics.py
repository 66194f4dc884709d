"""Prediction-error measures and competitive-bound checkers.

The two error measures are the l1 loss (sum of |prediction - true arrival|)
and the inversion count: ordered pairs (i, j) whose true arrivals satisfy
y_i < y_j while the predictions order the other way, h_i >= h_j.  The l1 loss
is always at least half the inversion count, which ``check_bounds`` verifies
alongside the cost bounds of the individual policies and combiners.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ConfigError


def harmonic(k: int) -> float:
    """k-th harmonic number, 1 + 1/2 + ... + 1/k."""
    return sum(1.0 / i for i in range(1, k + 1))


def ell1_loss(arrivals: Sequence[int], predictions: Sequence[float]) -> float:
    if len(arrivals) != len(predictions):
        raise ValueError("arrivals and predictions must have equal length")
    return sum(abs(h - y) for y, h in zip(arrivals, predictions))


_BLOCK_BITS = 11  # count_inversions_fast keeps an int bitset per 2**_BLOCK_BITS positions


def count_inversions_fast(arrivals: Sequence[int], predictions: Sequence[float]) -> int:
    """Inversion count from three sorts and a few C-level int operations per element.

    Taken by arrival, tied arrivals by prediction descending, an earlier
    element pairs with a later one exactly when its prediction is >=; that
    also counts each tied-arrival pair, so sum C(g, 2) over the arrival
    groups is subtracted.  Ranked by prediction, ties ranking higher the
    earlier they come, the positions listed by rank form a permutation whose
    inversions are exactly those pairs: each position adds the set bits above
    it in its block's bitset and the counts of later blocks, then sets its bit."""
    if len(arrivals) != len(predictions):
        raise ValueError("arrivals and predictions must have equal length")
    n = len(arrivals)
    total = -sum(g * (g - 1) // 2 for g in Counter(arrivals).values())
    order = sorted(range(n), key=predictions.__getitem__, reverse=True)
    order.sort(key=arrivals.__getitem__)
    ordered = list(map(predictions.__getitem__, order))
    del order  # the rank sort makes n new ints; free these first to lower the peak
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


# Identifiers of the checkable bounds, as they appear in reports and CSV output.
BOUND_IDS = (
    "lemma1",
    "thm1_prop1",
    "thm1_prop2",
    "cor1_det",
    "cor2_rand",
    "ftl_thm2",
    "mw_thm3",
    "lru_k",
    "marker_2hk",
    "lower_bound_thm4",
)


@dataclass(frozen=True)
class BoundRecord:
    bound_id: str
    lhs: float
    rhs: float
    slack_used: float
    passed: bool
    vacuous: bool = False
    note: str = ""


def _record(bound_id, lhs, rhs, slack, *, vacuous=False, note="") -> BoundRecord:
    return BoundRecord(bound_id, float(lhs), float(rhs), float(slack), lhs <= rhs, vacuous, note)


def check_bounds(
    costs: Mapping[str, float],
    opt: int,
    eta: float,
    inversions: int,
    k: int,
    epsilon: float | None = None,
) -> dict[str, BoundRecord]:
    """Evaluate every bound that the given cost entries make checkable.

    ``costs`` maps policy names (lru, blind_oracle, marker, ftl, mw) to
    measured eviction counts; marker and mw entries may be means over seeds.
    Returns the records by bound id, in the order listed; each record's
    ``slack_used`` is its inequality's additive term (k, 2k, 8k/eps or 0):

      lemma1       inversions / 2 <= eta
      thm1_prop1   blind_oracle <= opt + 2*eta
      thm1_prop2   blind_oracle <= 2*opt + 4*eta/(k-1) + k          (k >= 2)
      lru_k        lru <= k*opt + k
      marker_2hk   marker <= (2*H_k - 1)*opt + k
      ftl_thm2     ftl <= 2*min(blind_oracle, lru) + 2k
      cor1_det     ftl <= 2*min(prop1 rhs, prop2 rhs, lru_k rhs) + 2k
      mw_thm3      mw <= (1+eps)*min(blind_oracle, marker) + 8k/eps
      cor2_rand    mw <= (1+eps)*min(prop1 rhs, prop2 rhs, marker_2hk rhs) + 8k/eps

    Bounds that reference opt are flagged vacuous when opt is 0 (every
    in-contract policy then has zero cost, so they hold trivially).
    """
    records: list[BoundRecord] = []
    opt_zero = opt == 0

    records.append(_record("lemma1", inversions / 2.0, eta, 0.0))

    prop1_rhs = opt + 2.0 * eta
    prop2_rhs = math.inf
    if k >= 2:
        prop2_rhs = 2.0 * opt + 4.0 * eta / (k - 1) + k
    lru_rhs = k * opt + k
    # H_k is an O(k) sum; opt > 0 means Belady evicted, so k is below the trace length
    marker_rhs = float(k) if opt_zero else (2.0 * harmonic(k) - 1.0) * opt + k

    if "blind_oracle" in costs:
        bo = costs["blind_oracle"]
        records.append(_record("thm1_prop1", bo, prop1_rhs, 0.0, vacuous=opt_zero))
        if k >= 2:
            records.append(
                _record("thm1_prop2", bo, prop2_rhs, k, vacuous=opt_zero)
            )
        else:
            records.append(
                BoundRecord("thm1_prop2", bo, math.inf, 0.0, True, True, "requires k >= 2")
            )

    if "lru" in costs:
        records.append(_record("lru_k", costs["lru"], lru_rhs, k, vacuous=opt_zero))

    if "marker" in costs:
        records.append(
            _record("marker_2hk", costs["marker"], marker_rhs, k, vacuous=opt_zero)
        )

    if "ftl" in costs:
        if "blind_oracle" not in costs or "lru" not in costs:
            raise ConfigError("ftl bound checks need blind_oracle and lru costs")
        ftl = costs["ftl"]
        ftl_slack = 2 * k
        records.append(
            _record(
                "ftl_thm2",
                ftl,
                2.0 * min(costs["blind_oracle"], costs["lru"]) + ftl_slack,
                ftl_slack,
            )
        )
        records.append(
            _record(
                "cor1_det",
                ftl,
                2.0 * min(prop1_rhs, prop2_rhs, lru_rhs) + ftl_slack,
                ftl_slack,
                vacuous=opt_zero,
            )
        )

    if "mw" in costs:
        if epsilon is None:
            raise ConfigError("mw bound checks need epsilon")
        if "blind_oracle" not in costs or "marker" not in costs:
            raise ConfigError("mw bound checks need blind_oracle and marker costs")
        mw = costs["mw"]
        mw_slack = 8 * k / epsilon
        records.append(
            _record(
                "mw_thm3",
                mw,
                (1.0 + epsilon) * min(costs["blind_oracle"], costs["marker"]) + mw_slack,
                mw_slack,
            )
        )
        records.append(
            _record(
                "cor2_rand",
                mw,
                (1.0 + epsilon) * min(prop1_rhs, prop2_rhs, marker_rhs) + mw_slack,
                mw_slack,
                vacuous=opt_zero,
            )
        )

    return {record.bound_id: record for record in records}
