"""Trace-driven simulator for online caching with next-arrival predictions.

Implements the naive prediction-following eviction policy, classical robust
policies (LRU, randomized marking, offline optimal), deterministic and
randomized black-box combiners, prediction-error metrics with competitive
bound checkers, and an adaptive lower-bound adversary, plus a CSV experiment
runner.
"""

from .adversary import AdversaryConfig, AdversaryResult, certify_lower_bound, run_adversary
from .combine import POLICY_NAMES, FtlCombiner, MwCombiner, make_policies, run_policy
from .errors import ConfigError, NondeterministicPolicyError, TraceParseError
from .metrics import (
    BOUND_IDS,
    BoundRecord,
    check_bounds,
    count_inversions_fast,
    ell1_loss,
    harmonic,
)
from .policies import (
    Belady,
    BlindOracle,
    LRU,
    Marker,
    Policy,
    simulate,
)
from .trace import (
    NoiseSpec,
    PageId,
    Trace,
    WorkloadSpec,
    generate_workload,
    next_arrivals,
    parse_trace,
    perturb_predictions,
    synthesize,
    synthesize_traces,
    write_trace,
)

__version__ = "0.1.0"
