"""The k-line communication model (paper, Definition 1) as executable code.

``validator``
    Pure checks: does a schedule obey Definition 1 on a given graph with
    call-length bound k, and does it complete a broadcast in minimum time
    (Definitions 2–3)?

``validator_fast``
    The NumPy fast path for the same checks — identical verdicts and
    error strings (failing schedules reported from arrays, pinned to the
    reference by the property tests), an order of magnitude faster.

``simulator``
    A stateful round-by-round executor with statistics (informed counts,
    edge loads, call-length histogram) and the Section-5 *bandwidth-m*
    extension (each edge may carry up to ``bandwidth`` simultaneous calls;
    ``bandwidth=1`` is exactly Definition 1).

``congestion``
    Cross-round edge-load accounting for experiment E15.
"""

from repro.model.congestion import (
    CongestionProfile,
    congestion_profile,
    min_feasible_bandwidth,
)
from repro.model.simulator import LineNetworkSimulator, SimulationResult
from repro.model.validator import (
    ValidationReport,
    assert_valid_broadcast,
    minimum_broadcast_rounds,
    validate_broadcast,
    validate_round,
    verify_k_mlbg_via_scheme,
)
from repro.model.validator_fast import (
    FastValidator,
    classify_error,
    validate_broadcast_fast,
)

__all__ = [
    "ValidationReport",
    "validate_round",
    "validate_broadcast",
    "FastValidator",
    "validate_broadcast_fast",
    "classify_error",
    "assert_valid_broadcast",
    "minimum_broadcast_rounds",
    "verify_k_mlbg_via_scheme",
    "LineNetworkSimulator",
    "SimulationResult",
    "CongestionProfile",
    "congestion_profile",
    "min_feasible_bandwidth",
]
