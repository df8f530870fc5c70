"""The shared scheduling engine.

:mod:`repro.engine.kernels` holds the CSR-native compute kernels every
registered scheduler is a thin strategy over: bounded-depth reachability,
bounded-length simple-path enumeration, uninformed-component labeling with
boundary counts, and the doubling/capacity prunes — all on integer-bitmask
state shared with :mod:`repro.model.validator_fast`.

:mod:`repro.engine.batch` is the batch all-sources layer: coset-translated
schedule generation over the construction's XOR-translation group, with
every translated row checked by the fast validator.

:mod:`repro.engine.cache` is the process-wide kernel cache: one
``GraphKernels`` / ``FastValidator`` per frozen graph, shared by the
schedulers, the simulator, and the experiments.
"""

from repro.engine.batch import (
    AllSourcesOutcome,
    ScheduleLayout,
    StackedSchedules,
    all_sources_schedules,
    translation_group,
    validate_all_sources,
)
from repro.engine.cache import (
    cache_info,
    clear_cache,
    fast_validator_for,
    kernels_for,
)
from repro.engine.kernels import (
    OVERFLOW_PENALTY,
    ComponentSummary,
    GraphKernels,
    PenaltyState,
)

__all__ = [
    "GraphKernels",
    "ComponentSummary",
    "PenaltyState",
    "OVERFLOW_PENALTY",
    "ScheduleLayout",
    "StackedSchedules",
    "AllSourcesOutcome",
    "translation_group",
    "all_sources_schedules",
    "validate_all_sources",
    "kernels_for",
    "fast_validator_for",
    "cache_info",
    "clear_cache",
]
