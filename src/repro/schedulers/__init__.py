"""Broadcast schedulers beyond the paper's closed-form schemes.

Every scheduler is a thin strategy over the shared engine
(:mod:`repro.engine.kernels`) and registers itself in the scheduler
registry (:mod:`repro.schedulers.registry`) — discover them with
``repro schedule --list`` or :func:`scheduler_names`, run them through
the common :class:`ScheduleRequest` / :class:`ScheduleResult` API with
:func:`run_scheduler`.

``search``
    Exact branch-and-bound: finds a minimum-time k-line broadcast schedule
    or certifies none exists (small graphs).  Used to machine-check
    Definition-3 membership *independently* of the constructions' schemes,
    and to verify Theorem 1 trees exactly for small h.

``greedy``
    Randomized capacity-aware heuristic for larger instances (Theorem-1
    trees at larger h, baseline topologies).  Sound but incomplete: a
    returned schedule is always validated; a None return means "not
    found", never "impossible".

``store_forward``
    The k = 1 baseline: classic binomial-tree broadcast on the hypercube
    (the store-and-forward model the paper generalizes away from).

``multimsg_search``
    Exact multi-message broadcast search (M = 1 reduces to Definition-1
    broadcast; M > 1 answers the Kwon–Chwa pipelining question).

Besides the registry, this package exports the multi-message trio
(``find_multimessage_schedule``, ``multimessage_lower_bound``,
``validate_multimessage``) and the analysis helpers
(``minimum_kline_rounds``, ``is_k_mlbg_exact``): an M > 1
:class:`MultiMessageSchedule` is not a Definition-1 schedule, so the
registry cannot carry it.

The pre-engine set-based implementations are retained verbatim in
:mod:`repro.schedulers.legacy` as the property-test oracle and the
benchmark baseline.
"""

from repro.schedulers.multimsg_search import (
    find_multimessage_schedule,
    multimessage_lower_bound,
    validate_multimessage,
)
from repro.schedulers.registry import (
    ScheduleRequest,
    ScheduleResult,
    run_scheduler,
    scheduler_names,
)
from repro.schedulers.search import (
    is_k_mlbg_exact,
    minimum_kline_rounds,
)

__all__ = [
    "find_multimessage_schedule",
    "is_k_mlbg_exact",
    "minimum_kline_rounds",
    "multimessage_lower_bound",
    "validate_multimessage",
    "ScheduleRequest",
    "ScheduleResult",
    "run_scheduler",
    "scheduler_names",
]
