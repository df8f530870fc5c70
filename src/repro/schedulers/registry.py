"""Declarative scheduler registry (mirrors :mod:`repro.analysis.registry`).

Every scheduling strategy registers itself with the :func:`scheduler`
decorator under a stable name (``greedy``, ``search``, ``store_forward``,
``multimsg_search``) and speaks one request/result API:

``ScheduleRequest``
    graph + source + call-length bound ``k`` (None = unbounded) + round
    budget (None = the minimum ⌈log₂N⌉) + seed + free-form strategy
    parameters.

``ScheduleResult``
    what came back: the schedule (or None), its round count, wall time,
    a reference-validator verdict, and per-strategy stats.

The registry is consumed by the ``repro schedule`` CLI subcommand, the
E23 cross-check experiment, and the scheduler benchmarks; the historical
entry points (``heuristic_line_broadcast``, ``find_minimum_time_schedule``,
…) remain as facades over the same strategies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.frame import ScheduleFrame
from repro.graphs.base import Graph
from repro.model.validator import ValidationReport, minimum_broadcast_rounds
from repro.types import InvalidParameterError, Schedule

__all__ = [
    "ScheduleRequest",
    "ScheduleResult",
    "SchedulerSpec",
    "scheduler",
    "get_scheduler",
    "scheduler_names",
    "all_schedulers",
    "run_scheduler",
    "load_all",
    "positive_param",
]


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling problem instance."""

    graph: Graph
    source: int = 0
    k: int | None = None
    rounds: int | None = None
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def k_effective(self) -> int:
        """``k`` with None resolved to the unbounded value N − 1."""
        return self.k if self.k is not None else max(1, self.graph.n_vertices - 1)

    @property
    def round_budget(self) -> int:
        """The round budget with None resolved to the minimum ⌈log₂N⌉."""
        if self.rounds is not None:
            return self.rounds
        return minimum_broadcast_rounds(self.graph.n_vertices)


@dataclass
class ScheduleResult:
    """A strategy's answer to a :class:`ScheduleRequest`.

    A found schedule is carried twice: ``frame`` is the canonical
    columnar :class:`~repro.frame.ScheduleFrame` (what io, the
    validators, and the batch engine consume), ``schedule`` the object
    view over that same frame.
    """

    scheduler: str
    source: int
    k: int | None
    found: bool
    schedule: Schedule | None
    rounds: int | None
    seconds: float
    valid: bool | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    frame: "ScheduleFrame | None" = None


# A strategy maps a request to (schedule-or-None, stats); the registry
# adds timing and validation around it.
StrategyFn = Callable[[ScheduleRequest], tuple[Schedule | None, dict[str, Any]]]


@dataclass(frozen=True)
class SchedulerSpec:
    """One registered strategy: name, title, callable, and module."""

    name: str
    title: str
    fn: StrategyFn
    module: str = field(default="")


_REGISTRY: dict[str, SchedulerSpec] = {}


def scheduler(name: str, title: str) -> Callable[[StrategyFn], StrategyFn]:
    """Register a strategy under ``name`` (double registration raises)."""

    def decorate(fn: StrategyFn) -> StrategyFn:
        key = name.lower()
        if key in _REGISTRY:
            raise InvalidParameterError(
                f"scheduler {key!r} registered twice "
                f"({_REGISTRY[key].fn.__module__} and {fn.__module__})"
            )
        _REGISTRY[key] = SchedulerSpec(
            name=key, title=title, fn=fn, module=fn.__module__
        )
        return fn

    return decorate


def load_all() -> None:
    """Import every strategy module (idempotent); registration happens at
    import time, exactly as for the experiment registry."""
    from repro.schedulers import (  # noqa: F401
        greedy,
        multimsg_search,
        search,
        store_forward,
    )


def scheduler_names() -> list[str]:
    """All registered scheduler names, sorted."""
    load_all()
    return sorted(_REGISTRY)


def all_schedulers() -> list[SchedulerSpec]:
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_scheduler(name: str) -> SchedulerSpec:
    load_all()
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown scheduler {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def positive_param(params: dict[str, Any], name: str, default: int) -> int:
    """Pop strategy parameter ``name`` as an integer of at least 1.

    The one reader of integer strategy parameters.  Parameters arrive
    as JSON from the service, so only an ``int`` that is not a ``bool``
    counts: ``null``, ``true``, ``1.5``, ``1e400``, ``"7"`` or ``[3]``
    is refused, never coerced.  Restart counts, sample caps, node
    budgets and message counts below 1 cannot run a strategy either.
    Both are the request's fault (``InvalidParameterError``, HTTP 400,
    CLI exit 2) rather than a not-found answer or a crash.
    """
    value = params.pop(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {value}")
    return value


def run_scheduler(
    name: str, request: ScheduleRequest, *, validate: bool = True
) -> ScheduleResult:
    """Run one registered strategy and wrap its answer in a
    :class:`ScheduleResult`.

    Every found schedule comes back with its columnar frame attached.
    With ``validate=True`` (the default) the result is checked through
    :func:`repro.api.validate` — engine ``auto``, whose verdicts and error
    strings equal the reference validator's exactly — and minimum-time is
    required exactly when the request left the round budget at the
    minimum.  A negative round budget is rejected here, the boundary
    the CLI and the service share.
    """
    spec = get_scheduler(name)
    if request.rounds is not None and request.rounds < 0:
        raise InvalidParameterError(f"rounds must be >= 0, got {request.rounds}")
    t0 = time.perf_counter()
    sched, stats = spec.fn(request)
    seconds = time.perf_counter() - t0
    valid: bool | None = None
    frame: ScheduleFrame | None = None
    if sched is not None:
        frame = sched.to_frame()
    if validate and sched is not None:
        from repro.api import validate as api_validate

        report = api_validate(
            request.graph,
            frame,
            request.k_effective,
            require_minimum_time=(request.rounds is None),
        )
        assert isinstance(report, ValidationReport)  # single input → one report
        valid = report.ok
        if not report.ok:
            stats = dict(stats)
            stats["validation_errors"] = list(report.errors)
    return ScheduleResult(
        scheduler=spec.name,
        source=request.source,
        k=request.k,
        found=sched is not None or bool(stats.get("found")),
        schedule=sched,
        rounds=sched.num_rounds if sched is not None else stats.get("rounds"),
        seconds=seconds,
        valid=valid,
        stats=dict(stats),
        frame=frame,
    )
