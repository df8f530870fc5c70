"""Structured error taxonomy for the fault-tolerant execution layer.

Everything that can go wrong while *executing* work (as opposed to the
domain errors in :mod:`repro.types` — invalid parameters, invalid
schedules, construction invariants) is classified here, because the
retry machinery needs to tell the two kinds apart:

* :class:`ExecutionError` subclasses are **infrastructure faults** — a
  worker process died or a task blew its deadline.  They are transient
  by nature and the sanctioned response is the retry/quarantine
  discipline of :mod:`repro.util.retry` and
  :class:`repro.util.pool.WorkerPool`.
* :class:`ScenarioError` wraps a **task-level failure**: the scenario's
  own code raised.  Deterministic code errors are never retried — the
  same inputs would fail the same way — so they are captured once,
  attributed to their scenario id, and reported.

This module is also the one sanctioned *broad-exception boundary* in
the library: lint rule RL010 bans ``except Exception`` elsewhere, so
catch-alls funnel through :func:`captured_call` and every swallowed
exception is accounted for instead of silently discarded.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Literal, TypeVar

from repro.types import ReproError

__all__ = [
    "ReproError",
    "ExecutionError",
    "WorkerCrash",
    "TaskTimeout",
    "ScenarioError",
    "CorpusError",
    "CorpusFormatError",
    "CorpusIntegrityError",
    "CorpusKeyError",
    "error_code",
    "format_cause",
    "captured_call",
]

_R = TypeVar("_R")


class ExecutionError(ReproError):
    """An infrastructure fault in the parallel execution stack.

    Subclasses are the *retryable* family: the failure is a property of
    the process/OS environment (a killed worker, a missed deadline), not
    of the task's inputs, so re-running the task is meaningful.  Each
    carries how many attempts the affected task has consumed.
    """

    code = "execution-error"

    def __init__(self, message: str, *, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts


class WorkerCrash(ExecutionError):
    """A worker process died without delivering its result.

    Detected by the pool through the process sentinel (the
    ``BrokenProcessPool`` analogue for the repo's own worker pool);
    carries the observed exit code.
    """

    code = "worker-crash"

    def __init__(
        self,
        message: str,
        *,
        exitcode: int | None = None,
        attempts: int = 1,
    ) -> None:
        super().__init__(message, attempts=attempts)
        self.exitcode = exitcode


class TaskTimeout(ExecutionError):
    """A task exceeded its per-task deadline and its worker was culled."""

    code = "task-timeout"


class ScenarioError(ReproError):
    """A campaign scenario's own code raised.

    Keeps the scenario identity next to the cause so a campaign report
    can say *which* grid point failed and why, instead of surfacing a
    bare traceback string torn from its context.
    """

    code = "scenario-error"

    def __init__(self, scenario_id: str, cause: str) -> None:
        super().__init__(f"scenario {scenario_id}: {cause}")
        self.scenario_id = scenario_id
        self.cause = cause


class CorpusError(ReproError):
    """Something is wrong with a packed schedule corpus file.

    The family root for :mod:`repro.corpus`.  Subclasses distinguish
    the three failure classes a corpus consumer cares about: the file
    is not a corpus at all (:class:`CorpusFormatError`), the file *is*
    a corpus but its bytes do not match its digests
    (:class:`CorpusIntegrityError`), and a lookup key is simply absent
    (:class:`CorpusKeyError`).  All codes are stable and mapped to HTTP
    statuses in :mod:`repro.service.protocol`.
    """

    code = "corpus-error"


class CorpusFormatError(CorpusError):
    """The file is not a readable corpus (bad magic, version, layout)."""

    code = "corpus-format-error"


class CorpusIntegrityError(CorpusError):
    """A section's bytes do not match the footer's recorded digest."""

    code = "corpus-integrity-error"


class CorpusKeyError(CorpusError):
    """A strict lookup found no frame for the requested key."""

    code = "corpus-miss"


def error_code(exc: BaseException) -> str:
    """The stable machine-readable code for an exception.

    :class:`ReproError` subclasses carry their own ``code``; the few
    non-library types that legitimately cross the CLI/service boundary
    get fixed spellings here.  Everything else is ``internal-error`` —
    an unclassified failure is a bug, and the code says so.
    """
    if isinstance(exc, ReproError):
        return exc.code
    if isinstance(exc, KeyError):
        return "unknown-name"
    if isinstance(exc, OSError):
        return "io-error"
    if isinstance(exc, ValueError):
        return "invalid-parameter"
    return "internal-error"


def format_cause(exc: BaseException) -> str:
    """The canonical one-line rendering of a captured exception."""
    return f"{type(exc).__name__}: {exc}"


def captured_call(
    fn: Callable[..., _R], *args: object, **kwargs: object
) -> tuple[Literal["ok"], _R] | tuple[Literal["raise"], BaseException]:
    """Run ``fn`` and return ``("ok", result)`` or ``("raise", exc)``.

    The sanctioned broad-exception boundary (RL010): failures come back
    as *values*, so a caller accounts for each one instead of losing
    finished work to it.  The worker pool's child loop ships the
    exception *object* back over its result pipe, so the parent re-raises
    the real type (pinned by the pool tests), not a stringified shadow.
    ``KeyboardInterrupt``/``SystemExit`` still propagate.
    """
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the one sanctioned catch-all (RL010)
        return "raise", exc
