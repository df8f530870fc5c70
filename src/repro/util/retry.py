"""Retry policy: bounded attempts and per-task deadlines.

One :class:`RetryPolicy` value travels from the CLI knobs
(``--retries`` / ``--task-timeout``) down through every parallel
surface, so the fault discipline is written down once:

* **Bounded attempts.**  A task gets ``max_attempts`` tries; the pool
  retries only :class:`~repro.errors.ExecutionError`-family faults
  (worker crash, deadline) — a task whose *own code*
  raises fails immediately, because deterministic errors cannot be
  retried away.  When the budget is exhausted the task fails with the
  fault's error, and ``WorkerPool.map_quarantine`` quarantines it
  instead of aborting its whole run.
* **Per-task deadlines.**  ``task_timeout`` seconds per task, counted
  from the task's dispatch (see ``WorkerPool``), so a hung task surfaces
  as :class:`~repro.errors.TaskTimeout` instead of a silent stall.

A retry waits for nothing: the pool puts the task back at the front of
its backlog at once, for a freshly forked worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import InvalidParameterError

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "RetryPolicy",
]

# Two retries by default: enough to absorb a transient fault (one kill,
# one unlucky respawn) without letting a genuinely poisoned task burn
# minutes before quarantine.
DEFAULT_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class RetryPolicy:
    """How the execution layer responds to infrastructure faults."""

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise InvalidParameterError(
                f"task_timeout must be > 0 or None, got {self.task_timeout}"
            )

    @property
    def retries(self) -> int:
        """Extra attempts after the first (the CLI's ``--retries``)."""
        return self.max_attempts - 1

    @classmethod
    def from_knobs(
        cls,
        *,
        retries: int | None = None,
        task_timeout: float | None = None,
    ) -> RetryPolicy:
        """Build a policy from the CLI's ``--retries``/``--task-timeout``."""
        if retries is not None and retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        attempts = DEFAULT_MAX_ATTEMPTS if retries is None else retries + 1
        return cls(max_attempts=attempts, task_timeout=task_timeout)
