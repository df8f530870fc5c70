"""Retry policy: bounded attempts, deterministic backoff, deadlines.

One :class:`RetryPolicy` value travels from the CLI knobs
(``--retries`` / ``--task-timeout``) down through every parallel
surface, so the fault discipline is written down once:

* **Bounded attempts.**  A task gets ``max_attempts`` tries; the pool
  retries only :class:`~repro.errors.ExecutionError`-family faults
  (worker crash, deadline) — a task whose *own code*
  raises fails immediately, because deterministic errors cannot be
  retried away.  When the budget is exhausted the task is quarantined
  (poison-task report) instead of aborting its whole run.
* **Deterministic exponential backoff with seeded jitter.**
  ``backoff(attempt, key)`` doubles from ``base_delay`` up to
  ``max_delay`` and jitters each step by a factor derived from
  ``sha256(key, attempt)`` — the same run always sleeps the same
  amount (no module-global RNG, RL001), while distinct tasks decorrelate.
* **Per-task deadlines.**  ``task_timeout`` seconds per task, counted
  from the task's dispatch (see ``WorkerPool``), so a hung task surfaces
  as :class:`~repro.errors.TaskTimeout` instead of a silent stall.

Nothing here sleeps: ``WorkerPool`` waits out each backoff and each
deadline as an event-loop timer.  This module stays one of lint rule
RL010's boundary modules — ad-hoc sleep/retry loops elsewhere are
banned so every backoff is policy-driven and deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.types import InvalidParameterError

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "RetryPolicy",
    "seeded_jitter",
]

# Two retries by default: enough to absorb a transient fault (one kill,
# one unlucky respawn) without letting a genuinely poisoned task burn
# minutes before quarantine.
DEFAULT_MAX_ATTEMPTS = 3


def seeded_jitter(key: str, attempt: int) -> float:
    """A deterministic jitter factor in ``[0, 1)``, seeded by ``key``.

    Stable across processes and machines (sha256, not ``hash()``), so a
    chaos-injected run backs off identically on every replay.
    """
    blob = f"{key}:{attempt}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the execution layer responds to infrastructure faults."""

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    base_delay: float = 0.05
    max_delay: float = 2.0
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise InvalidParameterError(
                "backoff delays must be >= 0, got "
                f"base={self.base_delay}, max={self.max_delay}"
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

    def backoff(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before re-dispatching attempt ``attempt``.

        ``attempt`` counts *failures so far* (1 = first retry).  The
        exponential step is jittered into ``[0.5, 1.0)`` of its nominal
        value so simultaneous retries decorrelate without a shared RNG.
        """
        if attempt < 1 or self.base_delay == 0:
            return 0.0
        nominal = min(self.max_delay, self.base_delay * 2 ** (attempt - 1))
        return nominal * (0.5 + seeded_jitter(key, attempt) / 2)
