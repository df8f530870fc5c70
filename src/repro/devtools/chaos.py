"""Deterministic fault injection: ``REPRO_CHAOS`` and :class:`ChaosPolicy`.

The fault-tolerant execution layer (crash-safe :class:`~repro.util.pool.
WorkerPool`, campaign crash-checkpointing) is only trustworthy if its
failure paths run in CI on every push.  This module injects the
failures *deterministically*: a spec string names exactly which task
dies, which task stalls, which cache entry is corrupted — so a chaos
test replays byte-for-byte and an assertion failure is a regression,
never flake.

Spec grammar (``REPRO_CHAOS`` environment variable)::

    event[;event...]        events are independent; ';' separates
    event = kind[:key=value...]

Supported events:

``kill:task=K[:attempt=A]``
    SIGKILL the worker process right before it executes task ``K`` (the
    task's position in the pool's map) — only on attempt ``A`` (default
    0), so the retry of the same task survives and the recovery path is
    what gets tested.
``delay:task=K:ms=M[:attempt=A]``
    Sleep ``M`` milliseconds before executing task ``K`` (any attempt
    when ``attempt`` is omitted) — drives task-timeout detection.
``corrupt-cache:nth=N``
    The ``N``-th campaign cache-entry read in this process first has
    its file overwritten with garbage — drives the corrupt-entry
    re-execution path.

Each kind accepts only its own keys and must name its target (``task``,
``ms`` for delays, ``nth``): a misspelled or missing key is a parse
error, never an event that silently injects nothing.

A global ``seed=S`` event seeds :func:`repro.util.retry.seeded_jitter`
-style probabilistic gates (``p=`` on kill/delay events), for soak runs
that still replay deterministically.  Hooks are no-ops (one cached
``None`` check) when ``REPRO_CHAOS`` is unset, so production paths pay
nothing.  Together with :mod:`repro.util.retry` this is a sanctioned
``time.sleep`` boundary (lint rule RL010).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

from repro.types import InvalidParameterError
from repro.util.retry import seeded_jitter

__all__ = [
    "ChaosEvent",
    "ChaosPolicy",
    "active_policy",
    "reset",
    "on_task",
    "corrupt_cache_entry",
]

# kind -> (required keys, optional keys)
_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "kill": (("task",), ("attempt", "p")),
    "delay": (("task", "ms"), ("attempt", "p")),
    "corrupt-cache": (("nth",), ()),
}

_CORRUPT_BYTES = b'{"chaos": "corrupted entry"'  # deliberately torn JSON


@dataclass(frozen=True)
class ChaosEvent:
    """One parsed injection directive."""

    kind: str
    params: dict[str, str] = field(default_factory=dict)

    def int_param(self, key: str, default: int | None = None) -> int | None:
        raw = self.params.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise InvalidParameterError(
                f"REPRO_CHAOS: {self.kind}:{key} must be an integer, got {raw!r}"
            ) from None


def _validate_event(event: ChaosEvent) -> None:
    """Reject malformed events at parse time, not mid-injection."""
    required, optional = _KEYS[event.kind]
    for key in event.params:
        if key not in required and key not in optional:
            raise InvalidParameterError(
                f"REPRO_CHAOS: unknown parameter {key!r} for {event.kind}; "
                f"known: {', '.join(required + optional)}"
            )
    for key in required:
        if key not in event.params:
            raise InvalidParameterError(
                f"REPRO_CHAOS: {event.kind} needs a {key}= parameter"
            )
    for key in event.params:
        if key != "p":  # every other key is an integer
            event.int_param(key)  # raises InvalidParameterError if bad
    p = event.params.get("p")
    if p is not None:
        try:
            float(p)
        except ValueError:
            raise InvalidParameterError(
                f"REPRO_CHAOS: p must be a float, got {p!r}"
            ) from None


class ChaosPolicy:
    """All parsed events of one ``REPRO_CHAOS`` spec."""

    def __init__(self, events: tuple[ChaosEvent, ...], *, seed: int = 0) -> None:
        self.events = events
        self.seed = seed

    @classmethod
    def parse(cls, spec: str) -> ChaosPolicy:
        events: list[ChaosEvent] = []
        seed = 0
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            head, *rest = raw.split(":")
            if head.startswith("seed="):
                # the global seed event: spelled seed=S, no colon params
                value = head.partition("=")[2]
                try:
                    seed = int(value)
                except ValueError:
                    raise InvalidParameterError(
                        f"REPRO_CHAOS: seed must be an integer, got {value!r}"
                    ) from None
                continue
            if head not in _KEYS:
                raise InvalidParameterError(
                    f"REPRO_CHAOS: unknown event kind {head!r}; "
                    f"known: {', '.join(_KEYS)}, seed"
                )
            params: dict[str, str] = {}
            for part in rest:
                key, sep, value = part.partition("=")
                if not sep or not key:
                    raise InvalidParameterError(
                        f"REPRO_CHAOS: malformed parameter {part!r} in {raw!r} "
                        "(expected key=value)"
                    )
                params[key] = value
            event = ChaosEvent(head, params)
            _validate_event(event)
            events.append(event)
        return cls(tuple(events), seed=seed)

    def _gate(self, event: ChaosEvent, site: str) -> bool:
        """The optional probabilistic gate ``p=`` (seeded, replayable)."""
        raw = event.params.get("p")
        if raw is None:
            return True
        try:
            p = float(raw)
        except ValueError:
            raise InvalidParameterError(
                f"REPRO_CHAOS: p must be a float, got {raw!r}"
            ) from None
        return seeded_jitter(self.seed, site, 0) < p

    # -- decisions ---------------------------------------------------------

    def task_actions(self, index: int, attempt: int) -> tuple[bool, float]:
        """(kill?, delay-seconds) for one task execution."""
        kill = False
        delay = 0.0
        for event in self.events:
            if event.kind == "kill":
                want_attempt = event.int_param("attempt", 0)
                if (
                    event.int_param("task") == index
                    and attempt == want_attempt
                    and self._gate(event, f"kill:{index}:{attempt}")
                ):
                    kill = True
            elif event.kind == "delay":
                want_attempt = event.int_param("attempt")
                if event.int_param("task") == index and (
                    want_attempt is None or attempt == want_attempt
                ):
                    ms = event.int_param("ms", 0) or 0
                    if self._gate(event, f"delay:{index}:{attempt}"):
                        delay += ms / 1000.0
        return kill, delay

    def corrupts_cache(self, nth: int) -> bool:
        return any(
            event.kind == "corrupt-cache" and event.int_param("nth") == nth
            for event in self.events
        )


# -- per-process state -------------------------------------------------------

# (spec, policy) cache: re-parsed only when the env value changes, so
# monkeypatched tests see their spec and production pays one dict read.
_CACHED: tuple[str, ChaosPolicy | None] | None = None
_CACHE_LOAD_COUNT = 0


def active_policy() -> ChaosPolicy | None:
    """The process's policy, or ``None`` when ``REPRO_CHAOS`` is unset."""
    global _CACHED
    spec = os.environ.get("REPRO_CHAOS", "").strip()
    if _CACHED is not None and _CACHED[0] == spec:
        return _CACHED[1]
    policy = ChaosPolicy.parse(spec) if spec else None
    _CACHED = (spec, policy)
    return policy


def reset() -> None:
    """Clear cached policy and counters (test isolation)."""
    global _CACHED, _CACHE_LOAD_COUNT
    _CACHED = None
    _CACHE_LOAD_COUNT = 0


# -- hooks (called from the execution layer) ---------------------------------


def on_task(index: int, attempt: int) -> None:
    """Worker-side hook before executing a task: may delay or die."""
    policy = active_policy()
    if policy is None:
        return
    kill, delay = policy.task_actions(index, attempt)
    if delay > 0:
        time.sleep(delay)
    if kill:
        os.kill(os.getpid(), signal.SIGKILL)


def corrupt_cache_entry(path: str | os.PathLike[str]) -> None:
    """Cache-read hook: maybe scribble garbage over the entry first.

    Corruption is a torn-JSON prefix, which the cache loaders must
    treat as a miss (re-execute) — never a crash, never a stale row.
    """
    global _CACHE_LOAD_COUNT
    policy = active_policy()
    if policy is None:
        return
    nth = _CACHE_LOAD_COUNT
    _CACHE_LOAD_COUNT += 1
    if policy.corrupts_cache(nth):
        with open(os.fspath(path), "wb") as fh:
            fh.write(_CORRUPT_BYTES)
