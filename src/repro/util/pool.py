"""Crash-safe multiprocessing pool: one task per dispatch, survives faults.

Every parallel surface in the repo (``ExperimentRunner``,
``CampaignRunner``) routes through :class:`WorkerPool` so the pool
policy is written down once:

* **In-process when parallelism cannot pay.**  ``jobs == 1`` or at most
  one task never spins up a pool; the optional ``initializer`` still runs
  (in-process) so serial and parallel executions warm the same caches.
* **One task per dispatch.**  Each idle worker is handed exactly one
  task, so a slow task never holds others hostage and each task is its
  own unit of retry and deadline.  Fresh tasks go out in task order, and
  a dispatch never rescans the queue, so its cost does not grow with the
  number of tasks.  Results are reassembled in task order regardless of
  worker scheduling, crashes, or retries — the determinism contract
  pinned by ``tests/util/test_pool.py``.
* **Crash safety.**  Workers are individual ``multiprocessing.Process``
  children, each with its own duplex pipe; the parent waits on result
  pipes *and* process sentinels simultaneously, so a SIGKILL'd worker is
  detected immediately (the ``BrokenProcessPool`` analogue) instead of
  hanging the run.  The failed task — and only that task — is re-run
  under the :class:`~repro.util.retry.RetryPolicy`, after its backoff.
  A task that keeps killing its worker (or blowing its ``task_timeout``
  deadline, counted from its dispatch) is **quarantined** after
  ``max_attempts``: :meth:`WorkerPool.map_quarantine` reports it as a
  :class:`TaskFault` value while every other task completes; plain
  :meth:`WorkerPool.map` raises the corresponding
  :class:`~repro.errors.WorkerCrash` / :class:`~repro.errors.TaskTimeout`.
  Exceptions raised by the task's *own code* are never retried — they
  re-raise in the parent with their original type, exactly as before.
* **Graceful vs. hard shutdown.**  ``close()`` asks each worker to stop
  and joins it (clean ``exitcode == 0``, atexit/flush hooks run);
  ``terminate()`` is the error-path hard kill.  A ``with`` block closes
  gracefully on clean exit and terminates when an exception is flying.
* **Start method.**  The platform default (``fork`` on Linux, ``spawn``
  elsewhere).  Everything submitted — worker functions, initializers,
  their arguments — must be a *top-level picklable* object (RL005), so
  the code is spawn-safe by construction.

Fault injection for tests/CI lives in :mod:`repro.devtools.chaos`
(``REPRO_CHAOS``): the worker loop consults the chaos policy before
each task (deterministic kill/delay), which is how the retry, timeout,
and quarantine paths are proven without real flakiness.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as _connection_wait
from typing import Any, TypeVar, cast

from repro.devtools import chaos
from repro.errors import TaskTimeout, WorkerCrash, captured_call, format_cause
from repro.util.retry import RetryPolicy, pause

__all__ = [
    "TaskFault",
    "WorkerPool",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

# Seconds granted to a worker to exit after a graceful stop request
# before the hard-kill escalation (it is idle at that point — the grace
# only needs to cover interpreter shutdown).
_GRACEFUL_JOIN_SECONDS = 5.0

# Poll ceiling while tasks are in flight and a deadline or backoff gap
# is pending; keeps fault detection latency bounded without busy-waiting.
_MAX_POLL_SECONDS = 0.25


@dataclass(frozen=True)
class TaskFault:
    """One quarantined task: the poison-task report, not an exception."""

    index: int
    kind: str  # "crash" | "timeout"
    message: str
    attempts: int
    exitcode: int | None = None  # the crashed worker's, once reaped

    def as_error(self) -> WorkerCrash | TaskTimeout:
        """The exception this fault raises outside quarantine mode."""
        if self.kind == "timeout":
            return TaskTimeout(self.message, attempts=self.attempts)
        return WorkerCrash(self.message, exitcode=self.exitcode, attempts=self.attempts)


# -- worker side -------------------------------------------------------------


def _send_safe(conn: Connection, msg: tuple[str, Any]) -> None:
    """Send ``msg``; degrade unpicklable payloads to picklable summaries.

    An unpicklable result/exception must not kill the worker (the parent
    would misread that as a crash and retry a deterministic failure).
    """
    status, payload = captured_call(conn.send, msg)
    if status == "ok":
        return
    if msg[0] == "ok":  # a result that would not pickle
        conn.send(("error", RuntimeError(f"result not picklable: {payload!r}")))
    else:  # "error" / "init_error" whose exception would not pickle
        conn.send((msg[0], RuntimeError(format_cause(msg[1]))))


def _worker_main(
    conn: Connection,
    initializer: Callable[..., object] | None,
    initargs: tuple[Any, ...],
) -> None:
    """Worker child loop: init once, then serve tasks until stopped.

    Protocol (parent → worker): ``("task", index, attempt, fn, item)`` or
    ``("stop",)``.  Worker → parent: ``("ok", value)``, ``("error",
    exc)``, or ``("init_error", exc)``.  A worker exits only on a stop
    request, a closed pipe, or after reporting an initializer failure, so
    a sentinel that fires while a task is in flight, with no message in
    the pipe, always means a crash.
    """
    if initializer is not None:
        status, payload = captured_call(initializer, *initargs)
        if status == "raise":
            _send_safe(conn, ("init_error", payload))
            conn.close()
            return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing useful left to do
        if msg[0] == "stop":
            break
        _, index, attempt, fn, item = msg
        chaos.on_task(index, attempt)  # may delay or SIGKILL (tests)
        status, payload = captured_call(fn, item)
        _send_safe(conn, ("error" if status == "raise" else "ok", payload))
    conn.close()


# -- parent side -------------------------------------------------------------


@dataclass(order=True)
class _Task:
    """One task of a map; orders by its backoff gate, then its index."""

    not_before: float  # monotonic timestamp gating re-dispatch
    index: int  # position in the mapped task list
    item: Any = field(compare=False)
    attempts: int = field(default=0, compare=False)


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("proc", "conn", "slot", "task", "deadline")

    def __init__(
        self, proc: multiprocessing.Process, conn: Connection, slot: int
    ) -> None:
        self.proc = proc
        self.conn = conn
        self.slot = slot
        self.task: _Task | None = None
        self.deadline: float | None = None


class WorkerPool:
    """A persistent, context-managed, crash-safe worker pool.

    Wraps per-worker processes with the repo's policy defaults (one task
    per dispatch, optional per-worker initializer, retry/timeout/quarantine
    via :class:`~repro.util.retry.RetryPolicy`) and keeps the workers
    alive across calls:

    >>> with WorkerPool(jobs=4, initializer=warm) as pool:
    ...     a = pool.map(fn, tasks_1)
    ...     b = pool.map(fn, tasks_2)   # same warm workers

    ``jobs == 1`` is fully supported and never forks: ``map`` runs
    in-process (running ``initializer`` once, lazily) so callers can use
    one code path for serial and parallel execution.
    """

    def __init__(
        self,
        jobs: int,
        *,
        initializer: Callable[..., object] | None = None,
        initargs: tuple[Any, ...] = (),
        retry: RetryPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        # Parse REPRO_CHAOS eagerly: a malformed spec must fail loudly
        # at pool construction, not silently no-op on serial runs (the
        # worker-side hooks are the only other parse site, and the
        # in-process path never reaches them).
        chaos.active_policy()
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self._initializer = initializer
        self._initargs = initargs
        self._workers: dict[int, _Worker] = {}
        self._warmed_inprocess = False
        self._init_error: BaseException | None = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # clean exit joins in-flight workers gracefully; an in-flight
        # exception must not wait on anything — hard-kill and re-raise
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def close(self) -> None:
        """Gracefully shut the pool down (idempotent).

        Each worker receives a stop request, finishes what it is doing,
        and exits cleanly (``exitcode == 0`` — atexit handlers and
        buffer flushes run).  Workers that fail to stop within the grace
        period are escalated to the hard-kill path.
        """
        self._closed = True
        self._teardown(graceful=True)

    def terminate(self) -> None:
        """Hard-kill every worker (the error path; idempotent)."""
        self._closed = True
        self._teardown(graceful=False)

    def _teardown(self, *, graceful: bool) -> None:
        workers = list(self._workers.values())
        self._workers.clear()
        if graceful:
            for worker in workers:
                if worker.proc.is_alive():
                    status, _ = captured_call(worker.conn.send, ("stop",))
                    del status  # a dead pipe just means it is already gone
        for worker in workers:
            worker.proc.join(_GRACEFUL_JOIN_SECONDS if graceful else 0.1)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover - last resort
                worker.proc.kill()
                worker.proc.join(1.0)
            worker.conn.close()

    # -- worker management -------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        proc = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self._initializer, self._initargs),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn, slot)
        self._workers[slot] = worker
        return worker

    def _remove(self, worker: _Worker) -> None:
        """Hard-kill one worker and free its slot."""
        self._workers.pop(worker.slot, None)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover - last resort
                worker.proc.kill()
        worker.proc.join(1.0)
        worker.conn.close()

    # -- execution ---------------------------------------------------------

    def map(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        *,
        on_result: Callable[[int, _R], None] | None = None,
    ) -> list[_R]:
        """Map ``fn`` over ``tasks``; results come back in task order.

        Infrastructure faults (worker crash, deadline) are retried under
        the pool's :class:`RetryPolicy`; a task that exhausts its budget
        raises :class:`~repro.errors.WorkerCrash` /
        :class:`~repro.errors.TaskTimeout`.  ``on_result`` streams each
        completed task ``(task_index, value)`` to the caller as it lands
        (completion order) — the hook both runners store results through.
        """
        results, faults = self._run(fn, tasks, on_result=on_result)
        if faults:
            raise faults[0].as_error()
        return cast("list[_R]", results)

    def map_quarantine(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        *,
        on_result: Callable[[int, _R], None] | None = None,
    ) -> tuple[list[_R | None], list[TaskFault]]:
        """Like :meth:`map`, but faulted tasks are quarantined.

        Returns ``(results, faults)``: every task that exhausted its
        retry budget has ``None`` at its position and a
        :class:`TaskFault` entry — the poison-task report — while all
        other tasks complete normally.  Task-code exceptions still
        raise (they are deterministic; see the module docstring).
        """
        return self._run(fn, tasks, quarantine=True, on_result=on_result)

    def _warm_inprocess(self) -> None:
        """Serial-path initializer: run once, fail loudly forever after.

        A failed initializer must not be silently re-run against
        half-initialized state on the next call (the pre-PR-8 bug):
        the first failure propagates, and every later call surfaces a
        clear error naming the original cause instead.
        """
        if self._init_error is not None:
            raise RuntimeError(
                "WorkerPool initializer failed previously: "
                f"{format_cause(self._init_error)}"
            ) from self._init_error
        if self._initializer is None or self._warmed_inprocess:
            return
        status, payload = captured_call(self._initializer, *self._initargs)
        if status == "raise":
            self._init_error = payload
            raise payload
        self._warmed_inprocess = True

    def _run(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        *,
        quarantine: bool = False,
        on_result: Callable[[int, _R], None] | None = None,
    ) -> tuple[list[_R | None], list[TaskFault]]:
        items = list(tasks)
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self.jobs == 1 or len(items) <= 1:
            # In-process: no crash isolation exists here, so faults
            # cannot be quarantined — task exceptions propagate as-is.
            self._warm_inprocess()
            out: list[_R | None] = []
            for idx, item in enumerate(items):
                value = fn(item)
                out.append(value)
                if on_result is not None:
                    on_result(idx, value)
            return out, []
        # Fresh tasks leave in task order; a task that faulted waits in
        # ``requeued``, a heap on its backoff gate, and goes first once
        # the gate opens — so no dispatch rescans the remaining tasks.
        fresh = deque(_Task(0.0, idx, item) for idx, item in enumerate(items))
        requeued: list[_Task] = []
        results: list[_R | None] = [None] * len(items)
        faults: list[TaskFault] = []
        remaining = len(items)
        try:
            while remaining > 0:
                self._dispatch(fn, fresh, requeued)
                remaining -= self._collect(
                    fresh, requeued, results, faults, quarantine, on_result
                )
        except BaseException:  # repro-lint: disable=RL010 (re-raised immediately: the catch only hard-kills workers orphaned by the failing map, it swallows nothing)
            # error path: never leave workers running a doomed map
            self._teardown(graceful=False)
            raise
        return results, faults

    def _dispatch(
        self,
        fn: Callable[[Any], Any],
        fresh: deque[_Task],
        requeued: list[_Task],
    ) -> None:
        """Hand one ready task to each idle slot, spawning up to ``jobs``."""
        now = time.monotonic()
        timeout = self.retry.task_timeout
        for slot in range(self.jobs):
            worker = self._workers.get(slot)
            if worker is not None and worker.task is not None:
                continue
            if requeued and requeued[0].not_before <= now:
                task = heapq.heappop(requeued)
            elif fresh:
                task = fresh.popleft()
            else:
                return
            if worker is None:
                worker = self._spawn(slot)
            worker.task = task
            worker.deadline = None if timeout is None else now + timeout
            status, _ = captured_call(
                worker.conn.send, ("task", task.index, task.attempts, fn, task.item)
            )
            if status == "raise":
                # dead pipe: the worker crashed before we could feed it;
                # requeue the task without charging an attempt
                worker.task = None
                heapq.heappush(requeued, task)
                self._remove(worker)

    def _collect(
        self,
        fresh: deque[_Task],
        requeued: list[_Task],
        results: list[Any],
        faults: list[TaskFault],
        quarantine: bool,
        on_result: Callable[[int, Any], None] | None,
    ) -> int:
        """Wait for one round of events; returns tasks newly settled."""
        busy = [w for w in self._workers.values() if w.task is not None]
        timeout = self._poll_timeout(busy, fresh, requeued)
        if not busy:
            pause(timeout if timeout is not None else 0.0)  # backoff gap
            return 0
        objects: list[Any] = [w.conn for w in busy]
        objects += [w.proc.sentinel for w in busy]
        ready = set(_connection_wait(objects, timeout))
        settled = 0
        for worker in busy:
            if worker.conn in ready or worker.proc.sentinel in ready:
                settled += self._service(
                    worker, requeued, results, faults, quarantine, on_result
                )
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if (
                worker.task is not None
                and worker.deadline is not None
                and now > worker.deadline
            ):
                settled += self._fail_task(
                    worker, "timeout", requeued, faults, quarantine
                )
        return settled

    def _poll_timeout(
        self,
        busy: list[_Worker],
        fresh: deque[_Task],
        requeued: list[_Task],
    ) -> float | None:
        now = time.monotonic()
        bounds = [w.deadline - now for w in busy if w.deadline is not None]
        if requeued and requeued[0].not_before > now:
            bounds.append(requeued[0].not_before - now)
        if (fresh or requeued) and not busy and not bounds:
            return _MAX_POLL_SECONDS
        if not bounds:
            return None  # block until a message or a death
        return min(_MAX_POLL_SECONDS, max(0.0, min(bounds)))

    def _service(
        self,
        worker: _Worker,
        requeued: list[_Task],
        results: list[Any],
        faults: list[TaskFault],
        quarantine: bool,
        on_result: Callable[[int, Any], None] | None,
    ) -> int:
        """Settle a busy worker whose pipe or sentinel fired: receive its
        message, or fail its task as a crash (EOF: the worker died)."""
        status, msg = captured_call(worker.conn.recv)
        if status == "raise":  # EOF without a message: the worker died
            return self._fail_task(worker, "crash", requeued, faults, quarantine)
        if msg[0] == "ok":
            task = worker.task
            assert task is not None, "result for an unassigned worker"
            worker.task = None
            worker.deadline = None
            results[task.index] = msg[1]
            if on_result is not None:
                on_result(task.index, msg[1])
            return 1
        # a task-code or initializer exception is deterministic: no
        # retry, re-raise the original (``_run`` then kills the workers)
        raise msg[1]

    def _fail_task(
        self,
        worker: _Worker,
        kind: str,
        requeued: list[_Task],
        faults: list[TaskFault],
        quarantine: bool,
    ) -> int:
        """Handle one infrastructure fault; returns tasks settled (only
        nonzero when the task is quarantined)."""
        task = worker.task
        assert task is not None
        worker.task = None
        self._remove(worker)  # joins the process, so its exit code is set
        exitcode: int | None = None
        if kind == "crash":
            exitcode = worker.proc.exitcode
            cause = f"worker died with exitcode {exitcode}"
        else:
            cause = f"task exceeded {self.retry.task_timeout}s deadline"
        task.attempts += 1
        message = (
            f"task {task.index} {kind} on attempt "
            f"{task.attempts}/{self.retry.max_attempts}: {cause}"
        )
        if task.attempts >= self.retry.max_attempts:
            fault = TaskFault(
                index=task.index,
                kind=kind,
                message=message,
                attempts=task.attempts,
                exitcode=exitcode,
            )
            if not quarantine:
                raise fault.as_error()
            faults.append(fault)
            return 1  # settled (as a poison-task report)
        task.not_before = time.monotonic() + self.retry.backoff(
            task.attempts, key=f"task{task.index}"
        )
        heapq.heappush(requeued, task)
        return 0

