"""Crash-safe multiprocessing pool: chunked fan-out that survives faults.

Every parallel surface in the repo (``ExperimentRunner``,
``CampaignRunner``) routes through :class:`WorkerPool` / :func:`fan_out`
so the pool policy is written down once:

* **In-process when parallelism cannot pay.**  ``jobs == 1`` or at most
  one task never spins up a pool; the optional ``initializer`` still runs
  (in-process) so serial and parallel executions warm the same caches.
* **Explicit chunking.**  :func:`default_chunksize`
  (``ceil(n_tasks / (jobs * CHUNKS_PER_WORKER))``) amortizes IPC
  round-trips while keeping ~4 chunks per worker for load balancing.
  Results are reassembled in task order regardless of chunking, worker
  scheduling, crashes, or retries — the determinism contract pinned by
  ``tests/util/test_pool.py``.
* **Crash safety.**  Workers are individual ``multiprocessing.Process``
  children, each with its own duplex pipe; the parent waits on result
  pipes *and* process sentinels simultaneously, so a SIGKILL'd worker is
  detected immediately (the ``BrokenProcessPool`` analogue) instead of
  hanging the run.  The failed chunk — and only that chunk — is re-run
  under the :class:`~repro.util.retry.RetryPolicy`: a multi-task chunk
  is first split into single-task chunks so one poison task cannot drag
  its innocent chunk-mates through the retry budget.  A task that keeps
  killing its worker (or blowing its ``task_timeout`` deadline) is
  **quarantined** after ``max_attempts``: :meth:`WorkerPool.map_quarantine`
  reports it as a :class:`TaskFault` value while every other task
  completes; plain :meth:`WorkerPool.map` raises the corresponding
  :class:`~repro.errors.WorkerCrash` / :class:`~repro.errors.TaskTimeout`.
  Exceptions raised by the task's *own code* are never retried — they
  re-raise in the parent with their original type, exactly as before.
* **Graceful vs. hard shutdown.**  ``close()`` asks each worker to stop
  and joins it (clean ``exitcode == 0``, atexit/flush hooks run);
  ``terminate()`` is the error-path hard kill.  A ``with`` block closes
  gracefully on clean exit and terminates when an exception is flying.
* **Bounded worker lifetime.**  ``maxtasksperchild`` retires a worker
  after N chunks (it exits cleanly and a fresh process takes its slot),
  so long campaigns cannot accumulate per-process state.
* **Start method.**  The platform default (``fork`` on Linux, ``spawn``
  elsewhere).  Everything submitted — worker functions, initializers,
  their arguments — must be a *top-level picklable* object (RL005), so
  the code is spawn-safe by construction.

Fault injection for tests/CI lives in :mod:`repro.devtools.chaos`
(``REPRO_CHAOS``): the worker loop consults the chaos policy before
each chunk (deterministic kill/delay), which is how the retry, timeout,
and quarantine paths are proven without real flakiness.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as _connection_wait
from typing import Any, TypeVar, cast

from repro.devtools import chaos
from repro.errors import TaskTimeout, WorkerCrash, captured_call, format_cause
from repro.util.retry import RetryPolicy, pause

__all__ = [
    "CHUNKS_PER_WORKER",
    "TaskFault",
    "WorkerPool",
    "default_chunksize",
    "fan_out",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

# Target number of chunks handed to each worker: >1 so a slow chunk can
# be balanced by idle workers picking up remaining chunks, small enough
# that per-chunk pickling overhead stays negligible.
CHUNKS_PER_WORKER = 4

# Seconds granted to a worker to exit after a graceful stop request
# before the hard-kill escalation (it is idle at that point — the grace
# only needs to cover interpreter shutdown).
_GRACEFUL_JOIN_SECONDS = 5.0

# Poll ceiling while tasks are in flight and a deadline or backoff gap
# is pending; keeps fault detection latency bounded without busy-waiting.
_MAX_POLL_SECONDS = 0.25


def default_chunksize(n_tasks: int, jobs: int) -> int:
    """Chunk size giving each worker ~``CHUNKS_PER_WORKER`` submissions.

    Always at least 1; with few tasks this degrades to one task per
    chunk, which matches ``Pool.map``'s own behavior on short inputs.
    """
    if n_tasks <= 0:
        return 1
    jobs = max(1, jobs)
    return max(1, -(-n_tasks // (jobs * CHUNKS_PER_WORKER)))


@dataclass(frozen=True)
class TaskFault:
    """One quarantined task: the poison-task report, not an exception."""

    index: int
    kind: str  # "crash" | "timeout"
    message: str
    attempts: int

    def as_error(self) -> WorkerCrash | TaskTimeout:
        """The exception this fault raises outside quarantine mode."""
        if self.kind == "timeout":
            return TaskTimeout(self.message, attempts=self.attempts)
        return WorkerCrash(self.message, attempts=self.attempts)


# -- worker side -------------------------------------------------------------


def _run_items(fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
    return [fn(item) for item in items]


def _send_safe(conn: Connection, msg: tuple[Any, ...]) -> None:
    """Send ``msg``; degrade unpicklable payloads to picklable summaries.

    An unpicklable result/exception must not kill the worker (the parent
    would misread that as a crash and retry a deterministic failure).
    """
    status, payload = captured_call(conn.send, msg)
    if status == "ok":
        return
    if msg[0] == "error":
        conn.send(("error", msg[1], RuntimeError(format_cause(msg[2]))))
    elif msg[0] == "init_error":
        conn.send(("init_error", RuntimeError(format_cause(msg[1]))))
    else:  # "ok" whose result would not pickle
        conn.send(
            ("error", msg[1], RuntimeError(f"result not picklable: {payload!r}"))
        )


def _worker_main(
    conn: Connection,
    initializer: Callable[..., object] | None,
    initargs: tuple[Any, ...],
    maxtasksperchild: int | None,
) -> None:
    """Worker child loop: init once, then serve chunks until stopped.

    Protocol (parent → worker): ``("chunk", chunk_id, attempt, fn,
    items)`` or ``("stop",)``.  Worker → parent: ``("ok", chunk_id,
    results, retiring)``, ``("error", chunk_id, exc)``, or
    ``("init_error", exc)``.  A worker only ever exits voluntarily
    *between* chunks (retirement / stop), so a sentinel firing while a
    chunk is in flight always means a crash.
    """
    if initializer is not None:
        status, payload = captured_call(initializer, *initargs)
        if status == "raise":
            _send_safe(conn, ("init_error", payload))
            conn.close()
            return
    done = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing useful left to do
        if msg[0] == "stop":
            break
        _, chunk_id, attempt, fn, items = msg
        chaos.on_chunk(chunk_id, attempt)  # may delay or SIGKILL (tests)
        status, payload = captured_call(_run_items, fn, items)
        done += 1
        retiring = maxtasksperchild is not None and done >= maxtasksperchild
        if status == "raise":
            _send_safe(conn, ("error", chunk_id, payload))
        else:
            _send_safe(conn, ("ok", chunk_id, payload, retiring))
        if retiring:
            break
    conn.close()


# -- parent side -------------------------------------------------------------


@dataclass
class _Chunk:
    chunk_id: int
    indices: list[int]  # positions in the original task list
    items: list[Any]
    attempts: int = 0
    not_before: float = 0.0  # monotonic timestamp gating re-dispatch


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("proc", "conn", "slot", "chunk", "deadline")

    def __init__(
        self, proc: multiprocessing.Process, conn: Connection, slot: int
    ) -> None:
        self.proc = proc
        self.conn = conn
        self.slot = slot
        self.chunk: _Chunk | None = None
        self.deadline: float | None = None


class WorkerPool:
    """A persistent, context-managed, crash-safe worker pool.

    Wraps per-worker processes with the repo's policy defaults (explicit
    chunking, optional per-worker initializer, bounded worker lifetime,
    retry/timeout/quarantine via :class:`~repro.util.retry.RetryPolicy`)
    and keeps the workers alive across calls:

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
        maxtasksperchild: int | None = None,
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
        self._maxtasksperchild = maxtasksperchild
        self._workers: dict[int, _Worker] = {}
        self._next_chunk_id = 0
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
            args=(
                child_conn,
                self._initializer,
                self._initargs,
                self._maxtasksperchild,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn, slot)
        self._workers[slot] = worker
        return worker

    def _remove(self, worker: _Worker, *, kill: bool) -> None:
        self._workers.pop(worker.slot, None)
        if kill and worker.proc.is_alive():
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
        chunksize: int | None = None,
        *,
        on_result: Callable[[list[int], list[_R]], None] | None = None,
    ) -> list[_R]:
        """Map ``fn`` over ``tasks``; results come back in task order.

        Infrastructure faults (worker crash, deadline) are retried under
        the pool's :class:`RetryPolicy`; a task that exhausts its budget
        raises :class:`~repro.errors.WorkerCrash` /
        :class:`~repro.errors.TaskTimeout`.  ``on_result`` streams each
        completed chunk ``(task_indices, values)`` to the caller as it
        lands (completion order) — the campaign checkpoint hook.
        """
        results, faults = self._run(fn, tasks, chunksize, on_result=on_result)
        if faults:
            raise faults[0].as_error()
        return cast("list[_R]", results)

    def map_quarantine(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        chunksize: int | None = None,
        *,
        on_result: Callable[[list[int], list[_R]], None] | None = None,
    ) -> tuple[list[_R | None], list[TaskFault]]:
        """Like :meth:`map`, but faulted tasks are quarantined.

        Returns ``(results, faults)``: every task that exhausted its
        retry budget has ``None`` at its position and a
        :class:`TaskFault` entry — the poison-task report — while all
        other tasks complete normally.  Task-code exceptions still
        raise (they are deterministic; see the module docstring).
        """
        return self._run(fn, tasks, chunksize, quarantine=True, on_result=on_result)

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
        chunksize: int | None,
        *,
        quarantine: bool = False,
        on_result: Callable[[list[int], list[_R]], None] | None = None,
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
                    on_result([idx], [value])
            return out, []
        if chunksize is None:
            chunksize = default_chunksize(len(items), self.jobs)
        pending: deque[_Chunk] = deque()
        for lo in range(0, len(items), chunksize):
            hi = min(len(items), lo + chunksize)
            pending.append(
                _Chunk(self._next_chunk_id, list(range(lo, hi)), items[lo:hi])
            )
            self._next_chunk_id += 1
        results: list[_R | None] = [None] * len(items)
        faults: list[TaskFault] = []
        remaining = len(items)
        try:
            while remaining > 0:
                now = time.monotonic()
                self._dispatch(fn, pending, now)
                remaining -= self._collect(
                    pending, results, faults, quarantine, on_result
                )
        except BaseException:  # repro-lint: disable=RL010 (re-raised immediately: the catch only hard-kills workers orphaned by the failing map, it swallows nothing)
            # error path: never leave workers running a doomed map
            self._teardown(graceful=False)
            raise
        return results, faults

    def _dispatch(
        self, fn: Callable[[Any], Any], pending: deque[_Chunk], now: float
    ) -> None:
        """Hand ready chunks to idle workers, spawning up to ``jobs``."""
        ready = [c for c in pending if c.not_before <= now]
        if not ready:
            return
        idle = [w for w in self._workers.values() if w.chunk is None]
        while len(ready) > len(idle) and len(self._workers) < self.jobs:
            slot = next(s for s in range(self.jobs) if s not in self._workers)
            idle.append(self._spawn(slot))
        for worker in idle:
            if not ready:
                break
            chunk = ready.pop(0)
            pending.remove(chunk)
            worker.chunk = chunk
            deadline = self.retry.chunk_deadline(len(chunk.items))
            worker.deadline = None if deadline is None else now + deadline
            status, payload = captured_call(
                worker.conn.send,
                ("chunk", chunk.chunk_id, chunk.attempts, fn, chunk.items),
            )
            if status == "raise":
                # dead pipe: the worker crashed before we could feed it;
                # requeue the chunk without charging an attempt
                worker.chunk = None
                pending.appendleft(chunk)
                self._remove(worker, kill=True)

    def _collect(
        self,
        pending: deque[_Chunk],
        results: list[Any],
        faults: list[TaskFault],
        quarantine: bool,
        on_result: Callable[[list[int], list[Any]], None] | None,
    ) -> int:
        """Wait for one round of events; returns tasks newly settled."""
        busy = [w for w in self._workers.values() if w.chunk is not None]
        timeout = self._poll_timeout(busy, pending)
        if not busy:
            pause(timeout if timeout is not None else 0.0)  # backoff gap
            return 0
        objects: list[Any] = [w.conn for w in busy]
        objects += [w.proc.sentinel for w in busy]
        ready = _connection_wait(objects, timeout)
        ready_set = set(ready)
        settled = 0
        for worker in busy:
            if worker.conn in ready_set:
                settled += self._service_message(
                    worker, pending, results, faults, quarantine, on_result
                )
            elif worker.proc.sentinel in ready_set:
                settled += self._service_death(
                    worker, pending, results, faults, quarantine, on_result
                )
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if (
                worker.chunk is not None
                and worker.deadline is not None
                and now > worker.deadline
            ):
                settled += self._fail_chunk(
                    worker,
                    "timeout",
                    f"task exceeded {self.retry.task_timeout}s deadline",
                    pending,
                    faults,
                    quarantine,
                )
        return settled

    def _poll_timeout(
        self, busy: list[_Worker], pending: deque[_Chunk]
    ) -> float | None:
        now = time.monotonic()
        bounds = [w.deadline - now for w in busy if w.deadline is not None]
        bounds += [c.not_before - now for c in pending if c.not_before > now]
        if pending and not busy and not bounds:
            return _MAX_POLL_SECONDS
        if not bounds:
            return None  # block until a message or a death
        return min(_MAX_POLL_SECONDS, max(0.0, min(bounds)))

    def _service_message(
        self,
        worker: _Worker,
        pending: deque[_Chunk],
        results: list[Any],
        faults: list[TaskFault],
        quarantine: bool,
        on_result: Callable[[list[int], list[Any]], None] | None,
    ) -> int:
        status, msg = captured_call(worker.conn.recv)
        if status == "raise":  # EOF without a message: the worker died
            return self._fail_dead_worker(
                worker, pending, faults, quarantine
            )
        return self._handle_message(
            worker, msg, pending, results, faults, quarantine, on_result
        )

    def _handle_message(
        self,
        worker: _Worker,
        msg: tuple[Any, ...],
        pending: deque[_Chunk],
        results: list[Any],
        faults: list[TaskFault],
        quarantine: bool,
        on_result: Callable[[list[int], list[Any]], None] | None,
    ) -> int:
        if msg[0] == "init_error":
            # initializer failures are deterministic — no retry; requeue
            # the unexecuted chunk for bookkeeping, then raise
            if worker.chunk is not None:
                pending.appendleft(worker.chunk)
                worker.chunk = None
            self._remove(worker, kill=True)
            raise msg[1]
        if msg[0] == "error":
            raise msg[2]  # task-code exception: re-raise the original
        _, _chunk_id, values, retiring = msg
        chunk = worker.chunk
        assert chunk is not None, "result for an unassigned worker"
        worker.chunk = None
        worker.deadline = None
        for offset, idx in enumerate(chunk.indices):
            results[idx] = values[offset]
        if on_result is not None:
            on_result(list(chunk.indices), list(values))
        if retiring:
            self._remove(worker, kill=False)
        return len(chunk.indices)

    def _service_death(
        self,
        worker: _Worker,
        pending: deque[_Chunk],
        results: list[Any],
        faults: list[TaskFault],
        quarantine: bool,
        on_result: Callable[[list[int], list[Any]], None] | None,
    ) -> int:
        # drain any final message that raced the sentinel (a retiring
        # worker's last result can still sit in the pipe when its
        # sentinel fires); EOF here means the pipe was empty after all
        if worker.chunk is not None and worker.conn.poll():
            status, msg = captured_call(worker.conn.recv)
            if status == "ok":  # pragma: no cover - narrow race
                return self._handle_message(
                    worker, msg, pending, results, faults, quarantine, on_result
                )
        return self._fail_dead_worker(worker, pending, faults, quarantine)

    def _fail_dead_worker(
        self,
        worker: _Worker,
        pending: deque[_Chunk],
        faults: list[TaskFault],
        quarantine: bool,
    ) -> int:
        exitcode = worker.proc.exitcode
        if worker.chunk is None:
            self._remove(worker, kill=False)  # voluntary exit between chunks
            return 0
        return self._fail_chunk(
            worker,
            "crash",
            f"worker died with exitcode {exitcode}",
            pending,
            faults,
            quarantine,
            exitcode=exitcode,
        )

    def _fail_chunk(
        self,
        worker: _Worker,
        kind: str,
        cause: str,
        pending: deque[_Chunk],
        faults: list[TaskFault],
        quarantine: bool,
        exitcode: int | None = None,
    ) -> int:
        """Handle one chunk-level infrastructure fault; returns tasks
        settled (only nonzero when a task is quarantined)."""
        chunk = worker.chunk
        assert chunk is not None
        worker.chunk = None
        self._remove(worker, kill=True)
        chunk.attempts += 1
        now = time.monotonic()
        if len(chunk.items) > 1:
            # isolate the poison task: retry as single-task chunks so
            # innocent chunk-mates stop sharing its fate
            singles = []
            for idx, item in zip(chunk.indices, chunk.items):
                single = _Chunk(
                    self._next_chunk_id, [idx], [item], attempts=chunk.attempts
                )
                self._next_chunk_id += 1
                single.not_before = now + self.retry.backoff(
                    chunk.attempts, key=f"chunk{single.chunk_id}"
                )
                singles.append(single)
            pending.extendleft(reversed(singles))
            return 0
        message = (
            f"task {chunk.indices[0]} {kind} on attempt "
            f"{chunk.attempts}/{self.retry.max_attempts}: {cause}"
        )
        if chunk.attempts >= self.retry.max_attempts:
            fault = TaskFault(
                index=chunk.indices[0],
                kind=kind,
                message=message,
                attempts=chunk.attempts,
            )
            if not quarantine:
                raise fault.as_error()
            faults.append(fault)
            return 1  # settled (as a poison-task report)
        chunk.not_before = now + self.retry.backoff(
            chunk.attempts, key=f"chunk{chunk.chunk_id}"
        )
        pending.appendleft(chunk)
        return 0


def fan_out(
    fn: Callable[[_T], _R],
    tasks: list[_T],
    jobs: int,
    *,
    retry: RetryPolicy | None = None,
) -> list[_R]:
    """Map ``fn`` over ``tasks`` on a one-shot :class:`WorkerPool`.

    At most ``jobs`` workers, never more than there are tasks; the pool's
    own in-process path covers ``jobs == 1`` and single tasks.  ``fn``
    and the tasks must be picklable top-level objects (spawn-safe);
    results come back in task order regardless of chunking, worker
    scheduling, or fault recovery.
    """
    with WorkerPool(max(1, min(jobs, len(tasks))), retry=retry) as pool:
        return pool.map(fn, tasks)
