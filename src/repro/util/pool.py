"""Crash-safe multiprocessing pool: one task per dispatch, survives faults.

Every parallel surface in the repo (``ExperimentRunner`` and
``CampaignRunner`` through :meth:`WorkerPool.map`, ``repro serve``'s
compute through :meth:`WorkerPool.submit`) routes through
:class:`WorkerPool` so the pool policy is written down once:

* **Every task in a worker process.**  ``jobs == 1`` forks one worker,
  so a serial run keeps the deadlines, retries, crash isolation and
  chaos hooks of a parallel one: ``--task-timeout``, ``--retries`` and
  ``REPRO_CHAOS`` mean the same at every job count.
* **One dispatch engine, on an event loop.**  Mapped and submitted
  tasks wait in one FIFO backlog for an idle worker; the loop watches
  each busy worker's result pipe and process sentinel
  (``loop.add_reader``: no thread, no polling), and deadlines are loop
  timers.  :meth:`WorkerPool.submit` runs from the caller's loop;
  :meth:`WorkerPool.map` forks its workers, then runs on a loop of its
  own (``asyncio.run``), so call it outside a running loop — its
  workers fork before ``asyncio`` (and its ``ssl``) loads.
* **One task per dispatch.**  Each idle worker is handed exactly one
  task, so a slow task never holds others hostage and each task is its
  own unit of retry and deadline.  Fresh tasks go out in task order, and
  a dispatch never rescans the queue, so its cost does not grow with the
  number of tasks.  Results are reassembled in task order regardless of
  worker scheduling, crashes, or retries — the determinism contract
  pinned by ``tests/util/test_pool.py``.
* **Crash safety.**  Workers are individual ``multiprocessing.Process``
  children, each with its own duplex pipe; the loop watches result
  pipes *and* process sentinels, so a SIGKILL'd worker is detected
  immediately (the ``BrokenProcessPool`` analogue) instead of hanging
  the run.  Only a pipe that ends without a whole message means a
  crash: a message that will not unpickle is the task's failure.  The
  failed task — and only that task — goes back to the front of the
  backlog at once, for a fresh worker, under the
  :class:`~repro.util.retry.RetryPolicy`.  A task that keeps killing its
  worker (or blowing its ``task_timeout`` deadline, counted from its
  dispatch) fails after ``max_attempts`` with a
  :class:`~repro.errors.WorkerCrash` / :class:`~repro.errors.TaskTimeout`.
  Exceptions raised by the task's *own code* are never retried — they
  come back to the parent with their original type, and the worker's
  formatted traceback chained as their ``__cause__`` (the idiom of
  ``concurrent.futures``), so a report still shows the frame that raised.
  One that an unpickler could not rebuild comes back as a
  ``RuntimeError`` naming its type and message.  Either way one failed
  task is one exception: :meth:`WorkerPool.map` raises it, and
  :meth:`WorkerPool.map_quarantine` returns it under the task's index
  while every other task completes.
* **Graceful vs. hard shutdown.**  ``close()`` asks each worker to stop
  and joins it (clean ``exitcode == 0``, atexit/flush hooks run);
  ``terminate()`` is the error-path hard kill, also applied by a failing
  ``map`` (Ctrl-C included; one that arrives while ``map`` forks waits,
  blocked, until its loop runs, and then takes the same path).  A
  ``with`` block closes gracefully on clean exit and terminates when an
  exception is flying.
* **Start method.**  The platform default (``fork`` on Linux, ``spawn``
  elsewhere).  Everything submitted — worker functions, initializers,
  their arguments — must be a *top-level picklable* object (RL005), so
  the code is spawn-safe by construction.  A worker starts with default
  SIGTERM handling and no wakeup fd, so one forked from a process whose
  event loop handles signals does not hand the signals sent to it to
  that loop.  It ignores SIGINT: a terminal's Ctrl-C reaches the whole
  process group, and the parent, which owns its workers' lifetime,
  stops them.  It keeps no inherited socket but its own pipe, so one
  forked from a server does not hold the server's connections open.

Fault injection for tests/CI lives in :mod:`repro.devtools.chaos`
(``REPRO_CHAOS``): the worker loop consults the chaos policy before
each task (deterministic kill/delay), which is how the retry, timeout,
and quarantine paths are proven without real flakiness.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import stat
import traceback
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, TypeVar, cast

if TYPE_CHECKING:  # imported at run time only once the workers have forked
    import asyncio

from repro.devtools import chaos
from repro.errors import TaskTimeout, WorkerCrash, captured_call, format_cause
from repro.util.retry import RetryPolicy

__all__ = ["WorkerPool"]

_T = TypeVar("_T")
_R = TypeVar("_R")

# Seconds granted to a worker to exit after a graceful stop request
# before the hard-kill escalation (it is idle at that point — the grace
# only needs to cover interpreter shutdown).
_GRACEFUL_JOIN_SECONDS = 5.0

# The signals a worker resets; blocked from its fork until it has.
_WORKER_SIGNALS = {signal.SIGINT, signal.SIGTERM}


# -- worker side -------------------------------------------------------------


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the ``__cause__`` of the
    exception its task raised (the idiom of ``concurrent.futures``)."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _failure(kind: str, exc: BaseException) -> tuple[str, BaseException, str]:
    """The message that reports ``exc`` to the parent, with its traceback.

    An exception that an unpickler could not rebuild (its class's
    ``__init__`` does not take its ``args``) would fail the parent's
    read of the whole message, so it goes as a ``RuntimeError`` naming
    its type and message.
    """
    remote = "".join(traceback.format_exception(exc))
    rebuilt, _ = captured_call(lambda: pickle.loads(pickle.dumps(exc)))
    if rebuilt == "raise":
        exc = RuntimeError(format_cause(exc))
    return kind, exc, remote


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket descriptor but ``keep`` (and stdio)
    at ``/dev/null``.

    A fork copies every descriptor of the parent: a worker forked by a
    server would hold its listening socket and its clients' connections,
    so a connection the server closes would not reach its client until
    the worker exits.  ``dup2`` rather than ``close`` keeps each number
    taken, so an inherited object that closes its descriptor later
    cannot close one the worker opened.  Without ``/proc`` (where fork
    is not the default start method) there is nothing to do.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        if fd <= 2 or fd in (keep, null):
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:
            continue  # the listing's own descriptor, closed by now
    os.close(null)


def _worker_main(
    conn: Connection,
    initializer: Callable[..., object] | None,
    initargs: tuple[Any, ...],
) -> None:
    """Worker child loop: init once, then serve tasks until stopped.

    Protocol (parent → worker): ``("task", index, attempt, fn, item)`` or
    ``("stop",)``.  Worker → parent: ``("ok", value)``, ``("error", exc,
    traceback)``, or ``("init_error", exc, traceback)``.  A worker exits
    only on a stop request, a closed pipe, or after reporting an
    initializer failure, so a sentinel that fires while a task is in
    flight, with no message in the pipe, always means a crash.
    """
    # A fork inherits the parent's signal handlers and wakeup fd; under
    # an event loop that handles SIGTERM, a SIGTERM sent to this worker
    # would otherwise be written to the parent's loop (and start its
    # shutdown) while the worker ignores it.  A terminal's Ctrl-C reaches
    # the whole process group: the parent stops its workers itself.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)
    _drop_inherited_sockets(conn.fileno())
    if initializer is not None:
        status, payload = captured_call(initializer, *initargs)
        if status == "raise":
            conn.send(_failure("init_error", payload))
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
        if status == "ok":
            status, payload = captured_call(conn.send, ("ok", payload))
            if status == "ok":
                continue
            # reported, not left to kill the worker: a crash is retried
            payload = RuntimeError(f"result not picklable: {payload!r}")
        conn.send(_failure("error", payload))
    conn.close()


# -- parent side -------------------------------------------------------------


@dataclass(slots=True)
class _Task:
    """One task: what to run, and the future its caller awaits."""

    index: int  # position in the mapped list, or the submission count
    item: Any
    fn: Callable[[Any], Any]
    future: asyncio.Future[Any]
    attempts: int = 0


@dataclass(slots=True, eq=False)
class _Worker:
    """Parent-side record of one worker process."""

    proc: multiprocessing.Process
    conn: Connection
    slot: int
    task: _Task | None = None
    timer: asyncio.TimerHandle | None = None  # the task's deadline
    # the loop reading this worker's pipe and sentinel, while it is busy
    loop: asyncio.AbstractEventLoop | None = None


def _stop(worker: _Worker, grace: float) -> None:
    """Join ``worker`` for ``grace`` seconds, then terminate, then kill:
    it is reaped on return, so its exit code is set."""
    worker.proc.join(grace)
    if worker.proc.is_alive():
        worker.proc.terminate()
        worker.proc.join(1.0)
    if worker.proc.is_alive():  # pragma: no cover - last resort
        worker.proc.kill()
        worker.proc.join(1.0)
    worker.conn.close()


class WorkerPool:
    """A persistent, context-managed, crash-safe worker pool.

    Wraps per-worker processes with the repo's policy defaults (one task
    per dispatch, optional per-worker initializer, retry/timeout/quarantine
    via :class:`~repro.util.retry.RetryPolicy`) and keeps the workers
    alive across calls:

    >>> with WorkerPool(jobs=4, initializer=warm) as pool:
    ...     a = pool.map(fn, tasks_1)
    ...     b = pool.map(fn, tasks_2)   # same warm workers

    Every task runs in a worker process, ``jobs == 1`` and one-task maps
    included.  ``map`` and ``submit`` run on one dispatch engine:
    ``submit`` from a running event loop, ``map`` on a loop of its own,
    so call ``map`` outside one.
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
        # Parse REPRO_CHAOS eagerly: a malformed spec must fail as one
        # error at pool construction.  The worker-side hook, the only
        # other parse site, would die on it before its first task, which
        # reads as a crash and is retried.
        chaos.active_policy()
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self._initializer = initializer
        self._initargs = initargs
        self._workers: dict[int, _Worker] = {}
        self._closed = False
        self._backlog: deque[_Task] = deque()  # tasks awaiting a worker
        self._submitted = 0

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
        for task in self._backlog:
            task.future.cancel()
        self._backlog.clear()
        for worker in workers:
            self._unwatch(worker)
            if worker.task is not None:
                worker.task.future.cancel()
        if graceful:
            for worker in workers:
                if worker.proc.is_alive():
                    status, _ = captured_call(worker.conn.send, ("stop",))
                    del status  # a dead pipe just means it is already gone
        for worker in workers:
            _stop(worker, _GRACEFUL_JOIN_SECONDS if graceful else 0.1)

    # -- worker management -------------------------------------------------

    def start(self) -> None:
        """Fork every worker now instead of at first use: for callers
        that must fork at a known moment, such as before they open
        sockets, install signal handlers or import ``asyncio``."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        for slot in range(self.jobs):
            if slot not in self._workers:
                self._spawn(slot)

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        proc = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self._initializer, self._initargs),
            daemon=True,
        )
        # a signal sent to the new worker before it resets its handlers
        # waits for the reset instead of meeting the inherited handler
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        child_conn.close()
        worker = _Worker(proc, parent_conn, slot)
        self._workers[slot] = worker
        return worker

    def _remove(self, worker: _Worker) -> None:
        """Hard-kill one worker and free its slot."""
        self._unwatch(worker)
        self._workers.pop(worker.slot, None)
        _stop(worker, 0.0)

    # -- entry points ------------------------------------------------------

    def map(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        *,
        on_result: Callable[[int, _R], None] | None = None,
    ) -> list[_R]:
        """Map ``fn`` over ``tasks``; results come back in task order.

        Infrastructure faults (worker crash, deadline) are retried under
        the pool's :class:`RetryPolicy`.  The first task to fail stops
        the map and raises: its own exception, or the
        :class:`~repro.errors.WorkerCrash` /
        :class:`~repro.errors.TaskTimeout` that ended its attempts.
        ``on_result`` streams each completed task ``(task_index, value)``
        to the caller as it lands (completion order) — the hook both
        runners store results through.  Each task's index is its
        ``REPRO_CHAOS`` task number.  The map runs on an event loop of
        its own, so it must not be called from a running one (use
        :meth:`submit` there).
        """
        results, _ = self._run(fn, tasks, on_result=on_result)
        return cast("list[_R]", results)

    def map_quarantine(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        *,
        on_result: Callable[[int, _R], None] | None = None,
    ) -> tuple[list[_R | None], dict[int, BaseException]]:
        """Like :meth:`map`, but a failed task is quarantined instead of
        stopping the map.

        Returns ``(results, failures)``: every failed task has ``None``
        at its position and, under its index in ``failures`` (in index
        order), the exception :meth:`map` would raise for it, while all
        other tasks complete normally.
        """
        return self._run(fn, tasks, quarantine=True, on_result=on_result)

    def _run(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        *,
        quarantine: bool = False,
        on_result: Callable[[int, _R], None] | None = None,
    ) -> tuple[list[_R | None], dict[int, BaseException]]:
        items = list(tasks)
        # A Ctrl-C from the fork until asyncio.run's SIGINT handler is in
        # would land in a half-built loop: it waits, blocked, until
        # _gather runs, then cancels the map like any later one.
        caller_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.start()  # fork before asyncio is loaded: workers never carry it
            import asyncio

            return asyncio.run(
                self._gather(fn, items, quarantine, on_result, caller_mask)
            )
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, caller_mask)

    async def _gather(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        quarantine: bool,
        on_result: Callable[[int, Any], None] | None,
        caller_mask: Iterable[int],
    ) -> tuple[list[Any], dict[int, BaseException]]:
        """``map``'s body on its loop: queue every task, then take each
        as it lands (completion order) until all have.  It restores
        ``caller_mask`` first, on the loop, where a pending SIGINT meets
        ``asyncio.run``'s handler."""
        import asyncio

        loop = asyncio.get_running_loop()
        landed: asyncio.Queue[_Task] = asyncio.Queue()
        tasks = [
            _Task(idx, item, fn, loop.create_future())
            for idx, item in enumerate(items)
        ]
        for task in tasks:
            task.future.add_done_callback(lambda _, t=task: landed.put_nowait(t))
        results: list[Any] = [None] * len(tasks)
        failures: dict[int, BaseException] = {}
        self._backlog.extend(tasks)
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, caller_mask)
            self._feed()
            for _ in tasks:
                task = await landed.get()
                error = task.future.exception()
                if error is None:
                    results[task.index] = task.future.result()
                    if on_result is not None:
                        on_result(task.index, results[task.index])
                elif quarantine:
                    failures[task.index] = error
                else:
                    raise error
        except BaseException:  # repro-lint: disable=RL010 (re-raised at once: the catch only hard-kills the workers of the failing map, Ctrl-C included, it swallows nothing)
            for task in tasks:
                if not task.future.cancel() and not task.future.cancelled():
                    task.future.exception()  # settled: seen, so never logged
            self._teardown(graceful=False)
            raise
        return results, dict(sorted(failures.items()))

    async def submit(self, fn: Callable[[_T], _R], item: _T) -> _R:
        """Run ``fn(item)`` on a worker and await its result from a
        running event loop.

        An idle worker gets the task at once, otherwise it queues FIFO.
        The fault rules are :meth:`map`'s: an exception raised by ``fn``
        re-raises here with its type; a worker that dies (or overruns
        ``task_timeout``) is reaped and replaced, and the task retried
        at once under the pool's :class:`RetryPolicy`, until
        :class:`~repro.errors.WorkerCrash` /
        :class:`~repro.errors.TaskTimeout` is raised.  Submissions are
        numbered from 0 for ``REPRO_CHAOS`` (``kill:task=0`` kills the
        first).
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        import asyncio

        future: asyncio.Future[_R] = asyncio.get_running_loop().create_future()
        self._backlog.append(_Task(self._submitted, item, fn, future))
        self._submitted += 1
        self._feed()
        return await future

    # -- the dispatch engine -----------------------------------------------

    def _feed(self) -> None:
        """Hand queued tasks to idle slots, oldest first, forking a
        worker into an empty slot."""
        for slot in range(self.jobs):
            while self._backlog:
                busy = self._workers.get(slot)
                if busy is not None and busy.task is not None:
                    break
                task = self._backlog.popleft()
                if task.future.done():
                    continue  # its caller was cancelled
                status, handed = captured_call(self._hand, slot, task)
                if status == "raise":  # unpicklable, or the fork failed
                    task.future.set_exception(handed)
                elif handed is None:
                    self._backlog.appendleft(task)  # fed to a dead worker
                else:
                    self._watch(handed)

    def _hand(self, slot: int, task: _Task) -> _Worker | None:
        """Send ``task`` to the worker in ``slot``, forking one if the slot
        is empty.  Returns ``None`` when that worker's pipe is dead: it
        died idle, so it is reaped and the task is charged no attempt.
        A task that will not pickle raises: resending cannot help."""
        worker = self._workers.get(slot)
        if worker is None:
            worker = self._spawn(slot)
        status, error = captured_call(
            worker.conn.send, ("task", task.index, task.attempts, task.fn, task.item)
        )
        if status == "raise":
            if not isinstance(error, OSError):
                raise error  # pickling failed before a byte was written
            self._remove(worker)
            return None
        worker.task = task
        return worker

    def _watch(self, worker: _Worker) -> None:
        """Wake the loop when ``worker`` answers, dies, or overruns."""
        assert worker.task is not None
        loop = worker.task.future.get_loop()
        if worker.loop is None:
            loop.add_reader(worker.conn.fileno(), self._settle, worker)
            loop.add_reader(worker.proc.sentinel, self._settle, worker)
            worker.loop = loop
        if self.retry.task_timeout is not None:
            worker.timer = loop.call_later(
                self.retry.task_timeout, self._expire, worker
            )

    def _unwatch(self, worker: _Worker) -> None:
        if worker.loop is not None:
            worker.loop.remove_reader(worker.conn.fileno())
            worker.loop.remove_reader(worker.proc.sentinel)
            worker.loop = None
        if worker.timer is not None:
            worker.timer.cancel()
            worker.timer = None

    def _settle(self, worker: _Worker) -> None:
        """Loop callback: a task's worker answered or died."""
        task = worker.task
        assert task is not None
        status, msg = captured_call(worker.conn.recv)
        if status == "raise":
            if isinstance(msg, (EOFError, OSError)):  # no message: it died
                self._refeed(worker, "crash")
                return
            # a whole message that would not unpickle: the task's failure
            msg = ("error", msg, None)
        if worker.timer is not None:
            worker.timer.cancel()
            worker.timer = None
        worker.task = None
        if msg[0] == "init_error":
            self._remove(worker)  # it exits after reporting
        if not task.future.done():
            if msg[0] == "ok":
                task.future.set_result(msg[1])
            else:  # the task's own exception, or its initializer's
                error, remote = msg[1], msg[2]
                if remote is not None:
                    error.__cause__ = _RemoteTraceback(remote)
                task.future.set_exception(error)
        self._feed()  # a worker handed its next task keeps its readers
        if worker.task is None:
            self._unwatch(worker)

    def _expire(self, worker: _Worker) -> None:
        """Loop callback: a task overran ``task_timeout``."""
        worker.timer = None
        self._refeed(worker, "timeout")

    def _refeed(self, worker: _Worker, kind: str) -> None:
        """A task's worker faulted: reap it, then retry the task at once,
        ahead of fresh tasks, or fail it once its attempts are spent."""
        task = worker.task
        assert task is not None
        worker.task = None
        self._remove(worker)  # unwatched and joined: its exit code is set
        task.attempts += 1
        if task.attempts < self.retry.max_attempts:
            self._backlog.appendleft(task)
        elif not task.future.done():
            spent = (
                f"task {task.index} {kind} on attempt "
                f"{task.attempts}/{self.retry.max_attempts}"
            )
            error: WorkerCrash | TaskTimeout
            if kind == "crash":
                exitcode = worker.proc.exitcode
                error = WorkerCrash(
                    f"{spent}: worker died with exitcode {exitcode}",
                    exitcode=exitcode,
                    attempts=task.attempts,
                )
            else:
                error = TaskTimeout(
                    f"{spent}: task exceeded {self.retry.task_timeout}s deadline",
                    attempts=task.attempts,
                )
            task.future.set_exception(error)
        self._feed()
