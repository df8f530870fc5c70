"""WorkerPool.submit: the event-loop entry point.

One task per call, awaited from a running loop: results, FIFO queueing
while every worker is busy, and ``map``'s fault rules (task exceptions
re-raise with their type; crashes and deadlines are retried, then
raise).  Task functions are module-level (RL005).
"""

import asyncio
import os
import signal
import socket
import threading
import time

import pytest

from repro.devtools import chaos
from repro.errors import TaskTimeout, WorkerCrash
from repro.util.pool import WorkerPool
from repro.util.retry import RetryPolicy

@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()
    yield
    chaos.reset()


def _double(x):
    return x * 2


def _pid(_):
    return os.getpid()


def _started_after_nap(seconds):
    started = time.monotonic()
    time.sleep(seconds)
    return started


def _raise_value_error(x):
    raise ValueError(f"bad item {x}")


class TwoArgError(Exception):
    """Pickles, but does not unpickle: the unpickler calls
    ``TwoArgError(message)``, which lacks ``b``."""

    def __init__(self, a, b):
        super().__init__(f"{a}: {b}")


def _raise_two_arg_error(x):
    raise TwoArgError("task", x)


def _suicide(_):
    os.kill(os.getpid(), signal.SIGKILL)


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _signal_state(_):
    """This worker's SIGTERM/SIGINT handlers and wakeup fd."""
    wakeup = signal.set_wakeup_fd(-1)
    return (
        signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
        signal.getsignal(signal.SIGINT) == signal.SIG_IGN,
        wakeup,
        os.getpid(),
    )


def run(coro):
    return asyncio.run(coro)


class TestSubmit:
    def test_results_come_back_per_call(self):
        async def go(pool):
            return await asyncio.gather(*(pool.submit(_double, i) for i in range(7)))

        with WorkerPool(2) as pool:
            assert run(go(pool)) == [2 * i for i in range(7)]

    def test_queues_fifo_while_every_worker_is_busy(self):
        """Two workers run the first two at once; the rest wait their turn."""

        async def go(pool):
            return await asyncio.gather(
                *(pool.submit(_started_after_nap, 0.3) for _ in range(4))
            )

        with WorkerPool(2) as pool:
            pool.start()
            starts = run(go(pool))
        assert max(starts[:2]) < min(starts[2:])
        assert abs(starts[0] - starts[1]) < 0.25  # in parallel, not in turn

    def test_jobs_one_runs_in_a_worker(self):
        with WorkerPool(1) as pool:
            assert run(pool.submit(_pid, None)) != os.getpid()

    def test_start_forks_every_worker_up_front(self):
        with WorkerPool(2) as pool:
            pool.start()
            assert sorted(pool._workers) == [0, 1]
            assert all(w.proc.is_alive() for w in pool._workers.values())

    def test_task_exception_keeps_its_type_and_the_worker(self):
        with WorkerPool(2) as pool:
            pool.start()
            before = {w.proc.pid for w in pool._workers.values()}
            with pytest.raises(ValueError, match="bad item 3"):
                run(pool.submit(_raise_value_error, 3))
            assert run(pool.submit(_double, 4)) == 8
            assert {w.proc.pid for w in pool._workers.values()} == before

    def test_exception_that_will_not_unpickle_keeps_the_worker(self):
        """Not a crash: one failure naming the exception, no retry, and
        the worker that raised it stays."""
        with WorkerPool(2) as pool:
            pool.start()
            before = {w.proc.pid for w in pool._workers.values()}
            with pytest.raises(RuntimeError, match="^TwoArgError: task: 3$"):
                run(pool.submit(_raise_two_arg_error, 3))
            assert {w.proc.pid for w in pool._workers.values()} == before
            assert run(pool.submit(_double, 4)) == 8

    def test_unpicklable_task_raises_instead_of_refeeding(self):
        with WorkerPool(2) as pool:
            with pytest.raises(TypeError, match="pickle"):
                run(pool.submit(_double, threading.Lock()))
            assert run(pool.submit(_double, 5)) == 10

    def test_closed_pool_rejects_submit(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            run(pool.submit(_double, 1))


class TestSubmitFaults:
    def test_killed_worker_is_replaced_and_the_task_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:task=0")
        chaos.reset()
        with WorkerPool(2) as pool:
            pool.start()
            first = {w.proc.pid for w in pool._workers.values()}
            pid = run(pool.submit(_pid, None))
            assert pid not in first  # answered by a fresh worker
            assert run(pool.submit(_double, 2)) == 4

    def test_crash_exhausts_its_attempts(self):
        policy = RetryPolicy(max_attempts=2)
        with WorkerPool(2, retry=policy) as pool:
            with pytest.raises(WorkerCrash) as info:
                run(pool.submit(_suicide, None))
            assert info.value.attempts == 2
            assert info.value.exitcode == -signal.SIGKILL
            assert run(pool.submit(_double, 1)) == 2

    def test_deadline_kills_and_raises(self):
        policy = RetryPolicy(max_attempts=1, task_timeout=0.3)
        with WorkerPool(2, retry=policy) as pool:
            t0 = time.monotonic()
            with pytest.raises(TaskTimeout):
                run(pool.submit(_nap, 30.0))
            assert time.monotonic() - t0 < 10.0

    def test_chaos_delays_overlap_on_two_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "delay:task=0:ms=300;delay:task=1:ms=300")
        chaos.reset()

        async def go(pool):
            t0 = time.monotonic()
            await asyncio.gather(pool.submit(_double, 1), pool.submit(_double, 2))
            return time.monotonic() - t0

        with WorkerPool(2) as pool:
            pool.start()
            assert run(go(pool)) < 0.45


class TestWorkerSignals:
    def test_worker_forked_under_a_loop_handler_starts_fresh(self):
        """Workers forked after the loop handles SIGTERM keep neither its
        handler nor its wakeup fd: SIGTERM kills the worker it is sent
        to, and the loop's handler never runs."""

        async def go():
            loop = asyncio.get_running_loop()
            fired = asyncio.Event()
            loop.add_signal_handler(signal.SIGTERM, fired.set)
            try:
                with WorkerPool(2) as pool:
                    pool.start()
                    other = pool._workers[1].proc
                    os.kill(other.pid, signal.SIGTERM)  # maybe before its reset
                    state = await pool.submit(_signal_state, None)  # slot 0
                    other.join(5.0)
                    await asyncio.sleep(0.2)  # a wakeup byte would land now
                    assert other.exitcode == -signal.SIGTERM
                    assert not fired.is_set()
                    results = await asyncio.gather(
                        pool.submit(_double, 3), pool.submit(_double, 4)
                    )
                    assert results == [6, 8]  # the dead slot is refilled
                return state
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        term_default, int_ignored, wakeup, _pid = run(go())
        assert term_default and int_ignored
        assert wakeup == -1

    def test_worker_keeps_no_inherited_socket(self):
        """A socket the parent closes reaches its peer at once, though
        workers were forked while it was open (a server's connections)."""
        ours, peer = socket.socketpair()
        try:
            with WorkerPool(2) as pool:
                pool.start()
                ours.close()
                peer.settimeout(5.0)
                assert peer.recv(1) == b""  # EOF: no worker holds a copy
                assert run(pool.submit(_double, 1)) == 2
        finally:
            peer.close()
