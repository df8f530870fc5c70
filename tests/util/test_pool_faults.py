"""WorkerPool fault paths: crashes, retries, timeouts, quarantine, chaos.

Worker functions are module-level (RL005: submitted callables must be
top-level picklable), and every crash here is deterministic — either a
marker file flips the behavior on retry, or the chaos harness names the
exact task to kill.
"""

import os
import signal
import time

import pytest

from repro.devtools import chaos
from repro.errors import TaskTimeout, WorkerCrash
from repro.util.pool import WorkerPool
from repro.util.retry import RetryPolicy

# No backoff sleeps: fault tests exercise the retry *logic*, not the clock.
FAST = RetryPolicy(base_delay=0.0)


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()
    yield
    chaos.reset()


def _double(x):
    return x * 2


def _crash_once(arg):
    """SIGKILL the worker the first time each task runs; succeed after."""
    marker, value = arg
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _crash_on_seven(value):
    if value == 7:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _sleep_on_two(value):
    if value == 2:
        time.sleep(30.0)  # far past any test deadline; worker gets killed
    return value


def _nap_on_two(value):
    if value == 2:
        time.sleep(0.7)  # past a 0.4 s deadline, inside twice that
    return value


def _log_execution(arg):
    log, value = arg
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    if value == 5:
        raise ValueError(f"task {value} is broken")
    return value


def _log_crash_on_seven(arg):
    log, value = arg
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    if value == 7:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _bad_init():
    raise ValueError("warm failed")


class TestCrashRetry:
    def test_killed_worker_chunk_is_rerun(self, tmp_path):
        tasks = [(str(tmp_path / f"marker{i}"), i) for i in range(4)]
        with WorkerPool(2, retry=FAST) as pool:
            out = pool.map(_crash_once, tasks)
        assert out == [0, 2, 4, 6]
        # every task really did kill a worker once before succeeding
        assert all(os.path.exists(marker) for marker, _ in tasks)

    def test_poison_task_is_quarantined(self):
        retry = RetryPolicy(base_delay=0.0, max_attempts=2)
        with WorkerPool(2, retry=retry) as pool:
            results, faults = pool.map_quarantine(_crash_on_seven, [1, 7, 3, 4])
        assert results == [2, None, 6, 8]
        (fault,) = faults
        assert fault.index == 1
        assert fault.kind == "crash"
        assert fault.attempts == 2
        assert isinstance(fault.as_error(), WorkerCrash)

    def test_map_raises_worker_crash_after_budget(self):
        retry = RetryPolicy(base_delay=0.0, max_attempts=2)
        with WorkerPool(2, retry=retry) as pool:
            with pytest.raises(WorkerCrash, match="attempt 2/2"):
                pool.map(_crash_on_seven, [1, 7, 3, 4])

    def test_zero_retries_runs_every_task_once(self, tmp_path):
        # --retries 0: the crash is final, and no other task is re-run
        log = str(tmp_path / "executions.log")
        retry = RetryPolicy(base_delay=0.0, max_attempts=1)
        with WorkerPool(2, retry=retry) as pool:
            results, faults = pool.map_quarantine(
                _log_crash_on_seven, [(log, i) for i in range(16)]
            )
        assert results == [None if i == 7 else i * 2 for i in range(16)]
        (fault,) = faults
        assert (fault.index, fault.kind, fault.attempts) == (7, "crash", 1)
        with open(log) as fh:
            assert sorted(int(line) for line in fh) == list(range(16))


class TestTimeouts:
    def test_deadline_quarantines_slow_task(self):
        retry = RetryPolicy(base_delay=0.0, max_attempts=1, task_timeout=0.4)
        with WorkerPool(2, retry=retry) as pool:
            results, faults = pool.map_quarantine(_sleep_on_two, [0, 1, 2, 3])
        assert results == [0, 1, None, 3]
        (fault,) = faults
        assert fault.kind == "timeout"
        assert "deadline" in fault.message
        assert isinstance(fault.as_error(), TaskTimeout)

    def test_map_raises_task_timeout(self):
        retry = RetryPolicy(base_delay=0.0, max_attempts=1, task_timeout=0.4)
        with WorkerPool(2, retry=retry) as pool:
            with pytest.raises(TaskTimeout, match="deadline"):
                pool.map(_sleep_on_two, [0, 1, 2, 3])

    def test_deadline_is_per_task(self):
        # task 2 overruns its own 0.4 s even though it and a fast
        # neighbour together would fit in 0.8 s
        retry = RetryPolicy(base_delay=0.0, max_attempts=1, task_timeout=0.4)
        with WorkerPool(2, retry=retry) as pool:
            results, faults = pool.map_quarantine(_nap_on_two, list(range(16)))
        assert results == [None if i == 2 else i for i in range(16)]
        (fault,) = faults
        assert (fault.index, fault.kind) == (2, "timeout")


class TestTaskExceptions:
    def test_task_error_reraises_original_without_retry(self, tmp_path):
        log = str(tmp_path / "executions.log")
        tasks = [(log, 1), (log, 5), (log, 2), (log, 3)]
        with WorkerPool(2, retry=FAST) as pool:
            with pytest.raises(ValueError, match="task 5 is broken"):
                pool.map(_log_execution, tasks)
        executed = open(log).read().splitlines()
        # deterministic task-code failure: exactly one execution, no retry
        assert executed.count("5") == 1


class TestInitializerFailures:
    def test_serial_initializer_failure_is_not_rerun(self):
        calls = []

        def init():
            calls.append(1)
            raise ValueError("warm failed")

        pool = WorkerPool(1, initializer=init)
        with pytest.raises(ValueError, match="warm failed"):
            pool.map(_double, [1, 2])
        with pytest.raises(RuntimeError, match="failed previously"):
            pool.map(_double, [1, 2])
        assert calls == [1]  # never re-run against half-initialized state

    def test_parallel_initializer_failure_raises_original(self):
        with WorkerPool(2, initializer=_bad_init, retry=FAST) as pool:
            with pytest.raises(ValueError, match="warm failed"):
                pool.map(_double, [1, 2, 3, 4])


class TestGracefulShutdown:
    def test_close_exits_workers_cleanly(self):
        with WorkerPool(2, retry=FAST) as pool:
            assert pool.map(_double, list(range(8))) == [i * 2 for i in range(8)]
            procs = [w.proc for w in pool._workers.values()]
        assert procs  # the map really forked workers
        assert all(proc.exitcode == 0 for proc in procs)

    def test_error_path_terminates_workers(self):
        procs = []
        with pytest.raises(RuntimeError, match="boom"):
            with WorkerPool(2, retry=FAST) as pool:
                pool.map(_double, list(range(8)))
                procs = [w.proc for w in pool._workers.values()]
                raise RuntimeError("boom")
        assert procs
        assert all(not proc.is_alive() for proc in procs)


class TestChaosIntegration:
    def test_malformed_spec_fails_at_pool_construction(self, monkeypatch):
        from repro.types import InvalidParameterError

        monkeypatch.setenv("REPRO_CHAOS", "explode:now")
        with pytest.raises(InvalidParameterError, match="unknown event kind"):
            WorkerPool(1)  # even serial pools must reject a bad spec

    def test_chaos_kill_is_survived_by_retry(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:task=0")
        with WorkerPool(2, retry=FAST) as pool:
            out = pool.map(_double, [1, 2, 3, 4])
        assert out == [2, 4, 6, 8]

    def test_chaos_delay_trips_the_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "delay:task=0:ms=5000")
        retry = RetryPolicy(base_delay=0.0, max_attempts=1, task_timeout=0.4)
        with WorkerPool(2, retry=retry) as pool:
            results, faults = pool.map_quarantine(_double, [1, 2, 3])
        assert results == [None, 4, 6]
        (fault,) = faults
        assert fault.index == 0
        assert fault.kind == "timeout"


class TestOnResultStreaming:
    def test_on_result_sees_every_completed_task(self):
        seen = {}

        def sink(idx, value):
            seen[idx] = value

        with WorkerPool(2, retry=FAST) as pool:
            out = pool.map(_double, list(range(10)), on_result=sink)
        assert out == [i * 2 for i in range(10)]
        assert seen == {i: i * 2 for i in range(10)}

    def test_quarantined_task_never_streams(self):
        seen = {}

        def sink(idx, value):
            seen[idx] = value

        retry = RetryPolicy(base_delay=0.0, max_attempts=2)
        with WorkerPool(2, retry=retry) as pool:
            pool.map_quarantine(_crash_on_seven, [1, 7, 3, 4], on_result=sink)
        assert 1 not in seen  # the poison index
        assert seen[0] == 2 and seen[2] == 6 and seen[3] == 8
