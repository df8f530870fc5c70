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


class TwoArgError(Exception):
    """Pickles, but does not unpickle: the unpickler calls
    ``TwoArgError(message)``, which lacks ``b``."""

    def __init__(self, a, b):
        super().__init__(f"{a}: {b}")


def _log_two_arg_error(arg):
    log, value = arg
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    if value == 1:
        raise TwoArgError("task", value)
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
    def test_killed_worker_task_is_rerun(self, tmp_path):
        tasks = [(str(tmp_path / f"marker{i}"), i) for i in range(4)]
        with WorkerPool(2) as pool:
            out = pool.map(_crash_once, tasks)
        assert out == [0, 2, 4, 6]
        # every task really did kill a worker once before succeeding
        assert all(os.path.exists(marker) for marker, _ in tasks)

    def test_poison_task_is_quarantined(self):
        retry = RetryPolicy(max_attempts=2)
        with WorkerPool(2, retry=retry) as pool:
            results, failures = pool.map_quarantine(_crash_on_seven, [1, 7, 3, 4])
        assert results == [2, None, 6, 8]
        assert list(failures) == [1]
        fault = failures[1]
        assert isinstance(fault, WorkerCrash)
        assert fault.attempts == 2

    def test_map_raises_worker_crash_after_budget(self):
        retry = RetryPolicy(max_attempts=2)
        with WorkerPool(2, retry=retry) as pool:
            with pytest.raises(WorkerCrash, match="attempt 2/2"):
                pool.map(_crash_on_seven, [1, 7, 3, 4])

    def test_crash_reports_the_reaped_exit_code(self):
        # the exit code is read after the dead worker is joined: read
        # before, it could still be None
        retry = RetryPolicy(max_attempts=1)
        for _ in range(12):
            with WorkerPool(2, retry=retry) as pool:
                _, failures = pool.map_quarantine(_crash_on_seven, [1, 7])
            fault = failures[1]
            assert str(fault).endswith("worker died with exitcode -9")
            assert fault.exitcode == -signal.SIGKILL

    def test_zero_retries_runs_every_task_once(self, tmp_path):
        # --retries 0: the crash is final, and no other task is re-run
        log = str(tmp_path / "executions.log")
        retry = RetryPolicy(max_attempts=1)
        with WorkerPool(2, retry=retry) as pool:
            results, failures = pool.map_quarantine(
                _log_crash_on_seven, [(log, i) for i in range(16)]
            )
        assert results == [None if i == 7 else i * 2 for i in range(16)]
        assert list(failures) == [7]
        assert isinstance(failures[7], WorkerCrash)
        assert failures[7].attempts == 1
        with open(log) as fh:
            assert sorted(int(line) for line in fh) == list(range(16))


class TestTimeouts:
    def test_deadline_quarantines_slow_task(self):
        retry = RetryPolicy(max_attempts=1, task_timeout=0.4)
        with WorkerPool(2, retry=retry) as pool:
            results, failures = pool.map_quarantine(_sleep_on_two, [0, 1, 2, 3])
        assert results == [0, 1, None, 3]
        assert list(failures) == [2]
        assert isinstance(failures[2], TaskTimeout)
        assert "deadline" in str(failures[2])

    def test_map_raises_task_timeout(self):
        retry = RetryPolicy(max_attempts=1, task_timeout=0.4)
        with WorkerPool(2, retry=retry) as pool:
            with pytest.raises(TaskTimeout, match="deadline"):
                pool.map(_sleep_on_two, [0, 1, 2, 3])

    def test_deadline_is_per_task(self):
        # task 2 overruns its own 0.4 s even though it and a fast
        # neighbour together would fit in 0.8 s
        retry = RetryPolicy(max_attempts=1, task_timeout=0.4)
        with WorkerPool(2, retry=retry) as pool:
            results, failures = pool.map_quarantine(_nap_on_two, list(range(16)))
        assert results == [None if i == 2 else i for i in range(16)]
        assert list(failures) == [2]
        assert isinstance(failures[2], TaskTimeout)


class TestTaskExceptions:
    def test_task_error_reraises_original_without_retry(self, tmp_path):
        log = str(tmp_path / "executions.log")
        tasks = [(log, 1), (log, 5), (log, 2), (log, 3)]
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task 5 is broken"):
                pool.map(_log_execution, tasks)
        executed = open(log).read().splitlines()
        # deterministic task-code failure: exactly one execution, no retry
        assert executed.count("5") == 1

    def test_quarantine_returns_the_task_exception(self, tmp_path):
        """A task's own exception is its failure: quarantined under its
        index, once, while every other task completes."""
        log = str(tmp_path / "executions.log")
        tasks = [(log, 1), (log, 5), (log, 2), (log, 3)]
        with WorkerPool(2) as pool:
            results, failures = pool.map_quarantine(_log_execution, tasks)
        assert results == [1, None, 2, 3]
        assert list(failures) == [1]
        assert isinstance(failures[1], ValueError)
        assert str(failures[1]) == "task 5 is broken"
        assert "in _log_execution" in str(failures[1].__cause__)
        assert open(log).read().splitlines().count("5") == 1

    def test_exception_that_will_not_unpickle_is_not_a_crash(self, tmp_path):
        """It fails its task once, naming its type and message; its worker
        is not read as dead, so nothing is retried."""
        log = tmp_path / "executions.log"
        tasks = [(str(log), value) for value in range(3)]
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="^TwoArgError: task: 1$") as info:
                pool.map(_log_two_arg_error, tasks)
        assert "in _log_two_arg_error" in str(info.value.__cause__)
        assert log.read_text().splitlines().count("1") == 1


class TestInitializerFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_initializer_failure_raises_original(self, jobs):
        with WorkerPool(jobs, initializer=_bad_init) as pool:
            with pytest.raises(ValueError, match="warm failed") as info:
                pool.map(_double, [1, 2, 3, 4])
        assert "in _bad_init" in str(info.value.__cause__)


class TestGracefulShutdown:
    def test_close_exits_workers_cleanly(self):
        with WorkerPool(2) as pool:
            assert pool.map(_double, list(range(8))) == [i * 2 for i in range(8)]
            procs = [w.proc for w in pool._workers.values()]
        assert procs  # the map really forked workers
        assert all(proc.exitcode == 0 for proc in procs)

    def test_error_path_terminates_workers(self):
        procs = []
        with pytest.raises(RuntimeError, match="boom"):
            with WorkerPool(2) as pool:
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chaos_kill_is_survived_by_retry(self, monkeypatch, jobs):
        monkeypatch.setenv("REPRO_CHAOS", "kill:task=0")
        with WorkerPool(jobs) as pool:
            out = pool.map(_double, [1, 2, 3, 4])
        assert out == [2, 4, 6, 8]

    def test_a_retry_runs_before_fresh_tasks(self, monkeypatch, tmp_path):
        """A killed task goes back to the front of the backlog at once:
        on one worker it runs again before the tasks queued after it."""
        monkeypatch.setenv("REPRO_CHAOS", "kill:task=0")
        log = str(tmp_path / "executions.log")
        with WorkerPool(1) as pool:
            out = pool.map(_log_execution, [(log, i) for i in range(4)])
        assert out == [0, 1, 2, 3]
        assert open(log).read().splitlines() == ["0", "1", "2", "3"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chaos_delay_trips_the_deadline(self, monkeypatch, jobs):
        monkeypatch.setenv("REPRO_CHAOS", "delay:task=0:ms=5000")
        retry = RetryPolicy(max_attempts=1, task_timeout=0.4)
        with WorkerPool(jobs, retry=retry) as pool:
            results, failures = pool.map_quarantine(_double, [1, 2, 3])
        assert results == [None, 4, 6]
        assert list(failures) == [0]
        assert isinstance(failures[0], TaskTimeout)


class TestOnResultStreaming:
    def test_on_result_sees_every_completed_task(self):
        seen = {}

        def sink(idx, value):
            seen[idx] = value

        with WorkerPool(2) as pool:
            out = pool.map(_double, list(range(10)), on_result=sink)
        assert out == [i * 2 for i in range(10)]
        assert seen == {i: i * 2 for i in range(10)}

    def test_quarantined_task_never_streams(self):
        seen = {}

        def sink(idx, value):
            seen[idx] = value

        retry = RetryPolicy(max_attempts=2)
        with WorkerPool(2, retry=retry) as pool:
            pool.map_quarantine(_crash_on_seven, [1, 7, 3, 4], on_result=sink)
        assert 1 not in seen  # the poison index
        assert seen[0] == 2 and seen[2] == 6 and seen[3] == 8
