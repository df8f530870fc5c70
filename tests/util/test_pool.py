"""The shared pool policy: one task per dispatch, initializers, persistence.

The determinism contract — results in task order whatever the worker
count or the order tasks complete in — is what the campaign merge gate
ultimately leans on, so it is pinned here directly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.util.pool import WorkerPool

_SRC = str(Path(repro.__file__).resolve().parents[1])

# Run in a fresh interpreter: the test process may have loaded asyncio.
_ASYNCIO_PROBE = """
import sys

from repro.util.pool import WorkerPool


def asyncio_loaded(_):
    return "asyncio" in sys.modules


with WorkerPool(2) as pool:
    print(pool.map(asyncio_loaded, range(6)))
"""

# -- module-level workers (the pool pickles them) ---------------------------

_STATE = {"warm": 0}


def _square(x):
    return x * x


def _tag_pid(x):
    return (x, os.getpid())


def _warm(tag):
    _STATE["warm"] += 1
    _STATE["tag"] = tag


def _read_warm(_x):
    return (_STATE["warm"], _STATE.get("tag"))


def _boom(x):
    if x == 3:
        raise ValueError("task 3 exploded")
    return x


def _one_shot(fn, tasks, jobs):
    """How the runners map: one pool, never more workers than tasks."""
    with WorkerPool(min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)


class TestOneShotMap:
    def test_serial_matches_map(self):
        assert _one_shot(_square, [1, 2, 3], 1) == [1, 4, 9]

    @pytest.mark.parametrize(
        "jobs, n_tasks", [(1, 8), (4, 1), (2, 8)], ids=["one-job", "one-task", "many"]
    )
    def test_parallel_uses_worker_processes(self, jobs, n_tasks):
        pids = {pid for _, pid in _one_shot(_tag_pid, list(range(n_tasks)), jobs)}
        assert os.getpid() not in pids

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_propagates(self, jobs):
        """With its type, and the worker's traceback as its cause: the
        report shows the frame that raised."""
        with pytest.raises(ValueError, match="task 3 exploded") as info:
            _one_shot(_boom, list(range(6)), jobs)
        remote = str(info.value.__cause__)
        assert "in _boom" in remote
        assert "ValueError: task 3 exploded" in remote


class TestWorkerPool:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            WorkerPool(0)

    def test_parallel_results_come_back_in_task_order(self):
        # results land in completion order; map returns them in task order
        tasks = list(range(37))
        expected = [x * x for x in tasks]
        with WorkerPool(2) as pool:
            assert pool.map(_square, tasks) == expected

    def test_initializer_runs_once_per_worker(self):
        # every task must observe an already-warmed worker
        with WorkerPool(2, initializer=_warm, initargs=("w",)) as pool:
            out = pool.map(_read_warm, range(12))
        assert all(count >= 1 and tag == "w" for count, tag in out)

    def test_persistent_pool_reuses_workers(self):
        # A map may land every task on one of the two workers, so the
        # per-map pid sets need not be equal — but both maps must be
        # served by the pool's own (at most 2) persistent processes.
        with WorkerPool(2) as pool:
            first = {pid for _, pid in pool.map(_tag_pid, range(8))}
            second = {pid for _, pid in pool.map(_tag_pid, range(8))}
        assert len(first | second) <= 2
        assert os.getpid() not in first | second

    def test_serial_pool_runs_initializer_lazily_once(self):
        _STATE["warm"] = 0
        with WorkerPool(1, initializer=_warm, initargs=("p",)) as pool:
            assert pool.map(_read_warm, [0, 1]) == [(1, "p"), (1, "p")]
            assert pool.map(_read_warm, [2]) == [(1, "p")]

    def test_closed_pool_rejects_map(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_square, [1])

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map(_square, [1, 2])
        pool.close()
        pool.close()


class TestForkBeforeAsyncio:
    def test_map_workers_never_load_asyncio(self):
        """``map`` runs on an event loop, but forks its workers before
        asyncio (and the ssl it loads) is imported: each worker process
        would carry those pages for nothing."""
        env = dict(os.environ, PYTHONPATH=_SRC)
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.run(
            [sys.executable, "-c", _ASYNCIO_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([False] * 6)
