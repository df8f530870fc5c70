"""The shared pool policy: one task per dispatch, initializers, persistence.

The determinism contract — results in task order whatever the worker
count or the order tasks complete in — is what the campaign merge gate
ultimately leans on, so it is pinned here directly.
"""

import os

import pytest

from repro.util.pool import WorkerPool, fan_out

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


class TestFanOut:
    def test_serial_matches_map(self):
        assert fan_out(_square, [1, 2, 3], 1) == [1, 4, 9]

    def test_single_task_stays_in_process(self):
        pid = os.getpid()
        [(_, worker_pid)] = fan_out(_tag_pid, [0], 4)
        assert worker_pid == pid

    def test_parallel_uses_worker_processes(self):
        pids = {pid for _, pid in fan_out(_tag_pid, list(range(8)), 2)}
        assert os.getpid() not in pids

    def test_initializer_runs_in_process_when_serial(self):
        # fan_out takes no initializer: a serial fan_out runs every task in
        # the caller's process, so warming that process beforehand suffices
        _STATE["warm"] = 0
        _warm("t")
        assert fan_out(_read_warm, [0, 1], 1) == [(1, "t"), (1, "t")]
        assert {pid for _, pid in fan_out(_tag_pid, [0, 1], 1)} == {os.getpid()}

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="task 3 exploded"):
            fan_out(_boom, list(range(6)), 2)


class TestWorkerPool:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            WorkerPool(0)

    def test_parallel_order_determinism_under_chunking(self):
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
