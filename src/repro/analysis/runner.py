"""Parallel experiment runner with params-keyed result caching.

The registry (:mod:`repro.analysis.registry`) says *what* can run; this
module says *how*: map experiments over a crash-safe
:class:`~repro.util.pool.WorkerPool` and store each result the moment
it lands as one :class:`~repro.analysis.store.ResultStore` entry keyed
on a hash of the experiment id, its effective parameters and its code.
A re-run with unchanged parameters is a pure cache read — zero
experiment executions — which is what makes repeated ``repro run --all
--cache`` invocations (CI, sweep drivers) cheap, and a run that fails
keeps every experiment that finished before the failure.

Every experiment returns ``list[dict]`` rows of JSON scalars, so the
cache round-trips losslessly and byte-identically (object key order is
preserved by ``json``).  The parent checks every result's rows against
its experiment's claims, executed and cached alike, so a cache entry
never vouches for a claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import registry
from repro.analysis.store import ResultStore
from repro.util.pool import WorkerPool
from repro.util.retry import RetryPolicy

__all__ = [
    "RunResult",
    "RunnerStats",
    "ExperimentRunner",
    "DEFAULT_CACHE_DIR",
]

DEFAULT_CACHE_DIR = Path(".repro-cache")


@dataclass
class RunResult:
    """One experiment's outcome: rows, provenance and the messages of
    the claims its rows fail (empty when every claim holds)."""

    name: str
    title: str
    rows: list[dict]
    params: dict
    digest: str
    seconds: float
    cached: bool
    failed_claims: list[str]


@dataclass
class RunnerStats:
    """Counters for one :meth:`ExperimentRunner.run` call (cumulative)."""

    executed: int = 0
    cache_hits: int = 0
    seconds: float = 0.0


def _execute(task: tuple[str, dict]) -> tuple[str, list[dict], float]:
    """Worker entry point: run one experiment (picklable, top level)."""
    name, params = task
    spec = registry.get_experiment(name)
    t0 = time.perf_counter()
    rows = spec.fn(**params)
    return name, rows, time.perf_counter() - t0


def _cached_rows(
    cache: ResultStore | None, name: str, digest: str
) -> list[dict] | None:
    payload = cache.load(name, digest) if cache is not None else None
    if payload is None:
        return None
    # the entry is written sort_keys=True (byte determinism), so each
    # row's display column order is restored from the stored list
    try:
        return [
            {key: row[key] for key in cols}
            for row, cols in zip(payload["rows"], payload["columns"], strict=True)
        ]
    except (KeyError, TypeError, ValueError):
        return None  # columns out of sync with rows — treat as a miss


class ExperimentRunner:
    """Run experiments on ``jobs`` worker processes.

    Parameters
    ----------
    jobs:
        Worker process count (default 1), capped at the number of
        experiments to execute.  Every experiment runs in a worker, so
        deadlines, retries and ``REPRO_CHAOS`` apply at every count.
    cache_dir:
        When set, each result is stored as
        ``<cache_dir>/<name>-<digest>.json`` as soon as it finishes, and
        subsequent runs with the same effective parameters are served
        from disk without executing the experiment.
    retry:
        The :class:`~repro.util.retry.RetryPolicy` governing worker
        crash/timeout recovery (default: the policy defaults — bounded
        retries, no task deadline).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultStore(cache_dir) if cache_dir is not None else None
        self.retry = retry
        self.stats = RunnerStats()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        names: list[str] | None = None,
        *,
        overrides: dict[str, dict] | None = None,
    ) -> list[RunResult]:
        """Run the named experiments (all registered ones when ``None``).

        ``overrides`` maps experiment id → parameter overrides.  Results
        come back in request order regardless of worker scheduling, each
        with the failed-claim messages of its rows.
        """
        t_start = time.perf_counter()
        if names is None:
            names = registry.experiment_ids()
        specs = [registry.get_experiment(name) for name in names]
        plan: list[tuple[str, dict, str]] = []
        for spec in specs:
            params = registry.effective_params(spec, (overrides or {}).get(spec.name))
            digest = registry.params_digest(
                spec.name, params, code=registry.code_digest(spec)
            )
            plan.append((spec.name, params, digest))

        results: dict[int, RunResult] = {}
        to_run: list[tuple[int, str, dict, str]] = []
        for idx, (name, params, digest) in enumerate(plan):
            rows = _cached_rows(self.cache, name, digest)
            if rows is not None:
                self.stats.cache_hits += 1
                spec = registry.get_experiment(name)
                results[idx] = RunResult(
                    name=name,
                    title=spec.title,
                    rows=rows,
                    params=params,
                    digest=digest,
                    seconds=0.0,
                    cached=True,
                    failed_claims=spec.claims(rows, params),
                )
            else:
                to_run.append((idx, name, params, digest))

        def record(index: int, value: tuple[str, list[dict], float]) -> None:
            # runs in the parent as each task lands, so an experiment
            # that raises later cannot discard the ones already finished
            idx, name, params, digest = to_run[index]
            _, rows, seconds = value
            self.stats.executed += 1
            if self.cache is not None:
                self.cache.store(
                    name,
                    digest,
                    {
                        "experiment": name,
                        "params": registry.jsonable(params),
                        # sort_keys normalizes the entry's bytes; column
                        # order is table semantics, so it is recorded as
                        # data rather than dict order
                        "columns": [list(row) for row in rows],
                        "rows": rows,
                    },
                )
            spec = registry.get_experiment(name)
            results[idx] = RunResult(
                name=name,
                title=spec.title,
                rows=rows,
                params=params,
                digest=digest,
                seconds=seconds,
                cached=False,
                failed_claims=spec.claims(rows, params),
            )

        if to_run:
            tasks = [(name, params) for _, name, params, _ in to_run]
            with WorkerPool(min(self.jobs, len(tasks)), retry=self.retry) as pool:
                pool.map(_execute, tasks, on_result=record)

        self.stats.seconds += time.perf_counter() - t_start
        return [results[idx] for idx in range(len(plan))]
