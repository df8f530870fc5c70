"""Parallel experiment runner with params-keyed result caching.

The registry (:mod:`repro.analysis.registry`) says *what* can run; this
module says *how*: fan experiments out over a ``multiprocessing`` pool
and memoize each result as JSON keyed on a hash of the experiment id and
its effective parameters.  A re-run with unchanged parameters is a pure
cache read — zero experiment executions — which is what makes repeated
``repro run --all --cache`` invocations (CI, sweep drivers) cheap.

Every experiment returns ``list[dict]`` rows of JSON scalars, so the
cache round-trips losslessly and byte-identically (object key order is
preserved by ``json``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import registry
from repro.util.pool import fan_out
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
    """One experiment's outcome: rows plus provenance."""

    name: str
    title: str
    rows: list[dict]
    params: dict
    digest: str
    seconds: float
    cached: bool


@dataclass
class RunnerStats:
    """Counters for one :meth:`ExperimentRunner.run` call (cumulative)."""

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    per_experiment: dict[str, float] = field(default_factory=dict)


def _execute(task: tuple[str, dict]) -> tuple[str, list[dict], float]:
    """Worker entry point: run one experiment (picklable, top level)."""
    name, params = task
    spec = registry.get_experiment(name)
    t0 = time.perf_counter()
    rows = spec.fn(**params)
    return name, rows, time.perf_counter() - t0


class ExperimentRunner:
    """Run experiments sequentially or across ``jobs`` worker processes.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process, which is
        also the fallback when only one experiment is requested.
    cache_dir:
        When set, each result is stored as
        ``<cache_dir>/<name>-<digest>.json`` and subsequent runs with the
        same effective parameters are served from disk without executing
        the experiment.
    retry:
        The :class:`~repro.util.retry.RetryPolicy` governing worker
        crash/timeout recovery for the parallel path (default: the
        policy defaults — bounded retries, no task deadline).
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
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.retry = retry
        self.stats = RunnerStats()

    # -- cache -------------------------------------------------------------

    def _cache_path(self, name: str, digest: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{name}-{digest}.json"

    def _cache_load(self, name: str, digest: str) -> list[dict] | None:
        path = self._cache_path(name, digest)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            rows = payload["rows"]
            columns = payload["columns"]
        except (json.JSONDecodeError, KeyError, TypeError, OSError):
            return None  # truncated/corrupt entry — treat as a miss
        if not isinstance(payload, dict) or payload.get("digest") != digest:
            return None  # stale entry
        # the entry is written sort_keys=True (byte determinism), so each
        # row's display column order is restored from the stored list
        try:
            return [
                {key: row[key] for key in cols}
                for row, cols in zip(rows, columns, strict=True)
            ]
        except (KeyError, TypeError, ValueError):
            return None  # columns out of sync with rows — treat as a miss

    def _cache_store(
        self, name: str, digest: str, params: dict, rows: list[dict]
    ) -> None:
        path = self._cache_path(name, digest)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment": name,
            "digest": digest,
            "params": registry.jsonable(params),
            # sort_keys normalizes the bytes below; column order is table
            # semantics, so it is recorded as data rather than dict order
            "columns": [list(row) for row in rows],
            "rows": rows,
        }
        # atomic write: an interrupted run must not leave a torn entry
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        tmp.replace(path)

    def clean_cache(self) -> int:
        """Delete all cache entries; returns the number removed.

        Only files matching the runner's ``<name>-<16-hex-digest>.json``
        naming scheme are touched — pointing ``--cache-dir`` at a
        directory with unrelated JSON files must not eat them.
        """
        if self.cache_dir is None or not self.cache_dir.exists():
            return 0

        def is_entry_name(stem: str) -> bool:
            prefix, _, digest = stem.rpartition("-")
            return bool(prefix) and len(digest) == 16 and all(
                c in "0123456789abcdef" for c in digest
            )

        removed = 0
        for path in sorted(self.cache_dir.glob("*.json")):
            if is_entry_name(path.name[: -len(".json")]):
                path.unlink()
                removed += 1
        # also sweep orphaned temp files from interrupted writes
        for path in sorted(self.cache_dir.glob("*.json.tmp")):
            if is_entry_name(path.name[: -len(".json.tmp")]):
                path.unlink()
        return removed

    # -- execution ---------------------------------------------------------

    def run(
        self,
        names: list[str] | None = None,
        *,
        overrides: dict[str, dict] | None = None,
    ) -> list[RunResult]:
        """Run the named experiments (all registered ones when ``None``).

        ``overrides`` maps experiment id → parameter overrides.  Results
        come back in request order regardless of worker scheduling.
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
            rows = self._cache_load(name, digest)
            if rows is not None:
                self.stats.cache_hits += 1
                results[idx] = RunResult(
                    name=name,
                    title=registry.get_experiment(name).title,
                    rows=rows,
                    params=params,
                    digest=digest,
                    seconds=0.0,
                    cached=True,
                )
            else:
                if self.cache_dir is not None:
                    self.stats.cache_misses += 1
                to_run.append((idx, name, params, digest))

        if to_run:
            tasks = [(name, params) for _, name, params, _ in to_run]
            outcomes = fan_out(_execute, tasks, self.jobs, retry=self.retry)
            paired = zip(to_run, outcomes)
            for (idx, name, params, digest), (_, rows, seconds) in paired:
                self.stats.executed += 1
                self.stats.per_experiment[name] = seconds
                self._cache_store(name, digest, params, rows)
                results[idx] = RunResult(
                    name=name,
                    title=registry.get_experiment(name).title,
                    rows=rows,
                    params=params,
                    digest=digest,
                    seconds=seconds,
                    cached=False,
                )

        self.stats.seconds += time.perf_counter() - t_start
        return [results[idx] for idx in range(len(plan))]
