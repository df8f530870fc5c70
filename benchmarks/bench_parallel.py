"""Parallel-execution benchmark: cold campaign worker scaling, and the
pool's per-task dispatch cost.

The ``fault-robustness`` built-in campaign is executed end to end with
cold caches at 1/2/4 workers (1/2 at smoke size), and the row is merged
into ``BENCH_results.json``.  The floor (2 workers ≥ 1.6× 1 worker) is
asserted only at full size on a multi-core box: worker scaling cannot
be measured on one core, so the row records ``cpu_count`` and the
assertion gates on it.  Every run's scenario count is checked before
its time is used.

The dispatch row maps a trivial task over 1,000 and 20,000 tasks (5,000
at smoke size) on two warm workers.  The pool hands out one task per
dispatch, so a dispatch that rescanned the queued tasks would grow with
the map's length; at full size the per-task cost at the larger map must
stay within 2× the cost at 1,000.
"""

import os
import time

from repro.analysis.campaigns import BUILTIN_CAMPAIGNS, CampaignRunner
from repro.analysis.scenarios import clear_scenario_caches
from repro.engine.cache import clear_cache
from repro.util.pool import WorkerPool

FULL = int(os.environ.get("REPRO_BENCH_N", "12")) >= 12
CPUS = os.cpu_count() or 1
WORKERS = (1, 2, 4) if FULL else (1, 2)
WORKER_FLOOR = 1.6
SPEC = BUILTIN_CAMPAIGNS["fault-robustness"]
DISPATCH_SIZES = (1_000, 20_000) if FULL else (1_000, 5_000)
DISPATCH_GROWTH_CEILING = 2.0


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


# -- cold campaign worker scaling -------------------------------------------


def _cold_campaign(jobs):
    """One fully cold end-to-end campaign run (no scenario/result cache)."""
    clear_scenario_caches()
    clear_cache()
    outcomes = CampaignRunner(jobs=jobs).run(SPEC)
    assert len(outcomes) == SPEC.n_scenarios
    return outcomes


def test_campaign_worker_scaling(print_once, bench_json):
    """Acceptance: cold 2-worker throughput ≥ 1.6× cold 1-worker,
    asserted at full size on ≥ 2 cores (recorded unconditionally)."""
    times = {}
    rows = []
    for jobs in WORKERS:
        times[jobs] = best_of(lambda j=jobs: _cold_campaign(j), repeats=1)
        rows.append(
            {
                "workers": jobs,
                "seconds": f"{times[jobs]:.3f}",
                "scenarios_per_s": f"{SPEC.n_scenarios / times[jobs]:.1f}",
                "vs_1_worker": f"{times[1] / times[jobs]:.2f}x",
            }
        )
    print_once(
        "campaign-worker-scaling",
        rows,
        title=f"cold {SPEC.name} campaign throughput ({CPUS} cores)",
    )
    scaling_2w = times[1] / times[2]
    bench_json(
        "bench_parallel",
        "campaign_worker_scaling",
        workload=f"cold {SPEC.name} campaign ({SPEC.n_scenarios} scenarios)",
        cpu_count=CPUS,
        seconds_by_workers={str(j): round(t, 6) for j, t in times.items()},
        scaling_2_workers=round(scaling_2w, 2),
        floor=WORKER_FLOOR,
        full_size=FULL,
        floor_asserted=FULL and CPUS >= 2,
    )
    if FULL and CPUS >= 2:
        assert scaling_2w >= WORKER_FLOOR, (
            f"2 workers only {scaling_2w:.2f}x over 1 worker on {CPUS} "
            f"cores (floor {WORKER_FLOOR}x)"
        )


# -- per-task dispatch cost --------------------------------------------------


def _noop(x):
    return x


def test_pool_dispatch_cost(print_once, bench_json):
    """Acceptance: per-task cost at the largest map ≤ 2× the cost at
    1,000 tasks, asserted at full size (recorded unconditionally)."""
    per_task_us = {}
    with WorkerPool(2) as pool:
        assert pool.map(_noop, range(100)) == list(range(100))  # warm workers
        for n in DISPATCH_SIZES:
            tasks = list(range(n))

            def run(tasks=tasks):
                assert pool.map(_noop, tasks) == tasks

            per_task_us[n] = best_of(run) / n * 1e6
    small, large = DISPATCH_SIZES
    growth = per_task_us[large] / per_task_us[small]
    rows = [{"tasks": n, "us_per_task": f"{us:.1f}"} for n, us in per_task_us.items()]
    print_once(
        "pool-dispatch-cost",
        rows,
        title=f"WorkerPool(2).map per-task cost, warm workers ({CPUS} cores)",
    )
    bench_json(
        "bench_parallel",
        "pool_dispatch_cost",
        workload="WorkerPool(2).map over trivial tasks, warm workers, best of 3",
        cpu_count=CPUS,
        us_per_task_by_tasks={str(n): round(us, 2) for n, us in per_task_us.items()},
        growth=round(growth, 2),
        ceiling=DISPATCH_GROWTH_CEILING,
        full_size=FULL,
        ceiling_asserted=FULL,
    )
    if FULL:
        assert growth <= DISPATCH_GROWTH_CEILING, (
            f"per-task dispatch cost grew {growth:.2f}x from {small} to "
            f"{large} tasks (ceiling {DISPATCH_GROWTH_CEILING}x)"
        )
