"""Scheduler benchmarks: the kernel-backed greedy, the exact search and
the engine kernels.

The greedy rows run a fixed restart budget on an n ≥ 256 instance at full
size (the CI smoke sizes shrink it via ``REPRO_BENCH_N``), and on the
perfbench campaign's own instance: ``sparse:6:3`` from its ``sample:8``
sources, 100 restarts each, on warm kernels, best of N with the spread
and no floor.  The
``enumerate_paths`` pair times the kernel against the set-based
primitive it is pinned to (:mod:`repro.schedulers.legacy`).  The
measured numbers, and the retired kernels-vs-legacy greedy rows, are
recorded in ``benchmarks/RESULTS_schedulers.md``.
"""

import os
import statistics
import time

from repro.analysis.scenarios import sources_for
from repro.engine.kernels import GraphKernels
from repro.graphs.hypercube import hypercube
from repro.graphs.specs import graph_from_spec
from repro.graphs.trees import balanced_ternary_core_tree, path_graph
from repro.schedulers import legacy
from repro.schedulers.greedy import heuristic_line_broadcast
from repro.schedulers.search import find_minimum_time_schedule
from repro.util.bits import mask_from_indices

# REPRO_BENCH_N keeps the perf-primitives convention (hypercube dimension,
# 12 full / 10 CI smoke); the greedy instance scales with it.
N = int(os.environ.get("REPRO_BENCH_N", "12"))
GREEDY_N = 257 if N >= 12 else 33  # n ≥ 256 at full size
RESTARTS = 2


def _greedy_graph():
    return path_graph(GREEDY_N)


def test_bench_greedy_kernel(benchmark):
    g = _greedy_graph()
    benchmark.pedantic(
        lambda: heuristic_line_broadcast(g, 0, None, restarts=RESTARTS, seed=0),
        rounds=1,
        iterations=1,
    )


def test_bench_greedy_ternary_tree(benchmark):
    h = 7 if N >= 12 else 4  # N = 382 full-size
    g = balanced_ternary_core_tree(h)
    benchmark.pedantic(
        lambda: heuristic_line_broadcast(g, 0, None, restarts=1, seed=0),
        rounds=1,
        iterations=1,
    )


CAMPAIGN_REPEATS = 5


def test_bench_greedy_campaign_instance(print_once, bench_json):
    """Greedy as the campaign runs it: ``sparse:6:3``, ``k=None``, 100
    restarts, one call per ``sample:8`` source.  One untimed pass warms
    the kernels and the validator; no floor is asserted."""
    g = graph_from_spec("sparse:6:3")
    sources = sources_for("sample:8", g.n_vertices)

    def run():
        for s in sources:
            assert heuristic_line_broadcast(g, s, None, restarts=100, seed=s)

    run()
    times = []
    for _ in range(CAMPAIGN_REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    best, median, worst = min(times), statistics.median(times), max(times)
    print_once(
        "greedy-campaign-instance",
        [
            {
                "sources": len(sources),
                "best_s": f"{best:.3f}",
                "median_s": f"{median:.3f}",
                "max_s": f"{worst:.3f}",
            }
        ],
        title=f"greedy sparse:6:3 sample:8, 100 restarts, warm, N={CAMPAIGN_REPEATS}",
    )
    bench_json(
        "bench_schedulers",
        "greedy_campaign_instance",
        workload="greedy sparse:6:3, k=None, restarts=100, sample:8 sources, warm",
        repeats=CAMPAIGN_REPEATS,
        best_s=round(best, 6),
        median_s=round(median, 6),
        max_s=round(worst, 6),
    )


def test_bench_exact_search_kernel(benchmark):
    g = balanced_ternary_core_tree(2)
    sched = benchmark(lambda: find_minimum_time_schedule(g, 0, 4))
    assert sched is not None


def test_bench_enumerate_paths_kernel(benchmark):
    g = hypercube(3)
    kern = GraphKernels(g)
    targets = mask_from_indices(range(1, 8))
    paths = benchmark(lambda: kern.enumerate_paths(0, 3, 0, targets))
    assert paths


def test_bench_enumerate_paths_legacy(benchmark):
    g = hypercube(3)
    targets = set(range(1, 8))
    paths = benchmark(lambda: legacy.enumerate_paths(g, 0, 3, set(), targets))
    assert paths


def test_bench_kernels_construction(benchmark):
    g = hypercube(min(N, 10))
    benchmark(lambda: GraphKernels(g))
