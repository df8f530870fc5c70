"""Batch all-sources engine benchmarks (generation + validation).

The headline workload is the E09-style sweep at full size: the n = 10
Construct_BASE sparse hypercube, *all* 1024 sources, generate the
Broadcast_2 schedule from each and validate it.  The per-source loop
(``broadcast_schedule`` + a shared ``FastValidator``) is measured against
the batch engine (:mod:`repro.engine.batch`: one generation per coset of
the translation group, XOR-translated stacked arrays, each row checked
by the same fast validator).  Verdicts are asserted identical before any
timing; the ≥3× acceptance floor is asserted at full size (the measured
speedup is recorded in ``benchmarks/RESULTS_schedulers.md`` and emitted
into ``BENCH_results.json`` by the shared conftest).
"""

import os
import time

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.core.params import theorem5_m_star
from repro.engine.batch import all_sources_schedules, validate_all_sources
from repro.engine.cache import fast_validator_for

# Hypercube dimension: 10 at full size (1024 sources), 7 under the CI
# smoke sizes (REPRO_BENCH_N=10 shrinks every bench suite).
FULL = int(os.environ.get("REPRO_BENCH_N", "12")) >= 12
N_DIM = 10 if FULL else 7
M = theorem5_m_star(N_DIM)
SPEEDUP_FLOOR = 3.0


def _instance():
    sh = construct_base(N_DIM, M)
    _ = sh.graph  # materialize outside the timers
    return sh


def _loop_all_sources(sh):
    """The pre-batch path: one generation + one validation per source."""
    validator = fast_validator_for(sh.graph)
    ok, max_len = [], 0
    for s in range(sh.n_vertices):
        sched = broadcast_schedule(sh, s)
        rep = validator.validate(sched, sh.k)
        ok.append(rep.ok and len(sched.rounds) == sh.n)
        max_len = max(max_len, rep.max_call_length)
    return ok, max_len


def _batch_all_sources(sh):
    outcome = validate_all_sources(sh, k=sh.k)
    ok = [o and r == sh.n for o, r in zip(outcome.ok, outcome.rounds)]
    return ok, outcome.max_call_length


def test_batch_loop_verdicts_identical():
    """The two paths must agree exactly before their times mean anything."""
    sh = _instance()
    loop_ok, loop_len = _loop_all_sources(sh)
    batch_ok, batch_len = _batch_all_sources(sh)
    assert loop_ok == batch_ok
    assert loop_len == batch_len
    assert all(batch_ok)
    # and the translated schedules are the directly generated ones
    for stack in all_sources_schedules(sh, sources=[0, 1, sh.n_vertices - 1]):
        for i in range(stack.n_schedules):
            src = int(stack.sources[i])
            assert stack.to_schedule(i, sort_calls=True) == broadcast_schedule(sh, src)


def test_bench_all_sources_loop(benchmark):
    sh = _instance()
    fast_validator_for(sh.graph)  # warm the kernel cache for both sides
    ok, _ = benchmark.pedantic(lambda: _loop_all_sources(sh), rounds=1, iterations=1)
    assert all(ok)


def test_bench_all_sources_batch(benchmark):
    sh = _instance()
    fast_validator_for(sh.graph)
    ok, _ = benchmark.pedantic(lambda: _batch_all_sources(sh), rounds=1, iterations=1)
    assert all(ok)


def test_bench_all_sources_generation_only(benchmark):
    """Stacked generation alone (no validation): the XOR-translate axis."""
    sh = _instance()
    stacks = benchmark.pedantic(
        lambda: all_sources_schedules(sh), rounds=1, iterations=1
    )
    assert sum(s.n_schedules for s in stacks) == sh.n_vertices


def test_batch_speedup_floor(print_once, bench_json):
    """Acceptance: ≥3× for the batch engine over the per-source loop on
    the all-sources generate+validate workload (asserted at full size)."""
    sh = _instance()
    fast_validator_for(sh.graph)

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_loop = best_of(lambda: _loop_all_sources(sh))
    t_batch = best_of(lambda: _batch_all_sources(sh))
    speedup = t_loop / t_batch
    row = {
        "workload": f"all-sources generate+validate, Construct_BASE({N_DIM}, {M})",
        "sources": sh.n_vertices,
        "loop_s": f"{t_loop:.3f}",
        "batch_s": f"{t_batch:.3f}",
        "speedup": f"{speedup:.1f}x",
    }
    print_once(
        "batch-speedup", [row], title="batch all-sources engine vs per-source loop"
    )
    bench_json(
        "bench_batch",
        "all_sources_speedup",
        workload=row["workload"],
        sources=sh.n_vertices,
        loop_seconds=round(t_loop, 6),
        batch_seconds=round(t_batch, 6),
        speedup=round(speedup, 2),
        floor=SPEEDUP_FLOOR,
        full_size=FULL,
    )
    if FULL:
        assert speedup >= SPEEDUP_FLOOR, (
            f"batch engine only {speedup:.1f}x faster than the per-source "
            f"loop (n={N_DIM}, {sh.n_vertices} sources, floor is "
            f"{SPEEDUP_FLOOR}x)"
        )
