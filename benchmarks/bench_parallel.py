"""Parallel-execution benchmarks: worker scaling + zero-copy SHM frames.

Two headline measurements, both merged into ``BENCH_results.json``:

* **Cold campaign worker scaling** — the ``fault-robustness`` built-in
  executed end to end with cold caches at 1/2/4 workers.  The floor
  (2 workers ≥ 1.6× 1 worker) is asserted only at full size on a
  multi-core box: worker scaling cannot be measured on one core, so the
  row records ``cpu_count`` and the assertion gates on it.
* **Frames at n = 1025** — one frozen halving-line-broadcast frame
  exported to shared planes, reattached, and revalidated 64× by the fast
  validator, against the PR-5 baseline of 64 defensive object copies,
  each re-flattened per validation.  ≥ 3× asserted at full size.

Verdicts are asserted identical before any timing.
"""

import os
import time

from bench_frames import _halving_line_broadcast

from repro.analysis.campaigns import BUILTIN_CAMPAIGNS, CampaignRunner
from repro.analysis.scenarios import clear_scenario_caches
from repro.engine.cache import clear_cache, fast_validator_for
from repro.engine.shm import PlaneRegistry, detach_all
from repro.graphs.trees import path_graph
from repro.types import Schedule

FULL = int(os.environ.get("REPRO_BENCH_N", "12")) >= 12
FRAME_N = 1025 if FULL else 65
CORPUS = 64
CPUS = os.cpu_count() or 1
WORKERS = (1, 2, 4) if FULL else (1, 2)
WORKER_FLOOR = 1.6
SHM_FRAMES_FLOOR = 3.0
SPEC = BUILTIN_CAMPAIGNS["fault-robustness"]


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


# -- frames at n = 1025 -----------------------------------------------------


def _instance():
    """(graph, object copies, frame): the PR-5 baseline vs the frame."""
    graph = path_graph(FRAME_N)
    frame = _halving_line_broadcast(FRAME_N).build()
    rounds = list(Schedule.from_frame(frame).rounds)
    objects = [
        Schedule(source=frame.source, rounds=list(rounds)) for _ in range(CORPUS)
    ]
    return graph, objects, frame


def _report_tuple(rep):
    return (rep.ok, rep.errors, rep.rounds, rep.informed_per_round, rep.max_call_length)


def test_shm_frames_verdicts_identical():
    """SHM-attached and local validation must agree exactly before timing."""
    graph, objects, frame = _instance()
    k = graph.n_vertices - 1
    try:
        with PlaneRegistry() as reg:
            shared_graph = reg.export_graph(graph).attach()
            shared_frame = reg.export_frame(frame).attach()
            local = [
                fast_validator_for(graph).validate(o, k, require_minimum_time=False)
                for o in objects
            ]
            shared = [
                fast_validator_for(shared_graph).validate(
                    shared_frame, k, require_minimum_time=False
                )
                for _ in range(CORPUS)
            ]
            for a, b in zip(local, shared):
                assert a.ok and b.ok
                assert _report_tuple(a) == _report_tuple(b)
            del shared_graph, shared_frame
            clear_cache()  # the engine cache pins attached graphs
    finally:
        detach_all()


def test_shm_frames_floor(print_once, bench_json):
    """Acceptance: ≥3× for the SHM frame path over the PR-5 per-object
    baseline at n = 1025 (asserted at full size)."""
    graph, objects, frame = _instance()
    k = graph.n_vertices - 1
    try:
        with PlaneRegistry() as reg:
            shared_graph = reg.export_graph(graph).attach()
            shared_frame = reg.export_frame(frame).attach()
            validator = fast_validator_for(graph)
            shared_validator = fast_validator_for(shared_graph)

            def sweep_objects():
                for o in objects:
                    assert validator.validate(o, k, require_minimum_time=False).ok

            def sweep_shm_frames():
                for _ in range(CORPUS):
                    assert shared_validator.validate(
                        shared_frame, k, require_minimum_time=False
                    ).ok

            t_object = best_of(sweep_objects)
            t_frames = best_of(sweep_shm_frames)

            del shared_graph, shared_frame, shared_validator
            clear_cache()
    finally:
        detach_all()

    speedup = t_object / t_frames
    row = {
        "workload": f"validate {CORPUS}x path:{FRAME_N} halving broadcast",
        "object_s": f"{t_object:.4f}",
        "shm_s": f"{t_frames:.4f}",
        "speedup": f"{speedup:.1f}x",
    }
    print_once("shm-frames", [row], title="SHM frames vs object baseline")
    bench_json(
        "bench_parallel",
        "shm_frames",
        workload=row["workload"],
        n_vertices=FRAME_N,
        corpus=CORPUS,
        baseline_seconds=round(t_object, 6),
        shm_seconds=round(t_frames, 6),
        speedup=round(speedup, 2),
        floor=SHM_FRAMES_FLOOR,
        full_size=FULL,
    )
    if FULL:
        assert speedup >= SHM_FRAMES_FLOOR, (
            f"SHM frame path only {speedup:.1f}x over the object baseline "
            f"(n={FRAME_N}, floor {SHM_FRAMES_FLOOR}x)"
        )


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
