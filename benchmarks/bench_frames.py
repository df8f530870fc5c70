"""Columnar-frame benchmarks: frame-native vs object-schedule validation.

The redesign's headline claim: validating through a
:class:`~repro.frame.ScheduleFrame` skips the per-call flattening the
object path pays on every validation (one Python walk over all ``Call``
objects), so repeated validation of the same schedule — the shape of
every sweep, campaign, and certificate check — runs at array speed.

Workload: a deterministic minimum-time line broadcast on ``path:257``
(the scheduler benchmarks' n ≥ 256 instance; 33 under CI smoke sizes) by
recursive halving — every informed vertex calls the midpoint of its
uninformed segment, so all ⌈log₂N⌉ rounds carry long multi-edge calls.
A 64-validation corpus of it runs through the fast validator: the
object side holds 64 defensive ``Schedule`` copies (mutable schedules
cannot be safely shared or memoized, so each validation re-flattens its
``Call`` objects and re-derives every array — the pre-redesign cost),
the frame side shares one frozen frame by reference (how stacks,
registry results, and io actually hand schedules around), whose cached
layout and per-graph screen state make re-validation pure array reuse.
Verdicts are asserted identical before timing — through ``api.validate``
on the whole corpus as well, whose list path the two benchmark fixtures
record for comparison; the ≥3× acceptance floor is asserted at full size
and the measured row lands in ``BENCH_results.json`` via the shared
conftest.
"""

import os
import time

from repro import api
from repro.engine.cache import fast_validator_for
from repro.frame import ScheduleBuilder
from repro.graphs.trees import path_graph
from repro.types import Schedule

N = int(os.environ.get("REPRO_BENCH_N", "12"))
FRAME_N = 257 if N >= 12 else 33  # n >= 256 at full size
CORPUS = 64
SPEEDUP_FLOOR = 3.0


def _halving_line_broadcast(n: int) -> ScheduleBuilder:
    """Minimum-time unbounded-k broadcast on the n-vertex path from 0.

    Each round splits every segment ``[lo, hi]`` (informed at ``lo``) by
    calling its midpoint; segments are disjoint ranges, so the calls are
    edge-disjoint by construction and the schedule is valid under
    k = N − 1 in exactly ⌈log₂ n⌉ rounds.
    """
    builder = ScheduleBuilder(0)
    segments = [(0, n - 1)]  # informed vertex is each segment's lo
    while any(hi > lo for lo, hi in segments):
        paths = []
        nxt = []
        for lo, hi in segments:
            if hi == lo:
                nxt.append((lo, hi))
                continue
            mid = lo + (hi - lo + 1) // 2
            paths.append(tuple(range(lo, mid + 1)))
            nxt.append((lo, mid - 1))
            nxt.append((mid, hi))
        builder.add_round(paths)
        segments = nxt
    return builder


def _instance():
    graph = path_graph(FRAME_N)
    frame = _halving_line_broadcast(FRAME_N).build()
    # Frame-less copies: the historical object path, re-flattened per use.
    rounds = list(Schedule.from_frame(frame).rounds)
    objects = [
        Schedule(source=frame.source, rounds=list(rounds)) for _ in range(CORPUS)
    ]
    frames = [frame] * CORPUS
    return graph, objects, frames


def test_frame_object_verdicts_identical():
    graph, objects, frames = _instance()
    k = graph.n_vertices - 1
    obj_reports = api.validate(graph, objects, k, require_minimum_time=False)
    frame_reports = api.validate(graph, frames, k, require_minimum_time=False)
    assert all(r.ok for r in obj_reports) and all(r.ok for r in frame_reports)
    for obj, frm in zip(obj_reports, frame_reports):
        assert obj.errors == frm.errors
        assert obj.informed_per_round == frm.informed_per_round
        assert obj.max_call_length == frm.max_call_length
    # the single-schedule fast validator agrees in both representations
    single = fast_validator_for(graph)
    assert single.validate(objects[0], k, require_minimum_time=False).ok
    assert single.validate(frames[0], k, require_minimum_time=False).ok


def test_bench_validate_object_corpus(benchmark):
    graph, objects, _frames = _instance()
    fast_validator_for(graph)  # warm the per-graph cache for both sides
    k = graph.n_vertices - 1
    reports = benchmark(
        lambda: api.validate(graph, objects, k, require_minimum_time=False)
    )
    assert all(r.ok for r in reports)


def test_bench_validate_frame_corpus(benchmark):
    graph, _objects, frames = _instance()
    fast_validator_for(graph)
    k = graph.n_vertices - 1
    reports = benchmark(
        lambda: api.validate(graph, frames, k, require_minimum_time=False)
    )
    assert all(r.ok for r in reports)


def test_frame_speedup_floor(print_once, bench_json):
    """Acceptance: ≥3× for frame over object validation throughput with
    the fast engine on the n = 257 path instance (asserted at full size).

    The object side pays the historical per-validation cost: every call
    walks its ``Call`` objects into arrays before the checks run.  The
    frame side starts from the columnar arrays (layout cached on the
    frozen frame) and stays vectorized end to end."""
    graph, objects, frames = _instance()
    validator = fast_validator_for(graph)
    k = graph.n_vertices - 1

    def best_of(fn, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    def sweep(corpus):
        assert all(
            validator.validate(s, k, require_minimum_time=False).ok for s in corpus
        )

    t_object = best_of(lambda: sweep(objects))
    t_frame = best_of(lambda: sweep(frames))
    speedup = t_object / t_frame
    row = {
        "workload": f"validate {CORPUS} path:{FRAME_N} schedules (engine=fast)",
        "object_s": f"{t_object:.4f}",
        "frame_s": f"{t_frame:.4f}",
        "frame_schedules_per_s": f"{CORPUS / t_frame:.0f}",
        "speedup": f"{speedup:.1f}x",
    }
    print_once("frame-speedup", [row], title="frame vs object validation throughput")
    bench_json(
        "bench_frames",
        "frame_vs_object_validation",
        workload=row["workload"],
        n_vertices=graph.n_vertices,
        corpus=CORPUS,
        object_seconds=round(t_object, 6),
        frame_seconds=round(t_frame, 6),
        speedup=round(speedup, 2),
        floor=SPEEDUP_FLOOR,
        full_size=FRAME_N >= 256,
    )
    if FRAME_N >= 256:
        assert speedup >= SPEEDUP_FLOOR, (
            f"frame validation only {speedup:.1f}x faster than the object "
            f"path (n={FRAME_N}, floor is {SPEEDUP_FLOOR}x)"
        )
