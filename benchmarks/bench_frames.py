"""Columnar-frame benchmarks: validating a corpus of frames.

Workload: a deterministic minimum-time line broadcast on ``path:257``
(the scheduler benchmarks' n ≥ 256 instance; 33 under CI smoke sizes) by
recursive halving — every informed vertex calls the midpoint of its
uninformed segment, so all ⌈log₂N⌉ rounds carry long multi-edge calls.
A 64-validation corpus shares one frozen frame by reference (how stacks,
registry results, and io actually hand schedules around), whose cached
layout and per-graph screen state make re-validation pure array reuse.
Verdicts are asserted identical before timing, through ``api.validate``
on the whole corpus, against 64 ``Schedule`` objects built from the
same rounds (each builds its own frame).
"""

import os

from repro import api
from repro.engine.cache import fast_validator_for
from repro.frame import ScheduleBuilder
from repro.graphs.trees import path_graph
from repro.types import Schedule

N = int(os.environ.get("REPRO_BENCH_N", "12"))
FRAME_N = 257 if N >= 12 else 33  # n >= 256 at full size
CORPUS = 64


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
    rounds = Schedule.from_frame(frame).rounds
    objects = [Schedule(source=frame.source, rounds=rounds) for _ in range(CORPUS)]
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


def test_bench_validate_frame_corpus(benchmark):
    graph, _objects, frames = _instance()
    fast_validator_for(graph)
    k = graph.n_vertices - 1
    reports = benchmark(
        lambda: api.validate(graph, frames, k, require_minimum_time=False)
    )
    assert all(r.ok for r in reports)
