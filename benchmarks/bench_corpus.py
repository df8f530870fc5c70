"""Corpus benchmarks: answer-cache hits versus scheduling from scratch.

The corpus exists so a served schedule costs an mmap slice instead of a
scheduler run.  This suite measures that gap end to end through the
service dispatch path:

* **corpus hit**: a long-lived :class:`ReproService` with ``--corpus``
  answers ``/v1/schedule`` from the packed file — no graph build, no
  scheduler, no validator.
* **cold compute**: the same request against a fresh service with
  cleared engine caches, the cost a corpus-less client pays.

Every corpus-served response is first byte-compared against the
computed response (the corpus-hit contract); the headline row asserts
the ``CORPUS_SPEEDUP_FLOOR`` at full size and lands in
``BENCH_results.json`` via the shared conftest.
"""

import asyncio
import json
import os
import time

from repro.corpus import build_corpus
from repro.engine.cache import clear_cache
from repro.service.app import ReproService

FULL = int(os.environ.get("REPRO_BENCH_N", "12")) >= 12
GRAPH_SPEC = "hypercube:4" if FULL else "hypercube:3"
SCHED = "greedy"
K = 2
SEED = 1
CORPUS_SPEEDUP_FLOOR = 10.0


def _bodies(n_vertices):
    return [
        json.dumps(
            {
                "graph": GRAPH_SPEC,
                "scheduler": SCHED,
                "source": source,
                "k": K,
                "seed": SEED,
            },
            sort_keys=True,
        ).encode()
        for source in range(n_vertices)
    ]


async def _dispatch_serial(service, bodies):
    return [
        await service.dispatch("POST", "/v1/schedule", body) for body in bodies
    ]


def _cold_request(body):
    """One schedule request the way a fresh corpus-less process pays it."""
    clear_cache()
    service = ReproService(workers=1)
    try:
        return asyncio.run(_dispatch_serial(service, [body]))[0]
    finally:
        service.close()


def test_corpus_hit_vs_cold_compute(print_once, bench_json, tmp_path):
    """Headline numbers: corpus-served vs computed, byte-identical."""
    corpus_path = tmp_path / "bench.corpus"
    t0 = time.perf_counter()
    n_frames = build_corpus(corpus_path, GRAPH_SPEC, SCHED, k=K, seed=SEED)
    t_build = time.perf_counter() - t0
    bodies = _bodies(n_frames)

    # cold: fresh service + cleared caches per request (a few are enough)
    cold_n = max(3, n_frames // 4)
    t0 = time.perf_counter()
    cold_responses = [_cold_request(body) for body in bodies[:cold_n]]
    t_cold = (time.perf_counter() - t0) / cold_n

    # corpus: one long-lived service answering from the mmap'd file
    service = ReproService(workers=1, corpus=corpus_path)
    try:
        asyncio.run(_dispatch_serial(service, bodies[:1]))  # prime the map
        t0 = time.perf_counter()
        hit_responses = asyncio.run(_dispatch_serial(service, bodies))
        t_hit = (time.perf_counter() - t0) / n_frames
        status, stats_body = asyncio.run(
            service.dispatch("GET", "/v1/stats", b"")
        )
        corpus_stats = json.loads(stats_body)["corpus"]
    finally:
        service.close()

    # the acceptance bar: corpus hits byte-identical to computed answers
    for (cold_status, cold_payload), (hit_status, hit_payload) in zip(
        cold_responses, hit_responses
    ):
        assert cold_status == hit_status == 200
        assert cold_payload == hit_payload, (
            "corpus-served response diverged from computed response"
        )
    assert corpus_stats["hits"] == n_frames + 1  # every request + the primer
    assert corpus_stats["misses"] == 0

    speedup = t_cold / t_hit
    row = {
        "graph": GRAPH_SPEC,
        "frames": n_frames,
        "build (s)": f"{t_build:.2f}",
        "cold (req/s)": f"{1 / t_cold:.1f}",
        "corpus (req/s)": f"{1 / t_hit:.1f}",
        "speedup": f"{speedup:.1f}x",
    }
    print_once("corpus-hit", [row], title="corpus-served schedule throughput")
    bench_json(
        "bench_corpus",
        "corpus_hit_vs_cold",
        graph=GRAPH_SPEC,
        scheduler=SCHED,
        frames=n_frames,
        build_seconds=round(t_build, 3),
        cold_rps=round(1 / t_cold, 2),
        corpus_rps=round(1 / t_hit, 2),
        speedup=round(speedup, 2),
        floor=CORPUS_SPEEDUP_FLOOR,
        full_size=FULL,
    )
    if FULL:
        assert speedup >= CORPUS_SPEEDUP_FLOOR, (
            f"corpus hits only {speedup:.1f}x faster than cold compute "
            f"(floor is {CORPUS_SPEEDUP_FLOOR}x)"
        )


def test_corpus_lookup_latency(benchmark, tmp_path):
    """pytest-benchmark row: one corpus-served dispatch on a warm service."""
    corpus_path = tmp_path / "lookup.corpus"
    build_corpus(corpus_path, "hypercube:3", SCHED, k=1, seed=0)
    body = json.dumps(
        {
            "graph": "hypercube:3",
            "scheduler": SCHED,
            "source": 5,
            "k": 1,
            "seed": 0,
        },
        sort_keys=True,
    ).encode()
    service = ReproService(workers=1, corpus=corpus_path)
    # One event loop for every dispatch: a per-call asyncio.run would
    # mostly time loop start-up and teardown, which cost several times
    # the corpus hit itself.
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(service.dispatch("POST", "/v1/schedule", body))  # prime

        def once():
            status, payload = loop.run_until_complete(
                service.dispatch("POST", "/v1/schedule", body)
            )
            assert status == 200
            return payload

        benchmark.pedantic(once, rounds=200, iterations=1)
    finally:
        loop.close()
        service.close()
