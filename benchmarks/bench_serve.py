"""Service-layer benchmarks: request throughput under cache reuse.

Drives :class:`repro.service.app.ReproService` in-process (no sockets —
the TCP layer is exercised by the e2e test; here we measure the layers
the daemon exists for):

* **cold vs warm**: a cold request pays graph construction plus engine
  cache builds in a fresh service with cleared process caches — the
  per-invocation cost a CLI user pays every time.  A warm request hits
  the spec-keyed graph cache and the per-graph engine caches.  The
  warm/cold per-request gap is the daemon's reason to exist; the floor
  (warm >= 3x cold) is asserted at full size.
* **slow requests, warm**: the two request kinds that cost the most
  per request — a full-source ``/v1/certificate`` for ``sparse:8:3``
  and a ``/v1/validate`` whose middle call is corrupted, on
  ``sparse:11:4`` — each timed best-of-N on a primed service, with the
  spread.  No floor: the row records the trajectory.

Every response in the harness is byte-compared against serial
``api.validate`` verdicts re-encoded through the same wire codec.  Rows
land in ``BENCH_results.json`` via the shared conftest.
"""

import asyncio
import hashlib
import json
import os
import statistics
import time

import repro.api as api
from repro.core.broadcast import broadcast_schedule
from repro.engine.cache import clear_cache
from repro.frame import ScheduleFrame, as_frame
from repro.io import frame_to_dict
from repro.service import protocol
from repro.service.app import ReproService

FULL = int(os.environ.get("REPRO_BENCH_N", "12")) >= 12
N_REQUESTS = 24 if FULL else 8
GRAPH_SPEC = "sparse:11:4"
K = 2
WARM_SPEEDUP_FLOOR = 3.0
SLOW_REPEATS = 7 if FULL else 3
CERT_SPEC = "sparse:8:3"
# the full-source sparse:8:3 golden pin of tests/test_io.py
CERT_SIZE = 638_760
CERT_SHA256 = "ad6865c92eda0d3ebe07541865bec94b605dd6d94806326793fdfd9cdd6b55e7"


def _validate_bodies(n):
    """n single-schedule validate request bodies on GRAPH_SPEC."""
    sh = api.construction(GRAPH_SPEC)
    bodies = []
    frames = []
    for source in range(n):
        frame = as_frame(broadcast_schedule(sh, source % sh.n_vertices))
        frames.append(frame)
        bodies.append(
            json.dumps(
                {
                    "graph": GRAPH_SPEC,
                    "k": K,
                    "schedules": [frame_to_dict(frame)],
                }
            ).encode()
        )
    return frames, bodies


async def _dispatch_serial(service, bodies):
    return [
        await service.dispatch("POST", "/v1/validate", body) for body in bodies
    ]


def _assert_serial_identical(frames, responses):
    """Every served verdict == serial api.validate, byte for byte."""
    graph = api.build_graph(GRAPH_SPEC)
    for frame, (status, payload) in zip(frames, responses):
        assert status == 200, payload
        served = json.loads(payload)["reports"]
        reference = api.validate(graph, frame, K)
        expected = protocol.ReportV1(
            ok=reference.ok,
            rounds=reference.rounds,
            max_call_length=reference.max_call_length,
            errors=tuple(reference.errors),
        ).to_wire()
        assert (
            protocol.encode_canonical(served[0])
            == protocol.encode_canonical(expected)
        ), f"served verdict diverged from serial api.validate: {served[0]}"


def _cold_request(body):
    """One request the way a fresh process would pay for it."""
    clear_cache()
    service = ReproService(workers=2)
    try:
        return asyncio.run(_dispatch_serial(service, [body]))[0]
    finally:
        service.close()


def test_serve_throughput_cold_warm(print_once, bench_json):
    """Headline numbers: requests/sec for cold and warm validates."""
    frames, bodies = _validate_bodies(N_REQUESTS)

    # cold: fresh service + cleared engine caches per request
    cold_n = max(3, N_REQUESTS // 4)
    t0 = time.perf_counter()
    cold_responses = [_cold_request(body) for body in bodies[:cold_n]]
    t_cold = (time.perf_counter() - t0) / cold_n

    # warm: one long-lived service, caches primed by the first request
    service = ReproService(workers=2)
    try:
        asyncio.run(_dispatch_serial(service, bodies[:1]))  # prime
        t0 = time.perf_counter()
        warm_responses = asyncio.run(_dispatch_serial(service, bodies))
        t_warm = (time.perf_counter() - t0) / N_REQUESTS
    finally:
        service.close()

    # the acceptance bar: every response byte-identical to serial verdicts
    _assert_serial_identical(frames[:cold_n], cold_responses)
    _assert_serial_identical(frames, warm_responses)

    warm_speedup = t_cold / t_warm
    row = {
        "graph": GRAPH_SPEC,
        "requests": N_REQUESTS,
        "cold (req/s)": f"{1 / t_cold:.1f}",
        "warm (req/s)": f"{1 / t_warm:.1f}",
        "warm speedup": f"{warm_speedup:.1f}x",
    }
    print_once("serve-throughput", [row], title="service request throughput")
    bench_json(
        "bench_serve",
        "validate_throughput",
        graph=GRAPH_SPEC,
        requests=N_REQUESTS,
        cold_rps=round(1 / t_cold, 2),
        warm_rps=round(1 / t_warm, 2),
        warm_speedup=round(warm_speedup, 2),
        floor=WARM_SPEEDUP_FLOOR,
        full_size=FULL,
    )
    if FULL:
        assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
            f"warm requests only {warm_speedup:.1f}x faster than cold "
            f"(floor is {WARM_SPEEDUP_FLOOR}x)"
        )


def test_serve_schedule_endpoint_warm(benchmark):
    """pytest-benchmark row: the schedule endpoint on a warm service."""
    service = ReproService(workers=2)
    body = json.dumps(
        {"graph": "hypercube:4", "scheduler": "greedy", "k": 2, "seed": 1}
    ).encode()
    try:
        asyncio.run(service.dispatch("POST", "/v1/schedule", body))  # prime

        def once():
            status, payload = asyncio.run(
                service.dispatch("POST", "/v1/schedule", body)
            )
            assert status == 200
            return payload

        benchmark.pedantic(once, rounds=5, iterations=1)
    finally:
        service.close()


def _corrupt_middle_call(frame):
    """The frame with its middle call's receiver moved to the next vertex."""
    n = api.build_graph(GRAPH_SPEC).n_vertices
    path = frame.path_verts.copy()
    j = int(frame.call_offsets[frame.n_calls // 2 + 1]) - 1
    path[j] = (path[j] + 1) % n
    return ScheduleFrame(
        source=frame.source,
        path_verts=path,
        call_offsets=frame.call_offsets,
        round_offsets=frame.round_offsets,
    )


async def _timed(service, path, body, repeats):
    """Dispatch seconds of ``repeats`` identical requests, in one event loop."""
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        status, _payload = await service.dispatch("POST", path, body)
        seconds.append(time.perf_counter() - t0)
        assert status == 200
    return seconds


def test_serve_slow_requests_warm(print_once, bench_json):
    """Certificate and corrupted-validate dispatch on a warm service."""
    sh = api.construction(GRAPH_SPEC)
    bad = _corrupt_middle_call(as_frame(broadcast_schedule(sh, 5)))
    reference = api.validate(GRAPH_SPEC, bad, sh.k, engine="reference")
    assert not reference.ok
    requests = {
        f"certificate {CERT_SPEC}, all sources": (
            "/v1/certificate",
            json.dumps({"construction": CERT_SPEC}).encode(),
        ),
        f"validate {GRAPH_SPEC}, middle call corrupted": (
            "/v1/validate",
            json.dumps(
                {"graph": GRAPH_SPEC, "k": sh.k, "schedules": [frame_to_dict(bad)]}
            ).encode(),
        ),
    }

    service = ReproService(workers=2)
    try:
        # checked first answers, which also prime the graph and engine caches
        (cert_path, cert_body), (validate_path, validate_body) = requests.values()
        status, cert = asyncio.run(service.dispatch("POST", cert_path, cert_body))
        assert status == 200
        assert len(cert) == CERT_SIZE
        assert hashlib.sha256(cert).hexdigest() == CERT_SHA256
        status, payload = asyncio.run(
            service.dispatch("POST", validate_path, validate_body)
        )
        assert status == 200
        assert json.loads(payload)["reports"] == [
            protocol.ReportV1(
                ok=reference.ok,
                rounds=reference.rounds,
                max_call_length=reference.max_call_length,
                errors=tuple(reference.errors),
            ).to_wire()
        ]
        timings = {
            request: asyncio.run(_timed(service, path, body, SLOW_REPEATS))
            for request, (path, body) in requests.items()
        }
    finally:
        service.close()

    rows = []
    for request, seconds in timings.items():
        ms = sorted(1e3 * t for t in seconds)
        rows.append(
            {
                "request (warm)": request,
                "best (ms)": f"{ms[0]:.2f}",
                "median (ms)": f"{statistics.median(ms):.2f}",
                "max (ms)": f"{ms[-1]:.2f}",
            }
        )
        bench_json(
            "bench_serve",
            "slow_request_" + request.split()[0],
            request=request,
            label="warm",
            repeats=len(ms),
            best_ms=round(ms[0], 3),
            median_ms=round(statistics.median(ms), 3),
            max_ms=round(ms[-1], 3),
            full_size=FULL,
        )
    print_once(
        "serve-slow-requests",
        rows,
        title=f"slow requests, warm, best of {SLOW_REPEATS}",
    )
