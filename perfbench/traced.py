"""The traced run: per-layer metrics for one workload.

Separate from the timed runs.  For the serve workload it first drives
the daemon briefly (healthz ceiling, a closed-loop phase bracketed by
``/v1/stats`` reads, an open-loop phase) and then replays the same
seeded requests in-process through a ``ReproService``: once plain and
once with spans around the calls into each layer's public functions.
For the campaign it runs the CLI once and replays part of the grid
in-process, scenario by scenario, the same two ways.  The difference
between the plain and the traced replay is the tracing overhead.

Every run reports every per-layer metric; a layer that does no work on
a workload reports 0 there.
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib
import json
from pathlib import Path
from typing import Any, Iterator

import loadgen
import serve
from common import WORK_ROOT, mean, median, percentile, wall
from loadgen import Request
from tracing import Tracer

# name -> unit; BENCHMARK.json's per_layer list names the same metrics
PER_LAYER_UNITS = {
    "http.parse_us": "us",
    "http.render_us": "us",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.response_kb": "KB",
    "io.encode_us": "us",
    "io.decode_us": "us",
    "corpus.lookup_us": "us",
    "corpus.hit_ratio": "fraction",
    "corpus.build_s": "s",
    "graph.build_ms": "ms",
    "engine_cache.build_ms": "ms",
    "engine_cache.hit_ratio": "fraction",
    "schedule.greedy_ms": "ms",
    "schedule.found_ratio": "fraction",
    "validate.fast_ms": "ms",
    "validate.batch_ms": "ms",
    "validate.all_sources_ms": "ms",
    "service.server_ms.schedule": "ms",
    "service.server_ms.validate": "ms",
    "service.server_ms.certificate": "ms",
    "service.wait_ms": "ms",
    "coalesce.passes_per_request": "fraction",
    "service.errors": "count",
    "net.overhead_ms": "ms",
    "net.healthz_rps": "1/s",
    "loadgen.lag_p99_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "campaign.expand_ms": "ms",
    "scenario.scheme_ms": "ms",
    "scenario.greedy_ms": "ms",
    "scenario.faults_ms": "ms",
    "campaign.write_ms": "ms",
    "pool.startup_ms": "ms",
    "pool.efficiency": "fraction",
    "mem.rss_after_warmup_mb": "MB",
    "error_rate": "fraction",
    "trace.overhead": "fraction",
    "trace.coverage": "fraction",
}

REPLAY_REQUESTS = 400
REPLAY_ROUNDS = 2  # plain and traced replays, alternating; best of each
HEALTHZ_SHARE, CLOSED_SHARE, OPEN_SHARE = 0.1, 0.3, 0.3
SERVE_GRAPH_SPECS = ("sparse:10:3", "sparse:11:4", *serve.SCHEDULE_SPECS)


def finish(values: dict[str, float], attempted: int, failed: int, detail: dict) -> dict:
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    values["error_rate"] = failed / attempted if attempted else 0.0
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER_UNITS.items()
        },
        "detail": detail,
    }


def write_spans(tracer: Tracer, label: str) -> str:
    """Write the spans out once the run is over; returns the path."""
    out = WORK_ROOT / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{label}.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "request": s.request,
                    "attrs": s.attrs,
                }
                for s in tracer.spans
            ]
        )
    )
    return str(path.relative_to(WORK_ROOT.parent))


@contextlib.contextmanager
def maybe_span(tracer: Tracer | None, name: str) -> Iterator[None]:
    if tracer is None:
        yield
        return
    with tracer.span(name):
        yield


def _found(result: Any, span: Any) -> None:
    span.attrs["found"] = bool(getattr(result, "found", False))


def _validate_name(graph: Any, schedules: Any, k: int, engine: str = "auto", **_kw: Any) -> str:
    if engine == "batch" or (engine == "auto" and isinstance(schedules, list)):
        return "validate.batch"
    return "validate.reference" if engine == "reference" else "validate.fast"


def _schedule_name(graph: Any, scheduler: str = "greedy", **_kw: Any) -> str:
    return f"schedule.{scheduler}"


def _run_scheduler_name(name: str, *_a: Any, **_kw: Any) -> str:
    return f"schedule.{name}"


def cold_probes(tracer: Tracer, specs: tuple[str, ...]) -> None:
    """Cold graph builds and first engine-cache builds, one per spec."""
    from repro import api
    from repro.engine.cache import fast_validator_for, kernels_for

    for spec in specs:
        with tracer.span("graph.build"):
            graph = api.build_graph(spec)
        with tracer.span("engine_cache.build"):
            fast_validator_for(graph)
            kernels_for(graph)


def found_ratio(tracer: Tracer) -> float:
    spans = tracer.by_name("schedule")
    return mean([1.0 if s.attrs.get("found") else 0.0 for s in spans]) if spans else 0.0


def span_ms(tracer: Tracer, name: str) -> float:
    return tracer.mean_duration(name) * 1e3


# -- serve -----------------------------------------------------------------------


def patch_serve_layers(tracer: Tracer, service: Any) -> None:
    from repro import api, io
    from repro.service import protocol

    for attr in ("decode_schedule_request", "decode_validate_request", "decode_certificate_request"):
        tracer.patch(protocol, attr, "protocol.decode")
    for attr in ("encode_canonical", "encode_certificate_payload"):
        tracer.patch(protocol, attr, "protocol.encode")
    tracer.patch(io, "frame_to_dict", "io.encode")
    tracer.patch(io, "frame_from_dict", "io.decode")
    tracer.patch(api, "schedule", _schedule_name, annotate=_found)
    tracer.patch(api, "validate", _validate_name)
    tracer.patch(api, "certificate", "api.certificate")
    if service._corpus is not None:
        tracer.patch(service._corpus, "lookup", "corpus.lookup")
        tracer.patch(service._corpus, "frame_at", "corpus.frame_at")


async def replay_serve(
    service: Any, requests: list[Request], check: Any, tracer: Tracer | None
) -> tuple[float, int, list[int]]:
    """Requests one at a time through parse -> dispatch -> render."""
    from repro.service.http import read_request, render_response

    failed = 0
    sizes: list[int] = []
    t0 = wall()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        with maybe_span(tracer, "service.request"):
            reader = asyncio.StreamReader()
            reader.feed_data(req.raw)
            reader.feed_eof()
            with maybe_span(tracer, "http.parse"):
                parsed = await read_request(reader)
            if parsed is None:
                raise RuntimeError("replayed request did not parse")
            with maybe_span(tracer, "service.dispatch"):
                status, payload = await service.dispatch(parsed.method, parsed.path, parsed.body)
            with maybe_span(tracer, "http.render"):
                render_response(status, payload)
        sizes.append(len(payload))
        if not check(req, status, payload):
            failed += 1
    return wall() - t0, failed, sizes


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    total_s = total_n = 0.0
    errors = 0
    for ep in ("schedule", "validate", "certificate"):
        n = after["endpoints"][ep]["count"] - before["endpoints"][ep]["count"]
        s = after["endpoints"][ep]["seconds"] - before["endpoints"][ep]["seconds"]
        errors += after["endpoints"][ep]["errors"] - before["endpoints"][ep]["errors"]
        out[f"service.server_ms.{ep}"] = s / n * 1e3 if n else 0.0
        total_s += s
        total_n += n
    out["server_mean_ms"] = total_s / total_n * 1e3 if total_n else 0.0
    out["service.errors"] = errors

    def ratio(section: str, hit: str, miss: str) -> float:
        h = after[section][hit] - before[section][hit]
        m = after[section][miss] - before[section][miss]
        return h / (h + m) if h + m else 0.0

    out["corpus.hit_ratio"] = ratio("corpus", "hits", "misses")
    out["engine_cache.hit_ratio"] = ratio("engine_cache", "hits", "misses")
    passes = after["coalescer"]["passes"] - before["coalescer"]["passes"]
    reqs = after["coalescer"]["requests"] - before["coalescer"]["requests"]
    out["coalesce.passes_per_request"] = passes / reqs if reqs else 0.0
    return out


async def _stats(host: str, port: int) -> dict:
    status, body = await loadgen.get(host, port, "/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return json.loads(body)


async def run_serve(seed: int, seconds: float, work: Path) -> dict:
    from repro.service import ReproService

    values: dict[str, float] = {}
    inputs = serve.make_inputs(seed)
    setup = await serve.set_up(work, inputs)
    daemon = setup.daemon
    values["corpus.build_s"] = setup.corpus_seconds
    attempted, failed = setup.warm.attempted, setup.warm.failed
    try:
        serve.make_expected(inputs)
        values["mem.rss_after_warmup_mb"] = daemon.rss_mb("VmRSS")
        host, port = daemon.host, daemon.port
        health = await loadgen.closed_loop(
            host,
            port,
            [Request(loadgen.render("GET", "/v1/healthz"), "healthz", -1)],
            serve.status_ok,
            seconds=seconds * HEALTHZ_SHARE,
            connections=serve.CONNECTIONS,
        )
        values["net.healthz_rps"] = health.throughput
        before = await _stats(host, port)
        closed = await loadgen.closed_loop(
            host,
            port,
            inputs.sequence,
            inputs.check,
            seconds=seconds * CLOSED_SHARE,
            connections=serve.CONNECTIONS,
        )
        after = await _stats(host, port)
        opened = await loadgen.open_loop(
            host,
            port,
            inputs.sequence,
            inputs.check,
            seconds=seconds * OPEN_SHARE,
            rate=serve.OPEN_RATE,
            connections=serve.CONNECTIONS,
            seed=seed,
        )
    finally:
        daemon.stop()
    for phase in (health, closed, opened):
        attempted += phase.attempted
        failed += phase.failed
    delta = _stats_delta(before, after)
    server_mean_ms = delta.pop("server_mean_ms")
    values.update(delta)
    values["net.overhead_ms"] = mean(closed.latencies) * 1e3 - server_mean_ms
    values["loadgen.lag_p99_ms"] = percentile([x * 1e3 for x in opened.lags], 99)
    open_ms = [x * 1e3 for x in opened.latencies]
    values["latency_p90_ms"] = percentile(open_ms, 90)
    values["latency_p99_ms"] = percentile(open_ms, 99)

    # in-process replay: once to warm, then plain and traced in turn
    service = ReproService(workers=2, corpus=work / "bench.corpus")
    requests = inputs.sequence[:REPLAY_REQUESTS]
    plain: list[float] = []
    traced: list[float] = []
    try:
        for round_ in range(1 + 2 * REPLAY_ROUNDS):
            tracer = Tracer()
            traced_pass = round_ > 0 and round_ % 2 == 0
            if traced_pass:
                patch_serve_layers(tracer, service)
            try:
                replay_wall, replay_failed, sizes = await replay_serve(
                    service, requests, inputs.check, tracer if traced_pass else None
                )
            finally:
                tracer.restore()
            if round_:
                (traced if traced_pass else plain).append(replay_wall)
            attempted += len(requests)
            failed += replay_failed
        values["trace.overhead"] = min(traced) / min(plain) - 1.0
        values["trace.coverage"] = tracer.coverage(traced[-1])
        values["protocol.response_kb"] = mean(sizes) / 1024.0
        service_layers(tracer, values, server_mean_ms)
        probes = Tracer()
        cold_probes(probes, SERVE_GRAPH_SPECS)
        validate_probes(probes, inputs, service)
    finally:
        service.close()
    values["graph.build_ms"] = span_ms(probes, "graph.build")
    values["engine_cache.build_ms"] = span_ms(probes, "engine_cache.build")
    values["validate.fast_ms"] = span_ms(probes, "validate.fast")
    values["validate.batch_ms"] = span_ms(probes, "validate.batch")
    return finish(
        values,
        attempted,
        failed,
        {
            "replay": {
                "requests": len(requests),
                "plain_s": plain,
                "traced_s": traced,
                "spans": len(tracer.spans),
            },
            "self_ms": tracer.layer_self_ms(),
            "spans_file": write_spans(tracer, f"serve-{seed}"),
            "open_loop_samples": len(opened.latencies),
        },
    )


def service_layers(tracer: Tracer, values: dict[str, float], server_mean_ms: float) -> None:
    """Per-layer means from the traced replay's spans."""
    values["http.parse_us"] = tracer.mean_duration("http.parse") * 1e6
    values["http.render_us"] = tracer.mean_duration("http.render") * 1e6
    values["protocol.decode_us"] = tracer.mean_duration("protocol.decode") * 1e6
    values["protocol.encode_us"] = tracer.mean_duration("protocol.encode") * 1e6
    values["io.encode_us"] = tracer.mean_duration("io.encode") * 1e6
    values["io.decode_us"] = tracer.mean_duration("io.decode") * 1e6
    hits = tracer.count("corpus.frame_at")
    if hits:
        lookup = tracer.total_duration("corpus.lookup") + tracer.total_duration("corpus.frame_at")
        values["corpus.lookup_us"] = lookup / hits * 1e6
    values["schedule.greedy_ms"] = span_ms(tracer, "schedule.greedy")
    values["schedule.found_ratio"] = found_ratio(tracer)
    # time inside the program's layers per request, outside the HTTP
    # framing and the dispatcher's own waiting
    self_times = tracer.self_times()
    per_request: dict[int, float] = {}
    outside = ("service.request", "service.dispatch", "http.parse", "http.render")
    for span in tracer.spans:
        if span.request is None:
            continue
        per_request.setdefault(span.request, 0.0)
        if span.name not in outside:
            per_request[span.request] += self_times[span.sid]
    layer_ms = mean(list(per_request.values())) * 1e3
    values["service.wait_ms"] = server_mean_ms - layer_ms


def validate_probes(tracer: Tracer, inputs: serve.Inputs, service: Any) -> None:
    """``api.validate`` fast and batch on the frames the validates carry."""
    from repro import api

    for key in sorted(inputs.validate_frames):
        spec, k, frame = inputs.validate_frames[key]
        graph = service._graph_for(spec)
        api.validate(graph, frame, k, engine="fast")  # warm the engine cache
        with tracer.span("validate.fast"):
            api.validate(graph, frame, k, engine="fast")
        with tracer.span("validate.batch"):
            api.validate(graph, [frame], k, engine="batch")


# -- campaign ----------------------------------------------------------------------


REPLAY_SOURCES = "sample:4"  # the replayed half of the grid


def scenario_class(sc: Any) -> str:
    if sc.condition.startswith("edge-faults"):
        return "scenario.faults"
    return "scenario.scheme" if sc.scheduler == "scheme" else "scenario.greedy"


def patch_campaign_layers(tracer: Tracer) -> None:
    from repro import api
    from repro.engine import batch
    from repro.graphs import specs
    from repro.model import faults
    from repro.schedulers import registry

    # repro.core re-exports a function named ``construct``; take the module
    construct = importlib.import_module("repro.core.construct")
    tracer.patch(specs, "graph_from_spec", "graph.build")
    tracer.patch(construct, "construct_base", "graph.build")
    tracer.patch(batch, "validate_all_sources", "validate.all_sources")
    tracer.patch(registry, "run_scheduler", _run_scheduler_name, annotate=_found)
    tracer.patch(api, "validate", _validate_name)
    tracer.patch(faults, "faulted_graph", "faults.sample")
    tracer.patch(faults, "attempt_broadcast_with_failures", "faults.repair")


def replay_campaign(scenarios: list, tracer: Tracer | None) -> float:
    """The scenarios in-process, one after another, from cold caches."""
    from repro.analysis.scenarios import clear_scenario_caches, run_scenario
    from repro.engine.cache import clear_cache

    clear_scenario_caches()
    clear_cache()
    t0 = wall()
    for i, sc in enumerate(scenarios):
        if tracer is not None:
            tracer.request = i
        with maybe_span(tracer, scenario_class(sc)):
            run_scenario(sc)
    return wall() - t0


def run_campaign(seed: int, seconds: float, work: Path) -> dict:
    import campaign
    from repro.analysis.campaigns import (
        expand_campaign,
        load_campaign,
        merge_chunks,
        read_chunk_rows,
        write_chunk,
    )
    from repro.analysis.scenarios import SCHEME_SCHEDULER, warm_scenario_caches
    from repro.engine.cache import cache_info
    from repro.util.pool import WorkerPool

    values: dict[str, float] = {}
    grid = campaign.grid_for(seed)
    grid_path = campaign.write_grid(work, grid)
    spec = load_campaign(str(grid_path))

    expand = []
    for _ in range(5):
        t0 = wall()
        scenarios = expand_campaign(spec)
        expand.append(wall() - t0)
    values["campaign.expand_ms"] = median(expand) * 1e3

    cli = campaign.CliRun(grid_path, work / "cli", work)
    attempted = len(scenarios)
    failed = 0 if cli.sha256 == campaign.expected_digest(seed) else attempted
    per_scenario = [s["seconds"] for s in cli.manifest.get("scenarios", [])]
    values["pool.efficiency"] = sum(per_scenario) / (campaign.JOBS * cli.seconds)
    if per_scenario:
        scenario_ms = [s * 1e3 for s in per_scenario]
        values["latency_p90_ms"] = percentile(scenario_ms, 90)
        values["latency_p99_ms"] = percentile(scenario_ms, 99)

    pairs = tuple(sorted({(sc.graph, sc.scheduler == SCHEME_SCHEDULER) for sc in scenarios}))
    startup = []
    for _ in range(3):
        t0 = wall()
        with WorkerPool(campaign.JOBS, initializer=warm_scenario_caches, initargs=(pairs,)) as pool:
            pool.map(abs, [1, 2])
        startup.append(wall() - t0)
    values["pool.startup_ms"] = median(startup) * 1e3

    if cli.returncode == 0:
        rows = read_chunk_rows(cli.out_dir / f"{spec.name}.jsonl")
        t0 = wall()
        write_chunk(work / "rewrite.jsonl", rows)
        merge_chunks(spec, cli.out_dir)
        values["campaign.write_ms"] = (wall() - t0) * 1e3

    subset = [sc for sc in scenarios if sc.sources == REPLAY_SOURCES]
    replay_campaign(subset, None)  # imports and first-touch costs
    plain: list[float] = []
    traced: list[float] = []
    for _ in range(REPLAY_ROUNDS):
        plain.append(replay_campaign(subset, None))
        tracer = Tracer()
        patch_campaign_layers(tracer)
        try:
            traced.append(replay_campaign(subset, tracer))
        finally:
            tracer.restore()
    info = cache_info()  # counters restart with each replay's cold caches
    hits, misses = info["hits"], info["misses"]
    values["engine_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    plain_wall, traced_wall = min(plain), min(traced)
    values["trace.overhead"] = traced_wall / plain_wall - 1.0
    values["trace.coverage"] = tracer.coverage(traced[-1])
    for name in ("scenario.scheme", "scenario.greedy", "scenario.faults"):
        values[f"{name}_ms"] = span_ms(tracer, name)
    for name in ("graph.build", "validate.all_sources", "validate.fast", "validate.batch", "schedule.greedy"):
        values[f"{name}_ms"] = span_ms(tracer, name)
    values["schedule.found_ratio"] = found_ratio(tracer)
    probes = Tracer()
    cold_probes(probes, tuple(spec.graphs))
    values["engine_cache.build_ms"] = span_ms(probes, "engine_cache.build")
    return finish(
        values,
        attempted,
        failed,
        {
            "replay": {
                "scenarios": len(subset),
                "plain_s": plain,
                "traced_s": traced,
                "spans": len(tracer.spans),
            },
            "cli_s": cli.seconds,
            "self_ms": tracer.layer_self_ms(),
            "spans_file": write_spans(tracer, f"campaign-{seed}"),
            "expand_ms": [x * 1e3 for x in expand],
            "startup_ms": [x * 1e3 for x in startup],
        },
    )
