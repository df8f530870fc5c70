"""The ``serve`` workload: a ``repro serve --corpus`` daemon over loopback.

The load comes from this one process.  Inputs come from the workload
seed; expected answers are computed in-process after set-up (and
outside ``setup_s``), and every answer the daemon gives is checked
against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import loadgen
from common import BenchError, Daemon, median, percentile, wall
from loadgen import Request

CONNECTIONS = 2
SETUP_REPEATS = 3
ROUNDS = 3
CLOSED_SHARE = 0.4  # of the run's seconds; the open loop gets the rest
CLOSED_WINDOW_S = 1.0
OPEN_WINDOW_S = 2.0  # ~120 due requests each
MIN_WINDOW_SAMPLES = 100

# Open-loop Poisson rate (requests/s), frozen near half the closed-loop
# throughput measured in the slow phases of a 2-CPU x86-64 sandbox when
# the benchmark was defined.  Changing it changes the benchmark.
OPEN_RATE = 60.0

# The corpus: (graph spec, scheduler, k, seed) groups
CORPUS_GROUPS = (
    ("sparse:10:3", "scheme", None, 0),  # 1024 frames, ~13 KB answers
    ("hypercube:5", "greedy", 2, 1),  # 32 frames, ~1 KB answers
)
VALIDATE_SPECS = ("sparse:10:3", "sparse:11:4")
VALIDATE_PER_SPEC = 24
CORRUPT_EVERY = 8  # one validate payload in eight is corrupted
# greedy requests on hypercube:5 use other seeds than the corpus group,
# so they miss the corpus and run the scheduler
SCHEDULE_SPECS = ("hypercube:4", "hypercube:5", "knodel:3:16")
SCHEDULE_PER_SPEC = 8
CERT_SPEC = "sparse:6:3"
MIX = (("validate", 28), ("hit", 13), ("schedule", 8), ("certificate", 1))  # per 50
SEQUENCE_LENGTH = 40000


def canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# -- inputs ----------------------------------------------------------------------


@dataclass
class Inputs:
    """The requests, the warm-up pass, and the expected answers."""

    distinct: list[Request]  # every distinct request, index == Request.key
    sequence: list[Request]  # the seeded timed order
    validate_frames: dict[int, Any]  # key -> (spec, k, frame)
    first_hit: int  # corpus hits are keys first_hit.. in corpus order
    expected: dict[int, Any] = field(default_factory=dict)

    @property
    def warmup(self) -> list[Request]:
        """Every distinct request once: the corpus frames' first answers
        (page faults on the mapping, the reader's frame cache) and the
        graph and engine caches are paid here, not in the timed phases."""
        return self.distinct

    def check(self, req: Request, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        want = self.expected[req.key]
        if req.kind == "validate":
            got = json.loads(body)
            got.pop("coalesced", None)
            return bool(got == want)
        return sha(body) == want


def corpus_frames() -> list[tuple[tuple[str, str, int | None, int], Any]]:
    """The corpus content, in corpus order, from the program's public API:
    scheme frames from the all-sources engine, greedy from the scheduler."""
    from repro import api
    from repro.engine.batch import all_sources_schedules

    out: list[tuple[tuple[str, str, int | None, int], Any]] = []
    for group in CORPUS_GROUPS:
        graph, scheduler, k, kseed = group
        if scheduler == "scheme":
            rows = sorted(
                (int(stack.sources[i]), stack, i)
                for stack in all_sources_schedules(api.construction(graph))
                for i in range(stack.n_schedules)
            )
            out.extend((group, stack.to_frame(i)) for _s, stack, i in rows)
            continue
        g = api.build_graph(graph)
        for source in range(g.n_vertices):
            result = api.schedule(g, scheduler, source=source, k=k, seed=kseed)
            if not result.found or result.valid is not True:
                raise BenchError(f"{graph} {scheduler} found no schedule for {source}")
            out.append((group, result.frame))
    return out


def build_corpus(path: Path) -> None:
    from repro.corpus import CorpusWriter

    with CorpusWriter(path) as writer:
        for (graph, scheduler, k, kseed), frame in corpus_frames():
            writer.add_frame(graph, scheduler, frame, k=k, seed=kseed)
    # durable before the daemon starts, so no background writeback runs
    # into the timed phases
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _corrupt(frame: Any, rng: random.Random, n_vertices: int) -> Any:
    """A well-formed frame whose middle call ends at another vertex.

    Always the same call, so every seed corrupts the same round and the
    validators' cost on a corrupted payload does not depend on the seed.
    """
    import numpy as np

    from repro.frame import ScheduleFrame

    path = np.array(frame.path_verts, dtype=np.int64)
    j = int(frame.call_offsets[frame.n_calls // 2 + 1]) - 1
    path[j] = (int(path[j]) + 1 + rng.randrange(n_vertices - 1)) % n_vertices
    return ScheduleFrame(
        source=frame.source,
        path_verts=path,
        call_offsets=np.array(frame.call_offsets, dtype=np.int64),
        round_offsets=np.array(frame.round_offsets, dtype=np.int64),
    )


def make_inputs(seed: int) -> Inputs:
    """Validate (one schedule each, some corrupted), corpus-hit schedule,
    greedy schedule and certificate requests in a stratified seeded order."""
    from repro import api
    from repro.engine.batch import all_sources_schedules
    from repro.io import frame_to_dict

    rng = random.Random(seed)
    distinct: list[Request] = []
    frames: dict[int, Any] = {}
    by_kind: dict[str, list[Request]] = {kind: [] for kind, _n in MIX}

    def add(kind: str, path: str, payload: dict) -> int:
        req = Request(loadgen.render("POST", path, canonical(payload)), kind, len(distinct))
        distinct.append(req)
        by_kind[kind].append(req)
        return req.key

    for spec in VALIDATE_SPECS:
        sh = api.construction(spec)
        n = sh.graph.n_vertices
        sources = sorted(rng.sample(range(n), VALIDATE_PER_SPEC))
        stacks = all_sources_schedules(sh, sources)
        by_source = {
            int(st.sources[i]): st.to_frame(i) for st in stacks for i in range(st.n_schedules)
        }
        for j, source in enumerate(sources):
            frame = by_source[source]
            if j % CORRUPT_EVERY == 0:
                frame = _corrupt(frame, rng, n)
            key = add(
                "validate",
                "/v1/validate",
                {"graph": spec, "k": sh.k, "schedules": [frame_to_dict(frame)]},
            )
            frames[key] = (spec, sh.k, frame)
    first_hit = len(distinct)
    for graph, scheduler, k, kseed in CORPUS_GROUPS:
        for source in range(api.build_graph(graph).n_vertices):
            payload = {"graph": graph, "scheduler": scheduler, "source": source, "seed": kseed}
            if k is not None:
                payload["k"] = k
            add("hit", "/v1/schedule", payload)
    for spec in SCHEDULE_SPECS:
        n = api.build_graph(spec).n_vertices
        for _ in range(SCHEDULE_PER_SPEC):
            payload = {
                "graph": spec,
                "scheduler": "greedy",
                "source": rng.randrange(n),
                "k": 2,
                "seed": 2 + rng.randrange(1000),
            }
            add("schedule", "/v1/schedule", payload)
    add("certificate", "/v1/certificate", {"construction": CERT_SPEC})

    # Stratified order: every block of 50 holds the mix exactly, each kind
    # cycling through its whole pool, so the seed moves the order of the
    # requests but not the share of each kind or of corrupted schedules.
    pools = {kind: list(reqs) for kind, reqs in by_kind.items()}
    cursor = dict.fromkeys(pools, 0)
    sequence: list[Request] = []
    while len(sequence) < SEQUENCE_LENGTH:
        block: list[Request] = []
        for kind, count in MIX:
            for _ in range(count):
                if cursor[kind] % len(pools[kind]) == 0:
                    rng.shuffle(pools[kind])
                block.append(pools[kind][cursor[kind] % len(pools[kind])])
                cursor[kind] += 1
        rng.shuffle(block)
        sequence.extend(block)
    return Inputs(distinct, sequence, frames, first_hit)


def _schedule_response(graph: str, result: Any) -> bytes:
    """The bytes the daemon computes for a schedule request."""
    from repro.io import frame_to_dict
    from repro.service import protocol

    frame = result.frame
    return protocol.encode_canonical(
        protocol.ScheduleResponseV1(
            scheduler=result.scheduler,
            graph=graph,
            source=result.source,
            k=result.k,
            found=result.found,
            rounds=result.rounds,
            valid=result.valid,
            n_calls=frame.n_calls if frame is not None else None,
            schedule=frame_to_dict(frame) if frame is not None else None,
        ).to_wire()
    )


def make_expected(inputs: Inputs) -> None:
    """Verdicts from the reference validator (the oracle); schedule,
    corpus-hit and certificate responses byte for byte as computed
    without the daemon."""
    from repro import api
    from repro.io import frame_to_dict
    from repro.service import protocol

    for req in inputs.distinct:
        payload = json.loads(req.raw.split(b"\r\n\r\n", 1)[1])
        if req.kind == "validate":
            spec, k, frame = inputs.validate_frames[req.key]
            report = api.validate(spec, frame, k, engine="reference")
            wire = protocol.ValidateResponseV1(
                graph=spec,
                k=k,
                reports=(
                    protocol.ReportV1(
                        ok=report.ok,
                        rounds=report.rounds,
                        max_call_length=report.max_call_length,
                        errors=tuple(report.errors),
                    ),
                ),
            ).to_wire()
            wire.pop("coalesced")
            inputs.expected[req.key] = wire
        elif req.kind == "schedule":
            result = api.schedule(
                payload["graph"],
                "greedy",
                source=payload["source"],
                k=payload["k"],
                seed=payload["seed"],
            )
            inputs.expected[req.key] = sha(_schedule_response(payload["graph"], result))
        elif req.kind == "certificate":
            cert = api.certificate(payload["construction"])
            inputs.expected[req.key] = sha(protocol.encode_certificate_payload(cert))
    for i, ((graph, scheduler, k, kseed), frame) in enumerate(corpus_frames()):
        if scheduler == "scheme":  # not a registry scheduler: encode the frame
            body = protocol.encode_canonical(
                protocol.ScheduleResponseV1(
                    scheduler=scheduler,
                    graph=graph,
                    source=frame.source,
                    k=k,
                    found=True,
                    rounds=frame.n_rounds,
                    valid=True,
                    n_calls=frame.n_calls,
                    schedule=frame_to_dict(frame),
                ).to_wire()
            )
        else:
            result = api.schedule(graph, scheduler, source=frame.source, k=k, seed=kseed)
            body = _schedule_response(graph, result)
        inputs.expected[inputs.first_hit + i] = sha(body)


def plant_wrong_answer(inputs: Inputs) -> None:
    """Corrupt one expected answer (the benchmark's own smoke test)."""
    key = inputs.sequence[0].key
    want = inputs.expected[key]
    inputs.expected[key] = b"planted" if isinstance(want, bytes) else {"planted": True}


# -- set-up ----------------------------------------------------------------------


@dataclass
class Setup:
    daemon: Daemon
    seconds: float
    corpus_seconds: float
    warm: loadgen.PhaseResult


def status_ok(_req: Request, status: int, _body: bytes) -> bool:
    """The checker for phases that run before expected answers exist."""
    return status == 200


async def set_up(work: Path, inputs: Inputs) -> Setup:
    """Corpus build, daemon spawn until the first healthz 200, and one
    warm-up pass."""
    t0 = wall()
    corpus = work / "bench.corpus"
    build_corpus(corpus)
    corpus_seconds = wall() - t0
    daemon = Daemon(work, ["--corpus", str(corpus)])
    try:
        await loadgen.wait_healthy(daemon.host, daemon.port)
        warm = await loadgen.run_sequence(
            daemon.host, daemon.port, inputs.warmup, status_ok, CONNECTIONS
        )
    except BaseException:
        daemon.stop()
        raise
    return Setup(daemon, wall() - t0, corpus_seconds, warm)


async def repeated_setup(work: Path, inputs: Inputs) -> tuple[Setup, list[float]]:
    """Set up ``SETUP_REPEATS`` times; keep the last daemon running."""
    times: list[float] = []
    for i in range(SETUP_REPEATS):
        setup = await set_up(work, inputs)
        times.append(setup.seconds)
        if i < SETUP_REPEATS - 1:
            setup.daemon.stop()
    return setup, times


# -- the timed run -------------------------------------------------------------------


async def run(seed: int, seconds: float, work: Path, plant: bool) -> dict:
    inputs = make_inputs(seed)
    setup, setup_times = await repeated_setup(work, inputs)
    daemon = setup.daemon
    attempted, failed = setup.warm.attempted, setup.warm.failed
    rates: list[float] = []
    open_windows: list[list[float]] = []
    lat_ms: list[float] = []
    lags_ms: list[float] = []
    try:
        make_expected(inputs)  # outside setup_s
        if plant:
            plant_wrong_answer(inputs)
        host, port = daemon.host, daemon.port
        offset = 0
        # Rounds of closed then open loop, so that the windows of both
        # phases are spread over the whole run: the CPU this runs on gets
        # slower and faster by up to a third for tens of seconds at a time.
        for i in range(ROUNDS):
            closed = await loadgen.closed_loop(
                host,
                port,
                inputs.sequence[offset:] + inputs.sequence[:offset],
                inputs.check,
                seconds=seconds * CLOSED_SHARE / ROUNDS,
                connections=CONNECTIONS,
            )
            offset = (offset + closed.attempted) % len(inputs.sequence)
            opened = await loadgen.open_loop(
                host,
                port,
                inputs.sequence[offset:] + inputs.sequence[:offset],
                inputs.check,
                seconds=seconds * (1 - CLOSED_SHARE) / ROUNDS,
                rate=OPEN_RATE,
                connections=CONNECTIONS,
                seed=seed * ROUNDS + i,
            )
            offset = (offset + opened.attempted) % len(inputs.sequence)
            attempted += closed.attempted + opened.attempted
            failed += closed.failed + opened.failed
            # a phase shorter than one window (smoke-size runs) counts whole
            rates += closed.window_rates(CLOSED_WINDOW_S) or [closed.throughput]
            open_windows += [
                [latency * 1e3 for _due, latency in w]
                for w in opened.windows(OPEN_WINDOW_S)
                if len(w) >= MIN_WINDOW_SAMPLES
            ] or [[x * 1e3 for x in opened.latencies]]
            lat_ms += [x * 1e3 for x in opened.latencies]
            lags_ms += [x * 1e3 for x in opened.lags]
        peak_mb = daemon.rss_mb("VmHWM")
    finally:
        daemon.stop()
    open_windows = [w for w in open_windows if w]
    if not lat_ms or not open_windows:
        raise BenchError("too few successful requests were timed")
    # Best window of each phase: the least touched by outside contention.
    p50s = [percentile(w, 50) for w in open_windows]
    p90s = [percentile(w, 90) for w in open_windows]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "throughput_rps": (max(rates), "1/s"),
            "latency_p50_ms": (min(p50s), "ms"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        },
        "detail": {
            "closed_loop": {"window_rps": rates},
            "open_loop": {
                "rate": OPEN_RATE,
                "samples": len(lat_ms),
                "window_samples": [len(w) for w in open_windows],
                "window_p50_ms": p50s,
                "window_p90_ms": p90s,
                "p50_ms": percentile(lat_ms, 50),
                "p90_ms": percentile(lat_ms, 90),
                "p99_ms": percentile(lat_ms, 99),
                "lag_p99_ms": percentile(lags_ms, 99),
            },
            "setup_s": setup_times,
            "warmup_requests": len(inputs.warmup),
        },
    }
