"""Load generation over loopback HTTP/1.1 keep-alive connections.

Every phase runs on the caller's one event loop, from this one process,
over at most ``nproc`` connections (checked by :func:`check_harness`).
Requests are pre-rendered bytes, so the timed loops only write, read,
and hand the answer to the workload's checker.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from common import BenchError, nproc


@dataclass(frozen=True)
class Request:
    """One pre-rendered request and the key its checker looks up."""

    raw: bytes
    kind: str
    key: int


# checker(request, status, body) -> True when the answer is correct
Checker = Callable[[Request, int, bytes], bool]


def render(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def check_harness(connections: int) -> None:
    """Load comes from this process alone, over at most nproc connections."""
    if connections < 1 or connections > nproc():
        raise BenchError(
            f"load generator would use {connections} connections; "
            f"at most nproc={nproc()} are allowed"
        )


class Connection:
    """One keep-alive client connection; reconnects if the server closes."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def send(self, raw: bytes) -> tuple[int, bytes]:
        if self._writer is None:
            await self._open()
        reader, writer = self._reader, self._writer
        assert reader is not None and writer is not None
        writer.write(raw)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, body

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None


@dataclass
class PhaseResult:
    """What one load phase observed."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)  # seconds, ok only
    # (seconds since the phase began, latency) per ok answer; the time is
    # when it finished (closed loop) or when it was due (open loop)
    marks: list[tuple[float, float]] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)  # open loop only

    @property
    def throughput(self) -> float:
        return self.attempted / self.seconds if self.seconds > 0 else 0.0

    def windows(self, width: float) -> list[list[tuple[float, float]]]:
        """Marks grouped into consecutive ``width``-second windows (a
        trailing partial window is dropped)."""
        n = int(self.seconds // width)
        out: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        for mark in self.marks:
            i = int(mark[0] // width)
            if i < n:
                out[i].append(mark)
        return out

    def window_rates(self, width: float) -> list[float]:
        """Completions per second within each window, from the spacing of
        its first and last completion."""
        rates = []
        for window in self.windows(width):
            times = sorted(at for at, _latency in window)
            if len(times) >= 2 and times[-1] > times[0]:
                rates.append((len(times) - 1) / (times[-1] - times[0]))
        return rates


async def _exchange(
    conn: Connection, req: Request, check: Checker
) -> bool:
    try:
        status, body = await conn.send(req.raw)
    except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
        await conn.close()
        return False
    return check(req, status, body)


async def run_sequence(
    host: str, port: int, requests: list[Request], check: Checker, connections: int
) -> PhaseResult:
    """Send every request once (warm-up and replays), ``connections`` at a time."""
    check_harness(connections)
    conns = [Connection(host, port) for _ in range(connections)]
    result = PhaseResult()
    queue = list(reversed(requests))
    t0 = time.perf_counter()

    async def worker(conn: Connection) -> None:
        while queue:
            req = queue.pop()
            result.attempted += 1
            if not await _exchange(conn, req, check):
                result.failed += 1

    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    result.seconds = time.perf_counter() - t0
    return result


async def closed_loop(
    host: str,
    port: int,
    requests: list[Request],
    check: Checker,
    *,
    seconds: float,
    connections: int,
) -> PhaseResult:
    """Each connection sends its next request when the last one answered,
    cycling through ``requests``, until ``seconds`` have passed."""
    check_harness(connections)
    conns = [Connection(host, port) for _ in range(connections)]
    result = PhaseResult()
    cursor = 0
    t0 = time.perf_counter()
    deadline = t0 + seconds

    async def worker(conn: Connection) -> None:
        nonlocal cursor
        while time.perf_counter() < deadline:
            req = requests[cursor % len(requests)]
            cursor += 1
            start = time.perf_counter()
            result.attempted += 1
            if await _exchange(conn, req, check):
                end = time.perf_counter()
                result.latencies.append(end - start)
                result.marks.append((end - t0, end - start))
            else:
                result.failed += 1

    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    result.seconds = time.perf_counter() - t0
    return result


async def open_loop(
    host: str,
    port: int,
    requests: list[Request],
    check: Checker,
    *,
    seconds: float,
    rate: float,
    connections: int,
    seed: int,
) -> PhaseResult:
    """Poisson arrivals at ``rate``/s for ``seconds``; each request is timed
    from when it was due, so waiting for a free connection counts.

    ``lags`` records how late the generator itself dispatched each
    request (event-loop lateness, not connection wait).
    """
    check_harness(connections)
    rng = random.Random(seed)
    due_times: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            break
        due_times.append(t)
    conns = [Connection(host, port) for _ in range(connections)]
    result = PhaseResult()
    queue: asyncio.Queue[tuple[float, Request] | None] = asyncio.Queue()
    t0 = time.perf_counter()

    async def generator() -> None:
        for i, offset in enumerate(due_times):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lags.append(max(0.0, time.perf_counter() - due))
            queue.put_nowait((due, requests[i % len(requests)]))
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, req = item
            result.attempted += 1
            if await _exchange(conn, req, check):
                latency = time.perf_counter() - due
                result.latencies.append(latency)
                result.marks.append((due - t0, latency))
            else:
                result.failed += 1

    try:
        await asyncio.gather(generator(), *(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    result.seconds = time.perf_counter() - t0
    return result


async def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    """One GET on a fresh connection (health and stats probes)."""
    conn = Connection(host, port)
    try:
        return await conn.send(render("GET", path))
    finally:
        await conn.close()


async def wait_healthy(host: str, port: int, timeout: float = 60.0) -> None:
    deadline = time.perf_counter() + timeout
    while True:
        try:
            status, _body = await get(host, port, "/v1/healthz")
            if status == 200:
                return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        if time.perf_counter() > deadline:
            raise BenchError("daemon never answered /v1/healthz with 200")
        await asyncio.sleep(0.01)
