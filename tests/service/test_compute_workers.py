"""Serve's compute on worker processes: faults, concurrency, stats.

Compute requests reach a ``WorkerPool`` as ``(endpoint, body)`` bytes.
These tests pin what the daemon promises around that hop: a worker
killed mid-request is replaced and the request answered; two requests
compute at once while ``healthz`` still answers; an unexpected compute
exception is a 500 ``internal-error`` response, never an exception out
of ``dispatch``; and ``/v1/stats`` counts the work the workers did.
"""

import asyncio
import json
import time

import pytest

import repro.api as api
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.devtools import chaos
from repro.frame import as_frame
from repro.io import frame_to_dict
from repro.service import compute
from repro.service.app import ReproService

GRAPH_SPEC = "sparse:5:2"
K = 2


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()
    yield
    chaos.reset()


def validate_body(source=0):
    frame = as_frame(broadcast_schedule(construct_base(5, 2), source))
    return json.dumps(
        {"graph": GRAPH_SPEC, "k": K, "schedules": [frame_to_dict(frame)]}
    ).encode()


def with_chaos(monkeypatch, spec):
    monkeypatch.setenv("REPRO_CHAOS", spec)
    chaos.reset()


class TestWorkerFaults:
    def test_killed_worker_is_replaced_and_the_request_answered(self, monkeypatch):
        with_chaos(monkeypatch, "kill:task=0")
        service = ReproService(workers=2)
        try:
            first = {w.proc.pid for w in service._pool._workers.values()}
            status, payload = asyncio.run(
                service.dispatch("POST", "/v1/validate", validate_body())
            )
            assert status == 200
            assert json.loads(payload)["reports"][0]["ok"] is True
            now = {w.proc.pid for w in service._pool._workers.values()}
            assert len(now) == 2 and now != first  # one replaced, none lost
            assert service._closing is False  # no drain started
            status, _ = asyncio.run(service.dispatch("GET", "/v1/healthz", b""))
            assert status == 200
        finally:
            service.close()

    def test_two_delayed_requests_overlap_and_healthz_answers(self, monkeypatch):
        with_chaos(monkeypatch, "delay:task=0:ms=300;delay:task=1:ms=300")
        service = ReproService(workers=2)

        async def scenario():
            t0 = time.monotonic()
            computes = [
                asyncio.ensure_future(
                    service.dispatch("POST", "/v1/validate", validate_body(s))
                )
                for s in (0, 1)
            ]
            await asyncio.sleep(0.05)
            health = await service.dispatch("GET", "/v1/healthz", b"")
            health_at = time.monotonic() - t0
            answers = await asyncio.gather(*computes)
            return answers, health, health_at, time.monotonic() - t0

        try:
            answers, health, health_at, elapsed = asyncio.run(scenario())
        finally:
            service.close()
        assert [status for status, _ in answers] == [200, 200]
        assert health[0] == 200 and health_at < 0.25  # answered during it
        assert elapsed < 0.45  # on two CPUs, not in turn


def _boom(*_args, **_kwargs):
    raise AssertionError("boom")


class TestUnexpectedComputeErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_is_a_500_response(self, monkeypatch, workers):
        """In process or in a worker (which forks with the patch)."""
        monkeypatch.setattr(api, "validate", _boom)
        service = ReproService(workers=workers)
        try:
            status, payload = asyncio.run(
                service.dispatch("POST", "/v1/validate", validate_body())
            )
            stats = asyncio.run(service.dispatch("GET", "/v1/stats", b""))[1]
        finally:
            service.close()
        assert status == 500
        assert json.loads(payload)["error"] == {
            "code": "internal-error",
            "message": "AssertionError: boom",
        }
        assert json.loads(stats)["endpoints"]["validate"]["errors"] == 1

    def test_connection_keeps_serving(self, monkeypatch):
        monkeypatch.setattr(api, "validate", _boom)

        async def scenario(service):
            server = await asyncio.start_server(
                service.handle_connection, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                heads = []
                body = validate_body()
                for raw in (
                    b"POST /v1/validate HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\n\r\n"
                    + body,
                    b"GET /v1/healthz HTTP/1.1\r\n\r\n",
                ):
                    writer.write(raw)
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                    await reader.readexactly(length)
                    heads.append(head.split(b"\r\n")[0])
                return heads
            finally:
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()

        service = ReproService(workers=2)
        try:
            heads = asyncio.run(scenario(service))
        finally:
            service.close()
        assert heads == [
            b"HTTP/1.1 500 Internal Server Error",
            b"HTTP/1.1 200 OK",
        ]


class TestStatsCoverWorkers:
    def test_counts_sum_over_workers(self):
        compute.graph_for(GRAPH_SPEC)  # workers start empty all the same
        service = ReproService(workers=2)

        async def burst():
            return await asyncio.gather(
                *(
                    service.dispatch("POST", "/v1/validate", validate_body(s))
                    for s in range(6)
                )
            )

        try:
            answers = asyncio.run(burst())
            _status, body = asyncio.run(service.dispatch("GET", "/v1/stats", b""))
        finally:
            service.close()
        stats = json.loads(body)
        assert [status for status, _ in answers] == [200] * 6
        assert stats["coalescer"] == {
            "passes": 6,
            "requests": 6,
            "schedules": 6,
            "coalesced_passes": 0,
        }
        # each worker built the graph it computed on, once
        assert 1 <= stats["graphs_cached"] <= 2
        cache = stats["engine_cache"]
        assert cache["hits"] + cache["misses"] >= 6
        assert cache["hits"] >= 4
