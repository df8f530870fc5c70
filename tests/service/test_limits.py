"""Backpressure and stats surfacing: --max-connections, keep-alive caps,
the section layout of /v1/stats."""

import asyncio
import json

import pytest

from repro.service.app import ReproService
from repro.types import InvalidParameterError

HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"


@pytest.fixture()
def service():
    svc = ReproService(workers=1)
    yield svc
    svc.close()


def dispatch(service, method, path, body=b""):
    return asyncio.run(service.dispatch(method, path, body))


class TestStatsSurfacing:
    def test_stats_sections_pinned(self, service):
        status, body = dispatch(service, "GET", "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        assert sorted(stats) == [
            "coalescer",
            "connections",
            "constructions_cached",
            "corpus",
            "endpoints",
            "engine_cache",
            "format",
            "graphs_cached",
        ]
        assert stats["coalescer"] == {
            "passes": 0,
            "requests": 0,
            "schedules": 0,
            "coalesced_passes": 0,
        }

    def test_connections_stats_shape(self):
        svc = ReproService(workers=1, max_connections=7, max_keepalive=3)
        try:
            status, body = dispatch(svc, "GET", "/v1/stats")
            assert status == 200
            assert json.loads(body)["connections"] == {
                "active": 0,
                "max": 7,
                "max_keepalive": 3,
                "rejected": 0,
            }
        finally:
            svc.close()

    def test_limits_validated(self):
        with pytest.raises(InvalidParameterError, match="max-connections"):
            ReproService(workers=1, max_connections=0)
        with pytest.raises(InvalidParameterError, match="max-keepalive"):
            ReproService(workers=1, max_keepalive=0)


async def _read_response(reader):
    header = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in header.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    return header, body


class TestConnectionLimit:
    def test_over_limit_gets_503_with_retry_after(self):
        async def scenario():
            svc = ReproService(workers=1, max_connections=1)
            server = await asyncio.start_server(
                svc.handle_connection, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                # first connection occupies the only slot (held open by
                # keep-alive after a completed request)
                r1, w1 = await asyncio.open_connection("127.0.0.1", port)
                w1.write(HEALTHZ)
                await w1.drain()
                h1, b1 = await _read_response(r1)
                assert b"200 OK" in h1

                # second connection is rejected before any request is read,
                # so the 503 arrives without us sending a byte
                r2, w2 = await asyncio.open_connection("127.0.0.1", port)
                h2, b2 = await _read_response(r2)
                assert b"503" in h2.split(b"\r\n")[0]
                assert b"Retry-After: 1" in h2
                assert b"Connection: close" in h2
                assert json.loads(b2)["error"]["code"] == "overloaded"
                assert await r2.read() == b""  # server closed it

                # stats saw the rejection
                status, body = await svc.dispatch("GET", "/v1/stats", b"")
                conn = json.loads(body)["connections"]
                assert conn["rejected"] == 1
                assert conn["active"] == 1

                w1.close()
                w2.close()
                await w1.wait_closed()
                await w2.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                svc.close()

        asyncio.run(scenario())

    def test_slot_frees_after_close(self):
        async def scenario():
            svc = ReproService(workers=1, max_connections=1)
            server = await asyncio.start_server(
                svc.handle_connection, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                r1, w1 = await asyncio.open_connection("127.0.0.1", port)
                w1.write(HEALTHZ)
                await w1.drain()
                await _read_response(r1)
                w1.close()
                await w1.wait_closed()
                await asyncio.sleep(0.05)  # let the handler unwind

                r2, w2 = await asyncio.open_connection("127.0.0.1", port)
                w2.write(HEALTHZ)
                await w2.drain()
                h2, _ = await _read_response(r2)
                assert b"200 OK" in h2
                w2.close()
                await w2.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                svc.close()

        asyncio.run(scenario())


class TestKeepAliveCap:
    def test_connection_closed_after_cap(self):
        async def scenario():
            svc = ReproService(workers=1, max_keepalive=2)
            server = await asyncio.start_server(
                svc.handle_connection, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(HEALTHZ)
                await writer.drain()
                h1, _ = await _read_response(reader)
                assert b"Connection: keep-alive" in h1

                writer.write(HEALTHZ)
                await writer.drain()
                h2, _ = await _read_response(reader)
                assert b"Connection: close" in h2  # cap reached
                assert await reader.read() == b""  # server hung up

                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                svc.close()

        asyncio.run(scenario())
