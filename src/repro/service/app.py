"""The service endpoints, caches, stats, and shutdown choreography.

:class:`ReproService` is the transport-free core: ``dispatch(method,
path, body)`` maps one request onto the :mod:`repro.api` facade and
returns ``(status, body_bytes)``.  Tests and the load benchmark drive
it in-process; :func:`serve_forever` wraps it in the asyncio socket
server behind ``repro serve``.

Cache amortization — the reason the daemon exists — happens at two
levels keyed on the *spec string*:

* the graph/construction caches here map ``"sparse:9:3"`` to one frozen
  object, so every request for a spec sees the *same* ``Graph``
  identity, and
* the process-wide engine caches (:mod:`repro.engine.cache`) key on
  that identity, so kernels and validators are built once and hit
  forever after.

All blocking work (construction, scheduling, validation) runs on a
bounded thread pool; the event loop only parses and routes.  Each
``/v1/validate`` request is one :func:`repro.api.validate` call on that
pool, with no collection window in front of it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import time
from typing import Any, Awaitable, Callable, TypeVar

from repro.errors import captured_call, error_code
from repro.service import protocol
from repro.service.http import read_request, render_response
from repro.types import InvalidParameterError, ReproError

__all__ = ["ReproService", "serve_forever"]

_T = TypeVar("_T")

ENDPOINTS = (
    "schedule",
    "validate",
    "certificate",
    "healthz",
    "stats",
)


class _EndpointStats:
    """Hit/error/latency counters for one endpoint."""

    __slots__ = ("count", "errors", "seconds")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.seconds = 0.0

    def to_wire(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "errors": self.errors,
            "seconds": round(self.seconds, 6),
        }


class ReproService:
    """The transport-free service core (see module docstring)."""

    def __init__(
        self,
        *,
        workers: int = 2,
        corpus: Any = None,
        max_connections: int | None = None,
        max_keepalive: int = 1000,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"--workers must be >= 1, got {workers}")
        if max_connections is not None and max_connections < 1:
            raise InvalidParameterError(
                f"--max-connections must be >= 1, got {max_connections}"
            )
        if max_keepalive < 1:
            raise InvalidParameterError(
                f"--max-keepalive must be >= 1, got {max_keepalive}"
            )
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._graphs: dict[str, Any] = {}
        self._constructions: dict[str, Any] = {}
        # validate requests and the schedules they carried (/v1/stats)
        self._validates = 0
        self._validated_schedules = 0
        self._stats = {name: _EndpointStats() for name in ENDPOINTS}
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closing = False
        # the precomputed-answer cache: a CorpusReader, a path to open
        # one, or None (every schedule request runs a scheduler)
        if corpus is not None and not hasattr(corpus, "lookup"):
            from repro.corpus import CorpusReader

            corpus = CorpusReader(corpus)
        self._corpus = corpus
        self._corpus_hits = 0
        self._corpus_misses = 0
        self._max_connections = max_connections
        self._max_keepalive = max_keepalive
        self._connections = 0
        self._rejected = 0

    # -- caches -------------------------------------------------------------

    def _graph_for(self, spec: str) -> Any:
        graph = self._graphs.get(spec)
        if graph is None:
            from repro import api

            graph = api.build_graph(spec)
            self._graphs[spec] = graph
        return graph

    def _construction_for(self, spec: str) -> Any:
        sh = self._constructions.get(spec)
        if sh is None:
            from repro import api

            sh = api.construction(spec)
            self._constructions[spec] = sh
        return sh

    # -- endpoint implementations ------------------------------------------

    async def _offload(self, fn: Callable[[], _T]) -> _T:
        """Run blocking work on the pool; re-raise its real exception."""
        loop = asyncio.get_running_loop()
        tag, value = await loop.run_in_executor(self._executor, captured_call, fn)
        if tag == "raise":
            raise value  # type: ignore[misc]
        return value  # type: ignore[return-value]

    def _corpus_response(
        self, request: protocol.ScheduleRequestV1
    ) -> tuple[int, bytes] | None:
        """A corpus-hit answer, or ``None`` when the scheduler must run.

        Only default-shaped requests are eligible (no round budget, no
        scheduler params — a corpus stores exactly the default run), so
        a hit is byte-identical to the computed response by
        construction: corpora only admit found-and-valid frames, and
        registry schedulers are deterministic in (graph, scheduler, k,
        source, seed).  Pinned by tests and ``bench_corpus``.
        """
        if self._corpus is None or request.rounds is not None or request.params:
            return None
        fid = self._corpus.lookup(
            request.graph,
            request.scheduler,
            request.source,
            k=request.k,
            seed=request.seed,
        )
        if fid is None:
            self._corpus_misses += 1
            return None
        self._corpus_hits += 1
        frame = self._corpus.frame_at(fid)
        from repro.io import frame_to_dict

        response = protocol.ScheduleResponseV1(
            scheduler=request.scheduler,
            graph=request.graph,
            source=request.source,
            k=request.k,
            found=True,
            rounds=frame.n_rounds,
            valid=True,
            n_calls=frame.n_calls,
            schedule=frame_to_dict(frame),
        )
        return 200, protocol.encode_canonical(response.to_wire())

    async def _do_schedule(self, body: bytes) -> tuple[int, bytes]:
        request = protocol.decode_schedule_request(_parse_json(body))
        hit = self._corpus_response(request)
        if hit is not None:
            return hit
        graph = self._graph_for(request.graph)

        from repro import api

        result = await self._offload(
            functools.partial(
                api.schedule,
                graph,
                request.scheduler,
                source=request.source,
                k=request.k,
                rounds=request.rounds,
                seed=request.seed,
                params=dict(request.params),
            )
        )
        payload = None
        if result.frame is not None:
            from repro.io import frame_to_dict

            payload = frame_to_dict(result.frame)
        response = protocol.ScheduleResponseV1(
            scheduler=result.scheduler,
            graph=request.graph,
            source=result.source,
            k=result.k,
            found=result.found,
            rounds=result.rounds,
            valid=result.valid,
            n_calls=result.frame.n_calls if result.frame is not None else None,
            schedule=payload,
        )
        return 200, protocol.encode_canonical(response.to_wire())

    async def _do_validate(self, body: bytes) -> tuple[int, bytes]:
        request = protocol.decode_validate_request(_parse_json(body))
        from repro import api
        from repro.io import frame_from_dict

        if request.engine not in api.ENGINES:
            raise InvalidParameterError(
                f"unknown engine {request.engine!r}; known: {', '.join(api.ENGINES)}"
            )
        graph = self._graph_for(request.graph)
        frames = [frame_from_dict(dict(p)) for p in request.schedules]
        self._validates += 1
        self._validated_schedules += len(frames)
        result = await self._offload(
            functools.partial(
                api.validate,
                graph,
                frames,
                request.k,
                engine=request.engine,
                require_minimum_time=request.require_minimum_time,
                vertex_disjoint=request.vertex_disjoint,
            )
        )
        reports = result if isinstance(result, list) else [result]
        response = protocol.ValidateResponseV1(
            graph=request.graph,
            k=request.k,
            reports=tuple(
                protocol.ReportV1(
                    ok=r.ok,
                    rounds=r.rounds,
                    max_call_length=r.max_call_length,
                    errors=tuple(r.errors),
                )
                for r in reports
            ),
        )
        return 200, protocol.encode_canonical(response.to_wire())

    async def _do_certificate(self, body: bytes) -> tuple[int, bytes]:
        request = protocol.decode_certificate_request(_parse_json(body))
        sh = self._construction_for(request.construction)

        from repro import api

        payload = await self._offload(
            functools.partial(api.certificate, sh, request.sources)
        )
        return 200, protocol.encode_certificate_payload(payload)

    def _do_healthz(self) -> tuple[int, bytes]:
        return 200, protocol.encode_canonical(
            {"format": protocol.SERVICE_FORMAT, "status": "ok"}
        )

    def _do_stats(self) -> tuple[int, bytes]:
        from repro.engine.cache import cache_info

        payload = {
            "format": protocol.SERVICE_FORMAT,
            "endpoints": {
                name: stats.to_wire() for name, stats in self._stats.items()
            },
            "engine_cache": dict(cache_info()),
            # kept for wire compatibility: every validate request is
            # now exactly one engine pass, and none is shared
            "coalescer": {
                "passes": self._validates,
                "requests": self._validates,
                "schedules": self._validated_schedules,
                "coalesced_passes": 0,
            },
            "graphs_cached": len(self._graphs),
            "constructions_cached": len(self._constructions),
            "corpus": {
                "enabled": self._corpus is not None,
                "frames": (
                    self._corpus.n_frames if self._corpus is not None else 0
                ),
                "groups": (
                    len(self._corpus.groups) if self._corpus is not None else 0
                ),
                "hits": self._corpus_hits,
                "misses": self._corpus_misses,
            },
            "connections": {
                "active": self._connections,
                "rejected": self._rejected,
                "max": self._max_connections,
                "max_keepalive": self._max_keepalive,
            },
        }
        return 200, protocol.encode_canonical(payload)

    # -- routing ------------------------------------------------------------

    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        """Route one request; always returns a complete response pair."""
        route = _ROUTES.get(path)
        if route is None:
            return _error_response(
                protocol.ErrorV1("not-found", f"unknown path {path!r}")
            )
        endpoint, expected_method = route
        stats = self._stats[endpoint]
        if method != expected_method:
            stats.errors += 1
            return _error_response(
                protocol.ErrorV1(
                    "method-not-allowed", f"{path} takes {expected_method}"
                )
            )
        self._inflight += 1
        self._idle.clear()
        started = time.perf_counter()
        try:
            if endpoint == "healthz":
                return self._do_healthz()
            if endpoint == "stats":
                return self._do_stats()
            handler: Callable[[bytes], Awaitable[tuple[int, bytes]]] = {
                "schedule": self._do_schedule,
                "validate": self._do_validate,
                "certificate": self._do_certificate,
            }[endpoint]
            return await handler(body)
        except (ReproError, KeyError, OSError) as exc:
            # domain/taxonomy errors, registry KeyErrors, IO faults
            stats.errors += 1
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            return _error_response(
                protocol.ErrorV1(error_code(exc), str(message))
            )
        except ValueError as exc:
            stats.errors += 1
            return _error_response(protocol.ErrorV1(error_code(exc), str(exc)))
        finally:
            stats.count += 1
            stats.seconds += time.perf_counter() - started
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    # -- connection handling / lifecycle ------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive HTTP connection, request by request.

        Backpressure happens here, not in dispatch: a connection beyond
        ``--max-connections`` is answered ``503`` with ``Retry-After``
        and closed before any request is read, and an accepted
        connection is closed (``Connection: close``) after
        ``--max-keepalive`` requests so one chatty client cannot pin a
        slot forever.
        """
        if (
            self._max_connections is not None
            and self._connections >= self._max_connections
        ):
            self._rejected += 1
            error = protocol.ErrorV1(
                "overloaded",
                f"connection limit {self._max_connections} reached; retry",
            )
            status, payload = _error_response(error)
            try:
                writer.write(
                    render_response(
                        status,
                        payload,
                        keep_alive=False,
                        extra_headers={"Retry-After": "1"},
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            return
        self._connections += 1
        served = 0
        try:
            while not self._closing:
                try:
                    request = await read_request(reader)
                except InvalidParameterError as exc:
                    error = protocol.ErrorV1("bad-request", str(exc))
                    status, payload = _error_response(error)
                    writer.write(
                        render_response(status, payload, keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self.dispatch(
                    request.method, request.path, request.body
                )
                served += 1
                keep = (
                    request.keep_alive
                    and not self._closing
                    and served < self._max_keepalive
                )
                writer.write(render_response(status, payload, keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def drain(self) -> None:
        """Wait until every in-flight request has been answered."""
        self._closing = True
        await self._idle.wait()

    def close(self) -> None:
        """Release the pool and the corpus."""
        self._executor.shutdown(wait=True)
        if self._corpus is not None:
            self._corpus.close()
            self._corpus = None


def _parse_json(body: bytes) -> Any:
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"request body is not valid JSON: {exc}") from None


def _error_response(error: protocol.ErrorV1) -> tuple[int, bytes]:
    return error.status, protocol.encode_canonical(error.to_wire())


_ROUTES: dict[str, tuple[str, str]] = {
    "/v1/schedule": ("schedule", "POST"),
    "/v1/validate": ("validate", "POST"),
    "/v1/certificate": ("certificate", "POST"),
    "/v1/healthz": ("healthz", "GET"),
    "/v1/stats": ("stats", "GET"),
}


async def _amain(
    host: str,
    port: int,
    workers: int,
    corpus: str | None,
    max_connections: int | None,
    max_keepalive: int,
) -> int:
    service = ReproService(
        workers=workers,
        corpus=corpus,
        max_connections=max_connections,
        max_keepalive=max_keepalive,
    )
    server = await asyncio.start_server(service.handle_connection, host, port)
    bound = server.sockets[0].getsockname()
    print(f"repro serve listening on http://{bound[0]}:{bound[1]}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("repro serve: draining", flush=True)
    server.close()
    await server.wait_closed()
    await service.drain()
    service.close()
    print("repro serve: shutdown complete", flush=True)
    return 0


def serve_forever(
    *,
    host: str = "127.0.0.1",
    port: int = 8571,
    workers: int = 2,
    corpus: str | None = None,
    max_connections: int | None = None,
    max_keepalive: int = 1000,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; returns the exit code (0)."""
    return asyncio.run(
        _amain(host, port, workers, corpus, max_connections, max_keepalive)
    )
