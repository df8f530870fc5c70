"""The service endpoints, caches, stats, and shutdown choreography.

:class:`ReproService` is the transport-free core: ``dispatch(method,
path, body)`` maps one request onto the :mod:`repro.api` facade and
returns ``(status, body_bytes)``.  Tests and the load benchmark drive
it in-process; :func:`serve_forever` wraps it in the asyncio socket
server behind ``repro serve``.

The event loop keeps HTTP framing, routing, corpus hits, ``healthz``
and ``stats``.  Compute — ``/v1/validate``, ``/v1/certificate``, and
``/v1/schedule`` after a corpus miss — goes to ``--workers`` processes
of a :class:`~repro.util.pool.WorkerPool` as ``(endpoint, body)``
bytes, through :meth:`~repro.util.pool.WorkerPool.submit`, so two
requests in flight compute on two CPUs instead of taking turns on one
GIL.  Each worker runs :func:`repro.service.compute.run` on its own
bounded spec memo and engine caches (:mod:`repro.engine.cache`), which
give every request for a spec one graph.  A worker that dies
mid-request is replaced and the request retried.  The event loop never
computes, whatever the worker count.
"""

from __future__ import annotations

import asyncio
import signal
import time
from collections import Counter
from typing import Any

from repro.errors import captured_call
from repro.service import compute, protocol
from repro.service.http import read_request, render_response
from repro.types import InvalidParameterError, ReproError
from repro.util.pool import WorkerPool

__all__ = ["ReproService", "serve_forever"]

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
    """The transport-free service core (see module docstring).

    The compute workers fork here, at construction: ``serve_forever``
    builds the service before it opens a socket or installs a signal
    handler, so the workers inherit neither.
    """

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
        # what the compute requests changed in their processes: engine
        # cache counters, memoized graphs/constructions, validates
        self._work: Counter[str] = Counter()
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
        self._pool = WorkerPool(workers, initializer=compute.reset)
        self._pool.start()

    def _graph_for(self, spec: str) -> Any:
        """This process's graph for ``spec`` (its spec memo's)."""
        return compute.graph_for(spec)

    # -- endpoint implementations ------------------------------------------

    def _corpus_response(self, body: bytes) -> tuple[int, bytes] | None:
        """A corpus-hit answer, or ``None`` when the scheduler must run.

        Only default-shaped requests are eligible (no round budget, no
        scheduler params — a corpus stores exactly the default run), so
        a hit is byte-identical to the computed response by
        construction: corpora only admit found-and-valid frames, and
        registry schedulers are deterministic in (graph, scheduler, k,
        source, seed).  Pinned by tests and ``bench_corpus``.
        """
        if self._corpus is None:
            return None
        request = protocol.decode_schedule_request(compute.parse_json(body))
        if request.rounds is not None or request.params:
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

    def _do_healthz(self) -> tuple[int, bytes]:
        return 200, protocol.encode_canonical(
            {"format": protocol.SERVICE_FORMAT, "status": "ok"}
        )

    def _do_stats(self) -> tuple[int, bytes]:
        work = self._work
        payload = {
            "format": protocol.SERVICE_FORMAT,
            "endpoints": {
                name: stats.to_wire() for name, stats in self._stats.items()
            },
            "engine_cache": {
                key: work[key] for key in ("entries", "hits", "misses", "evictions")
            },
            # kept for wire compatibility: every validate request is
            # now exactly one engine pass, and none is shared
            "coalescer": {
                "passes": work["validates"],
                "requests": work["validates"],
                "schedules": work["schedules"],
                "coalesced_passes": 0,
            },
            "graphs_cached": work["graphs"],
            "constructions_cached": work["constructions"],
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
            return protocol.ErrorV1("not-found", f"unknown path {path!r}").response()
        endpoint, expected_method = route
        stats = self._stats[endpoint]
        if method != expected_method:
            stats.errors += 1
            return protocol.ErrorV1(
                "method-not-allowed", f"{path} takes {expected_method}"
            ).response()
        self._inflight += 1
        self._idle.clear()
        started = time.perf_counter()
        try:
            status, payload = await self._answer(endpoint, body)
        finally:
            stats.count += 1
            stats.seconds += time.perf_counter() - started
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        if status >= 400:
            stats.errors += 1
        return status, payload

    async def _answer(self, endpoint: str, body: bytes) -> tuple[int, bytes]:
        if endpoint == "healthz":
            return self._do_healthz()
        if endpoint == "stats":
            return self._do_stats()
        if endpoint == "schedule":
            tag, hit = captured_call(self._corpus_response, body)
            if tag == "raise":
                return protocol.ErrorV1.for_exception(hit).response()
            if hit is not None:
                return hit
        # compute answers its own failures; only the pool's raise here
        try:
            status, payload, work = await self._pool.submit(
                compute.run, (endpoint, body)
            )
        except (ReproError, OSError) as exc:  # retries spent, or no fork
            return protocol.ErrorV1.for_exception(exc).response()
        self._work.update(work)
        return status, payload

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
            status, payload = error.response()
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
                    status, payload = error.response()
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
        """Stop the compute workers and release the corpus (idempotent)."""
        self._pool.close()
        if self._corpus is not None:
            self._corpus.close()
            self._corpus = None


_ROUTES: dict[str, tuple[str, str]] = {
    "/v1/schedule": ("schedule", "POST"),
    "/v1/validate": ("validate", "POST"),
    "/v1/certificate": ("certificate", "POST"),
    "/v1/healthz": ("healthz", "GET"),
    "/v1/stats": ("stats", "GET"),
}


async def _amain(service: ReproService, host: str, port: int) -> None:
    try:
        server = await asyncio.start_server(service.handle_connection, host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        # announced once a signal drains the daemon instead of killing it
        bound = server.sockets[0].getsockname()
        print(f"repro serve listening on http://{bound[0]}:{bound[1]}", flush=True)
        await stop.wait()
        print("repro serve: draining", flush=True)
        server.close()
        await server.wait_closed()
        await service.drain()
    finally:
        # still under the loop's handlers: a second signal cannot kill
        # the daemon while it stops its workers
        service.close()


def serve_forever(
    *,
    host: str = "127.0.0.1",
    port: int = 8571,
    workers: int = 2,
    corpus: str | None = None,
    max_connections: int | None = None,
    max_keepalive: int = 1000,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; returns the exit code (0).

    The service, and so its compute workers, exist before the event
    loop, its socket and its signal handlers do; the workers are
    stopped once in-flight requests are answered.
    """
    service = ReproService(
        workers=workers,
        corpus=corpus,
        max_connections=max_connections,
        max_keepalive=max_keepalive,
    )
    asyncio.run(_amain(service, host, port))
    print("repro serve: shutdown complete", flush=True)
    return 0
