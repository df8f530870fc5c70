"""The long-running schedule service (``repro serve``).

A stdlib-only asyncio HTTP daemon over the :mod:`repro.api` facade.
Layering, bottom up:

:mod:`repro.service.protocol`
    the versioned wire format: frozen typed request/response
    dataclasses, canonical JSON codecs (byte-pinned like io v2), and
    the stable error-code → HTTP-status mapping.
:mod:`repro.service.http`
    a minimal HTTP/1.1 reader/writer over asyncio streams — just
    enough protocol for JSON-over-POST with keep-alive.
:mod:`repro.service.compute`
    one compute request, bytes in and bytes out, on a worker process's
    bounded spec memo (:mod:`repro.engine.cache`).  Every ``POST
    /v1/validate`` is one ``api.validate`` call there — the fast engine
    on the memoized graph.
:mod:`repro.service.app`
    routing, corpus hits, per-endpoint latency/hit counters, the
    ``WorkerPool`` the compute requests go to, and the graceful-shutdown
    choreography (drain in-flight, stop the workers, close the corpus).

The point of the daemon is cache amortization: in each worker, every
request with the same graph or construction spec reuses one
:class:`~repro.graphs.base.Graph` object, so the process-wide per-graph
kernel/validator caches (:mod:`repro.engine.cache`) hit on identity —
see ``benchmarks/bench_serve.py`` for the measured cold/warm gap.
"""

from repro.service.app import ReproService, serve_forever

__all__ = ["ReproService", "serve_forever"]
