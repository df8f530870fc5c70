"""The service's compute side: request bytes in, response bytes out.

``repro serve`` hands each compute request (``/v1/validate``,
``/v1/certificate``, and ``/v1/schedule`` after a corpus miss) to a
:class:`~repro.util.pool.WorkerPool` process as ``(endpoint, body)``.
:func:`run` decodes, computes and encodes there, on that process's own
spec-keyed graph and construction caches: every request for a spec
sees one :class:`~repro.graphs.base.Graph` identity, so the
process-wide engine caches (:mod:`repro.engine.cache`) hit on it.
Every failure becomes an error response, so no exception has to cross
the pipe.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro import api
from repro.engine.cache import cache_info
from repro.errors import captured_call
from repro.io import frame_from_dict, frame_to_dict
from repro.service import protocol
from repro.types import InvalidParameterError

__all__ = ["construction_for", "graph_for", "parse_json", "reset", "run"]

# This process's caches and tallies; :func:`run` reports what each
# request changed in them.
_GRAPHS: dict[str, Any] = {}
_CONSTRUCTIONS: dict[str, Any] = {}
_VALIDATED = {"validates": 0, "schedules": 0}


def reset() -> None:
    """Empty this process's caches and tallies: the compute pool's
    initializer, so a worker never starts with what its parent cached
    (a fork copies it) and a service's stats count only its own work."""
    _GRAPHS.clear()
    _CONSTRUCTIONS.clear()
    _VALIDATED.update(validates=0, schedules=0)


def graph_for(spec: str) -> Any:
    """The process's one graph for ``spec``."""
    graph = _GRAPHS.get(spec)
    if graph is None:
        graph = api.build_graph(spec)
        _GRAPHS[spec] = graph
    return graph


def construction_for(spec: str) -> Any:
    """The process's one construction for ``spec``."""
    sh = _CONSTRUCTIONS.get(spec)
    if sh is None:
        sh = api.construction(spec)
        _CONSTRUCTIONS[spec] = sh
    return sh


def parse_json(body: bytes) -> Any:
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"request body is not valid JSON: {exc}") from None


def _schedule(body: bytes) -> tuple[int, bytes]:
    request = protocol.decode_schedule_request(parse_json(body))
    result = api.schedule(
        graph_for(request.graph),
        request.scheduler,
        source=request.source,
        k=request.k,
        rounds=request.rounds,
        seed=request.seed,
        params=dict(request.params),
    )
    frame = result.frame
    response = protocol.ScheduleResponseV1(
        scheduler=result.scheduler,
        graph=request.graph,
        source=result.source,
        k=result.k,
        found=result.found,
        rounds=result.rounds,
        valid=result.valid,
        n_calls=frame.n_calls if frame is not None else None,
        schedule=frame_to_dict(frame) if frame is not None else None,
    )
    return 200, protocol.encode_canonical(response.to_wire())


def _validate(body: bytes) -> tuple[int, bytes]:
    request = protocol.decode_validate_request(parse_json(body))
    if request.engine not in api.ENGINES:
        raise InvalidParameterError(
            f"unknown engine {request.engine!r}; known: {', '.join(api.ENGINES)}"
        )
    graph = graph_for(request.graph)
    frames = [frame_from_dict(dict(p)) for p in request.schedules]
    _VALIDATED["validates"] += 1
    _VALIDATED["schedules"] += len(frames)
    result = api.validate(
        graph,
        frames,
        request.k,
        engine=request.engine,
        require_minimum_time=request.require_minimum_time,
        vertex_disjoint=request.vertex_disjoint,
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


def _certificate(body: bytes) -> tuple[int, bytes]:
    request = protocol.decode_certificate_request(parse_json(body))
    payload = api.certificate(construction_for(request.construction), request.sources)
    return 200, protocol.encode_certificate_payload(payload)


_HANDLERS: dict[str, Callable[[bytes], tuple[int, bytes]]] = {
    "schedule": _schedule,
    "validate": _validate,
    "certificate": _certificate,
}


def _tallies() -> dict[str, int]:
    return {
        **cache_info(),
        "graphs": len(_GRAPHS),
        "constructions": len(_CONSTRUCTIONS),
        **_VALIDATED,
    }


def run(task: tuple[str, bytes]) -> tuple[int, bytes, dict[str, int]]:
    """One compute request: ``(status, response bytes, tally deltas)``.

    The deltas (engine-cache counters and entries, cached graphs and
    constructions, validate requests and schedules) are what this
    request changed in this process, so the daemon's ``/v1/stats`` can
    sum them over every worker it ever had.
    """
    endpoint, body = task
    before = _tallies()
    tag, value = captured_call(_HANDLERS[endpoint], body)
    if tag == "ok":
        status, payload = value
    else:
        status, payload = protocol.ErrorV1.for_exception(value).response()
    after = _tallies()
    return status, payload, {key: after[key] - before[key] for key in after}
