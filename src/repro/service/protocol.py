"""The service wire format, version 1 (``repro-service/1``).

Frozen typed dataclasses for every request and response body, JSON
codecs whose bytes are canonical (sorted keys, compact separators —
golden-pinned like the io v2 schedule codec), and the stable mapping
from the :mod:`repro.errors` code taxonomy onto HTTP statuses.

Design rules:

* Requests carry *textual specs*, not graph payloads: the service's
  whole value is spec-keyed cache reuse, and
  :func:`repro.api.build_graph` / :func:`repro.api.construction` are
  the one parsing path shared with the CLI.
* Schedules on the wire are io v2 columnar payloads
  (:func:`repro.io.frame_to_dict`), so a served schedule round-trips
  byte-identically through ``repro schedule --out`` files.
* Error bodies are machine-readable first: ``{"error": {"code": ...,
  "message": ...}}`` where ``code`` is exactly what
  :func:`repro.errors.error_code` returns — the same string the CLI
  puts in its exit-2 one-liners.
* The certificate response body is the *raw certificate JSON* in
  insertion order (``separators=(",", ":")``), byte-identical to a
  :func:`repro.io.dump_certificate` file for the same construction —
  pinned by the e2e test and the CI serve job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import error_code, format_cause
from repro.types import InvalidParameterError

__all__ = [
    "SERVICE_FORMAT",
    "ScheduleRequestV1",
    "ScheduleResponseV1",
    "ValidateRequestV1",
    "ReportV1",
    "ValidateResponseV1",
    "CertificateRequestV1",
    "ErrorV1",
    "HTTP_STATUS_BY_CODE",
    "http_status_for",
    "encode_canonical",
    "encode_certificate_payload",
    "decode_schedule_request",
    "decode_validate_request",
    "decode_certificate_request",
]

SERVICE_FORMAT = "repro-service/1"

# Stable error-code -> HTTP status.  Append-only: a published code
# never changes its status class (pinned by tests/service tests).
# 4xx = the request is at fault (re-sending it unchanged cannot
# succeed); 503 = transient infrastructure fault (retryable, the
# ExecutionError family); 500 = a bug or unclassified failure.
HTTP_STATUS_BY_CODE: dict[str, int] = {
    "bad-request": 400,
    "invalid-parameter": 400,
    "unknown-name": 404,
    "not-found": 404,
    "method-not-allowed": 405,
    "invalid-schedule": 422,
    "execution-error": 503,
    "worker-crash": 503,
    "task-timeout": 503,
    "shm-attach-error": 503,  # nothing raises it; drop at the next wire bump
    "scenario-error": 500,
    "construction-error": 500,
    "overloaded": 503,
    "corpus-miss": 404,
    "corpus-error": 500,
    "corpus-format-error": 500,
    "corpus-integrity-error": 500,
    "io-error": 500,
    "repro-error": 500,
    "internal-error": 500,
    "search-budget-exceeded": 422,
}


def http_status_for(code: str) -> int:
    """The HTTP status for an error code (unknown codes are 500)."""
    return HTTP_STATUS_BY_CODE.get(code, 500)


# ---------------------------------------------------------------------------
# request/response dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleRequestV1:
    """``POST /v1/schedule``: run one registered scheduler on a spec."""

    graph: str
    scheduler: str = "greedy"
    source: int = 0
    k: int | None = None
    rounds: int | None = None
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScheduleResponseV1:
    """The scheduler's answer; ``schedule`` is an io v2 payload."""

    scheduler: str
    graph: str
    source: int
    k: int | None
    found: bool
    rounds: int | None
    valid: bool | None
    n_calls: int | None
    schedule: Mapping[str, Any] | None

    def to_wire(self) -> dict[str, Any]:
        return {
            "format": SERVICE_FORMAT,
            "scheduler": self.scheduler,
            "graph": self.graph,
            "source": self.source,
            "k": self.k,
            "found": self.found,
            "rounds": self.rounds,
            "valid": self.valid,
            "n_calls": self.n_calls,
            "schedule": None if self.schedule is None else dict(self.schedule),
        }


@dataclass(frozen=True)
class ValidateRequestV1:
    """``POST /v1/validate``: check schedules against Definition 1.

    ``schedules`` holds io v2 columnar payloads.  ``engine`` is one of
    :data:`repro.api.ENGINES` (``batch`` is an alias of ``fast``); every
    engine produces byte-identical verdicts by construction.
    """

    graph: str
    k: int
    schedules: tuple[Mapping[str, Any], ...]
    engine: str = "auto"
    require_minimum_time: bool = True
    vertex_disjoint: bool = False


@dataclass(frozen=True)
class ReportV1:
    """One validation verdict (mirrors ``ValidationReport``)."""

    ok: bool
    rounds: int
    max_call_length: int
    errors: tuple[str, ...]

    def to_wire(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "rounds": self.rounds,
            "max_call_length": self.max_call_length,
            "errors": list(self.errors),
        }


@dataclass(frozen=True)
class ValidateResponseV1:
    """Reports in request order.

    ``coalesced`` is always ``False``: the service validates each request
    on its own.  The field stays on the v1 wire so existing clients and
    the golden wire pins keep their shape.
    """

    graph: str
    k: int
    reports: tuple[ReportV1, ...]
    coalesced: bool = False

    def to_wire(self) -> dict[str, Any]:
        return {
            "format": SERVICE_FORMAT,
            "graph": self.graph,
            "k": self.k,
            "coalesced": self.coalesced,
            "reports": [r.to_wire() for r in self.reports],
        }


@dataclass(frozen=True)
class CertificateRequestV1:
    """``POST /v1/certificate``: a k-mlbg certificate for a construction."""

    construction: str
    sources: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ErrorV1:
    """A machine-readable failure; ``code`` keys the HTTP status."""

    code: str
    message: str

    def to_wire(self) -> dict[str, Any]:
        return {
            "format": SERVICE_FORMAT,
            "error": {"code": self.code, "message": self.message},
        }

    @property
    def status(self) -> int:
        return http_status_for(self.code)

    @classmethod
    def for_exception(cls, exc: BaseException) -> ErrorV1:
        """The wire error for ``exc``: its stable code and its message.

        A registry ``KeyError`` gives its bare message; an exception
        outside the taxonomy is ``internal-error`` (500), named by type.
        """
        code = error_code(exc)
        if code == "internal-error":
            return cls(code, format_cause(exc))
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        return cls(code, str(message))

    def response(self) -> tuple[int, bytes]:
        """``(HTTP status, canonical body)``."""
        return self.status, encode_canonical(self.to_wire())


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------


def encode_canonical(payload: Mapping[str, Any]) -> bytes:
    """Canonical response bytes: sorted keys, compact separators.

    The service analogue of the io v2 writer — golden tests pin the
    exact bytes, so changing this function is a wire-format break.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_certificate_payload(payload: Mapping[str, Any]) -> bytes:
    """Certificate bytes in *insertion* order, matching file output.

    A served certificate must be byte-identical to what
    :func:`repro.io.dump_certificate` writes for the same construction
    (the CI serve job byte-compares them), and the v1 certificate bytes
    are already golden-pinned in insertion order — so this writer is
    deliberately not canonicalized.
    """
    # byte-compat with dump_certificate is the contract here
    return json.dumps(  # repro-lint: disable=RL002
        dict(payload), separators=(",", ":")
    ).encode("utf-8")


def _bad(message: str) -> InvalidParameterError:
    return InvalidParameterError(message)


def _get_str(data: Mapping[str, Any], key: str, default: str | None = None) -> str:
    value = data.get(key, default)
    if not isinstance(value, str) or not value:
        raise _bad(f"field {key!r} must be a non-empty string")
    return value


def _get_int(data: Mapping[str, Any], key: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"field {key!r} must be an integer")
    return value


def _get_opt_int(data: Mapping[str, Any], key: str) -> int | None:
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"field {key!r} must be an integer or null")
    return value


def _get_bool(data: Mapping[str, Any], key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise _bad(f"field {key!r} must be a boolean")
    return value


def _reject_unknown(data: Mapping[str, Any], known: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise _bad(f"unknown field(s) {', '.join(map(repr, unknown))}")


def decode_schedule_request(data: Any) -> ScheduleRequestV1:
    if not isinstance(data, dict):
        raise _bad("request body must be a JSON object")
    _reject_unknown(
        data, ("graph", "scheduler", "source", "k", "rounds", "seed", "params")
    )
    params = data.get("params", {})
    if not isinstance(params, dict) or not all(isinstance(p, str) for p in params):
        raise _bad("field 'params' must be an object with string keys")
    return ScheduleRequestV1(
        graph=_get_str(data, "graph"),
        scheduler=_get_str(data, "scheduler", "greedy"),
        source=_get_int(data, "source", 0),
        k=_get_opt_int(data, "k"),
        rounds=_get_opt_int(data, "rounds"),
        seed=_get_int(data, "seed", 0),
        params=params,
    )


def decode_validate_request(data: Any) -> ValidateRequestV1:
    if not isinstance(data, dict):
        raise _bad("request body must be a JSON object")
    _reject_unknown(
        data,
        (
            "graph",
            "k",
            "schedules",
            "engine",
            "require_minimum_time",
            "vertex_disjoint",
        ),
    )
    schedules = data.get("schedules")
    if (
        not isinstance(schedules, list)
        or not schedules
        or not all(isinstance(s, dict) for s in schedules)
    ):
        raise _bad("field 'schedules' must be a non-empty list of v2 payloads")
    k = data.get("k")
    if isinstance(k, bool) or not isinstance(k, int):
        raise _bad("field 'k' must be an integer")
    return ValidateRequestV1(
        graph=_get_str(data, "graph"),
        k=k,
        schedules=tuple(schedules),
        engine=_get_str(data, "engine", "auto"),
        require_minimum_time=_get_bool(data, "require_minimum_time", True),
        vertex_disjoint=_get_bool(data, "vertex_disjoint", False),
    )


def decode_certificate_request(data: Any) -> CertificateRequestV1:
    if not isinstance(data, dict):
        raise _bad("request body must be a JSON object")
    _reject_unknown(data, ("construction", "sources"))
    sources = data.get("sources")
    if sources is not None:
        if not isinstance(sources, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in sources
        ):
            raise _bad("field 'sources' must be a list of integers or null")
        sources = tuple(sources)
    return CertificateRequestV1(
        construction=_get_str(data, "construction"),
        sources=sources,
    )
