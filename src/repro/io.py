"""JSON serialization: graphs, schedules, and k-mlbg certificates.

A *certificate* is a machine-readable proof of Definition-3 membership:
the graph's edge list, the claimed k, and one minimum-time schedule per
source.  ``verify_certificate`` re-validates everything from the JSON
alone — so a certificate produced here can be checked by a third party
with no trust in the construction code.

Schedule payloads come in two versions:

* **v1** (``{"source": s, "rounds": [[path, ...], ...]}``) — the
  historical nested-lists form, still written by default inside
  certificates and always readable;
* **v2** (``repro-schedule/2``) — the columnar form mirroring
  :class:`repro.frame.ScheduleFrame` exactly: one flat ``path_verts``
  list plus ``call_offsets``/``round_offsets``.  Compact (no per-call
  nesting) and loadable straight into NumPy arrays without touching a
  single ``Call`` object.  ``schedule_from_dict`` sniffs the version.

``save_schedule``/``load_schedule`` wrap a v2 schedule together with its
graph and call-length bound into one self-contained file — what
``repro schedule --out`` writes and ``repro validate --schedule`` reads.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.frame import ScheduleBuilder, ScheduleFrame, as_frame
from repro.graphs.base import Graph
from repro.types import InvalidParameterError, InvalidScheduleError, Schedule

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.sparse_hypercube import SparseHypercube

__all__ = [
    "SCHEDULE_FORMAT_V2",
    "SCHEDULE_FILE_FORMAT",
    "graph_to_dict",
    "graph_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "frame_to_dict",
    "frame_from_dict",
    "save_schedule",
    "load_schedule",
    "certificate_for",
    "verify_certificate",
    "dump_certificate",
    "load_certificate",
]

SCHEDULE_FORMAT_V2 = "repro-schedule/2"
SCHEDULE_FILE_FORMAT = "repro-schedule-file/1"


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    return {
        "n_vertices": graph.n_vertices,
        "edges": [list(e) for e in graph.edges()],
    }


def graph_from_dict(data: dict[str, Any]) -> Graph:
    try:
        n = int(data["n_vertices"])
        edges = [(int(u), int(v)) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed graph payload: {exc}") from exc
    return Graph(n, edges)


def frame_to_dict(frame: ScheduleFrame | Schedule) -> dict[str, Any]:
    """The compact columnar (v2) payload of a schedule or frame."""
    frame = as_frame(frame)
    return {
        "format": SCHEDULE_FORMAT_V2,
        "source": frame.source,
        "path_verts": frame.path_verts.tolist(),
        "call_offsets": frame.call_offsets.tolist(),
        "round_offsets": frame.round_offsets.tolist(),
    }


def frame_from_dict(data: dict[str, Any]) -> ScheduleFrame:
    """Load a v2 payload straight into a frame (offsets are re-checked)."""
    if data.get("format") != SCHEDULE_FORMAT_V2:
        raise InvalidParameterError(
            f"not a {SCHEDULE_FORMAT_V2} payload: format="
            f"{data.get('format')!r}"
        )
    try:
        return ScheduleFrame(
            source=int(data["source"]),
            path_verts=np.asarray(data["path_verts"], dtype=np.int64),
            call_offsets=np.asarray(data["call_offsets"], dtype=np.int64),
            round_offsets=np.asarray(data["round_offsets"], dtype=np.int64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed schedule payload: {exc}") from exc


def schedule_to_dict(
    schedule: Schedule | ScheduleFrame, *, version: int = 1
) -> dict[str, Any]:
    """Serialize a schedule; ``version=2`` emits the columnar form.

    v1 stays the default so existing artifacts (certificates) remain
    byte-identical; both versions round-trip losslessly.
    """
    if version == 2:
        return frame_to_dict(schedule)
    if version != 1:
        raise InvalidParameterError(f"unknown schedule payload version {version}")
    frame = as_frame(schedule)
    verts = frame.path_verts.tolist()
    call_offsets = frame.call_offsets.tolist()
    round_offsets = frame.round_offsets.tolist()
    paths = [verts[a:b] for a, b in zip(call_offsets, call_offsets[1:])]
    return {
        "source": frame.source,
        "rounds": [paths[a:b] for a, b in zip(round_offsets, round_offsets[1:])],
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Deserialize a schedule payload of either version (sniffed).

    Version sniffing is explicit: a ``format`` marker must be the known
    v2 string, and its *absence* selects the legacy v1 ``rounds`` shape.
    Any other marker — a future version, a typo, a foreign payload — is
    an :class:`InvalidParameterError` naming the marker, never a bare
    ``KeyError`` from the v1 parser chewing on the wrong shape.  Both
    versions load into a frame, returned as a ``Schedule`` view over it.
    """
    marker = data.get("format")
    if marker == SCHEDULE_FORMAT_V2:
        return Schedule.from_frame(frame_from_dict(data))
    if marker is not None:
        raise InvalidParameterError(
            f"unknown schedule payload format {marker!r} "
            f"(this reader supports {SCHEDULE_FORMAT_V2} and the "
            "marker-less v1 rounds shape)"
        )
    try:
        builder = ScheduleBuilder(int(data["source"]))
        for rnd in data["rounds"]:
            builder.add_round(rnd)
        return Schedule.from_frame(builder.build())
    except (KeyError, TypeError, ValueError, InvalidScheduleError) as exc:
        raise InvalidParameterError(f"malformed schedule payload: {exc}") from exc


def save_schedule(
    path: str,
    graph: Graph,
    schedule: Schedule | ScheduleFrame,
    *,
    k: int | None = None,
) -> None:
    """Write one self-contained schedule file (graph + columnar schedule).

    ``k`` records the call-length bound the schedule claims to respect
    (``None`` = unbounded); ``repro validate --schedule FILE`` re-checks
    the claim without any other inputs.
    """
    payload = {
        "format": SCHEDULE_FILE_FORMAT,
        "k": k,
        "graph": graph_to_dict(graph),
        "schedule": frame_to_dict(schedule),
    }
    with open(path, "w", encoding="utf-8") as fh:
        # v1 bytes are pinned by golden tests: the payload is built in a
        # fixed key order and sorting now would change shipped artifacts.
        json.dump(payload, fh, separators=(",", ":"))  # repro-lint: disable=RL002


def _load_json(path: str) -> Any:
    """Parse one JSON file; undecodable bytes or malformed JSON raise
    :class:`InvalidParameterError` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"{path} is not valid JSON: {exc}") from exc


def load_schedule(path: str) -> tuple[Graph, ScheduleFrame, int | None]:
    """Read a file written by :func:`save_schedule`."""
    payload = _load_json(path)
    if not isinstance(payload, dict) or "format" not in payload:
        raise InvalidParameterError(
            f"{path} has no schedule-file version marker "
            f"(expected format={SCHEDULE_FILE_FORMAT!r})"
        )
    if payload["format"] != SCHEDULE_FILE_FORMAT:
        raise InvalidParameterError(
            f"{path} is not a {SCHEDULE_FILE_FORMAT} file "
            f"(format={payload['format']!r})"
        )
    graph = graph_from_dict(payload.get("graph", {}))
    frame = frame_from_dict(payload.get("schedule", {}))
    k = payload.get("k")
    return graph, frame, None if k is None else int(k)


def certificate_for(
    sh: "SparseHypercube", sources: list[int] | None = None
) -> dict[str, Any]:
    """A k-mlbg certificate for a sparse hypercube (all sources by
    default; pass a non-empty sample for large instances).

    Schedules come from the batch engine — generated once per coset of
    the translation group and XOR-translated to the remaining sources.
    Each row is put in per-source ``broadcast_schedule`` order (calls
    sorted by caller within each round; pinned by the property tests)
    and encoded straight from its arrays, so no ``Call`` object is
    built.  An empty ``sources`` list, or one that names a source twice,
    is an :class:`InvalidParameterError`: a certificate with no schedule
    proves nothing, and a repeated schedule proves nothing new."""
    from repro.engine.batch import all_sources_schedules

    if sources is not None and not len(sources):
        raise InvalidParameterError("a certificate needs at least one source")
    seen: set[int] = set()
    for source in sources or ():
        if source in seen:
            raise InvalidParameterError(f"certificate source {source} is listed twice")
        seen.add(source)
    srcs = sources if sources is not None else list(range(sh.n_vertices))
    by_source: dict[int, dict[str, Any]] = {}
    for stack in all_sources_schedules(sh, srcs):
        for i in range(stack.n_schedules):
            frame = stack.to_frame(i, sort_calls=True)
            by_source[frame.source] = schedule_to_dict(frame)
    return {
        "format": "repro-kmlbg-certificate/1",
        "k": sh.k,
        "n": sh.n,
        "thresholds": list(sh.thresholds),
        "graph": graph_to_dict(sh.graph),
        "schedules": [by_source[s] for s in srcs],
    }


def verify_certificate(payload: dict[str, Any]) -> bool:
    """Re-validate a certificate from its JSON-compatible payload alone.

    Each schedule loads as a frame (:func:`schedule_from_dict`) and is
    validated through :func:`repro.api.validate` (engine ``auto``,
    verdict-identical to the reference validator).  A certificate with
    no schedules is not a proof, so it verifies as False."""
    from repro.api import validate as api_validate

    if payload.get("format") != "repro-kmlbg-certificate/1":
        raise InvalidParameterError("unknown certificate format")
    graph = graph_from_dict(payload["graph"])
    k = int(payload["k"])
    schedules = [schedule_from_dict(d) for d in payload["schedules"]]
    reports = api_validate(graph, schedules, k)
    assert isinstance(reports, list)  # a list input yields a report list
    return bool(reports) and all(r.ok for r in reports)


def dump_certificate(payload: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # v1 bytes are pinned by golden tests (see save_schedule).
        json.dump(payload, fh, separators=(",", ":"))  # repro-lint: disable=RL002


def load_certificate(path: str) -> dict[str, Any]:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise InvalidParameterError(f"{path} does not hold a JSON object")
    return payload
