"""The public facade: one module for the whole schedule pipeline.

Everything a consumer needs to build graphs, produce broadcast
schedules, validate them, and export machine-checkable artifacts lives
behind a handful of functions::

    import repro.api as api

    result = api.schedule("hypercube:4", scheduler="greedy", k=2, seed=1)
    report = api.validate("hypercube:4", result.frame, k=2)
    assert report.ok
    cert = api.certificate("sparse:8:3")          # Construct_BASE(8, 3)

Every entry point is *spec-or-object agnostic*: ``schedule`` and
``validate`` take a textual graph spec (``family:arg[:arg...]``, see
:func:`build_graph`) or a :class:`~repro.graphs.base.Graph`;
``certificate`` takes a construction spec (``sparse:N[:M...]``, see
:func:`construction`) or a built
:class:`~repro.core.sparse_hypercube.SparseHypercube`.  The CLI, the
campaign runner, and the ``repro serve`` daemon all funnel through this
one parsing path, so a spec string means the same thing everywhere.

The interchange format between the stages is the columnar
:class:`~repro.frame.ScheduleFrame`; the object API
(:class:`~repro.types.Schedule`) remains available everywhere as a lazy
view over a frame, and every function here accepts both.

Engine selection (``api.validate(..., engine=...)``)
----------------------------------------------------

``"reference"``
    the pure-Python oracle (:mod:`repro.model.validator`): walks every
    call with sets and per-edge lookups.  Legible, slow, and the
    repository's source of truth.
``"fast"``
    the NumPy validator (:mod:`repro.model.validator_fast`), the one
    validation engine.  Verdicts, error strings, and statistics are
    identical to the reference (failing schedules are reported from
    arrays in the reference's words; pinned by the property tests), at
    vectorized speed.
``"batch"``
    an alias of ``"fast"``, kept so CLI flags and v1 wire requests that
    name it keep working.
``"auto"`` (default)
    ``fast``, with the per-graph edge-key arrays shared through the
    process-wide engine cache.  Because the engines agree exactly, the
    choice never changes a verdict — only its speed.

All functions raise :class:`repro.types.ReproError` subtypes on invalid
input, matching the rest of the library.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.frame import ScheduleFrame, as_frame
from repro.graphs.base import Graph
from repro.model.validator import ValidationReport
from repro.types import InvalidParameterError, Schedule

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.analysis.campaigns import CampaignSpec
    from repro.core.sparse_hypercube import SparseHypercube
    from repro.schedulers.registry import ScheduleResult

__all__ = [
    "ENGINES",
    "build_graph",
    "construction",
    "schedule",
    "validate",
    "certificate",
    "run_campaign",
    "frames_of",
]

ENGINES = ("auto", "reference", "fast", "batch")


def build_graph(spec: str | Graph) -> Graph:
    """A graph from a textual spec (``family:arg[:arg...]``).

    Known families come from :mod:`repro.graphs.specs` (``hypercube:N``,
    ``sparse:N:M``, ``theorem1:K``, ``path:N``, ``random-tree:N:SEED``,
    …).  A ``Graph`` passes through unchanged, so callers can be
    spec-or-graph agnostic.
    """
    if isinstance(spec, Graph):
        return spec
    from repro.graphs.specs import graph_from_spec

    return graph_from_spec(spec)


def construction(spec: "str | SparseHypercube") -> "SparseHypercube":
    """A :class:`SparseHypercube` from a textual construction spec.

    The grammar mirrors the graph-spec family of the same name, but
    keeps the construction object (thresholds, levels, ``Broadcast_k``)
    instead of flattening to its edge set::

        sparse:N              Construct_BASE(N, m*)   m* = Theorem-5 optimum
        sparse:N:M            Construct_BASE(N, M)    k = 2
        sparse:N:M1:...:Mj    Construct(j+1, N, (M1..Mj))

    A built ``SparseHypercube`` passes through unchanged, so callers can
    be spec-or-object agnostic (the :func:`build_graph` convention).
    """
    from repro.core.sparse_hypercube import SparseHypercube

    if isinstance(spec, SparseHypercube):
        return spec
    parts = spec.split(":")
    if parts[0] != "sparse":
        raise InvalidParameterError(
            f"unknown construction spec {spec!r}; expected sparse:N[:M...]"
        )
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError:
        raise InvalidParameterError(
            f"construction spec {spec!r}: arguments must be integers"
        ) from None
    if not args:
        raise InvalidParameterError(
            f"construction spec {spec!r} needs at least the dimension N"
        )
    from repro.core.construct import construct, construct_base
    from repro.core.params import theorem5_m_star

    n, thresholds = args[0], tuple(args[1:])
    if not thresholds:
        return construct_base(n, theorem5_m_star(n))
    if len(thresholds) == 1:
        return construct_base(n, thresholds[0])
    return construct(len(thresholds) + 1, n, thresholds)


def schedule(
    graph: str | Graph,
    scheduler: str = "greedy",
    *,
    source: int = 0,
    k: int | None = None,
    rounds: int | None = None,
    seed: int = 0,
    params: Mapping[str, Any] | None = None,
    validate_result: bool = True,
) -> "ScheduleResult":
    """Run one registered scheduling strategy; returns its
    :class:`~repro.schedulers.registry.ScheduleResult`.

    The result carries a found schedule as its columnar ``frame`` (the
    canonical interchange format) and as ``schedule``, the object view
    over that same frame.  ``validate_result=True`` (default) checks the
    result through :func:`validate` before it is returned.
    """
    from repro.schedulers.registry import ScheduleRequest, run_scheduler

    request = ScheduleRequest(
        graph=build_graph(graph),
        source=source,
        k=k,
        rounds=rounds,
        seed=seed,
        params=dict(params) if params else {},
    )
    return run_scheduler(scheduler, request, validate=validate_result)


def _validator(graph: Graph, engine: str) -> Callable[..., ValidationReport]:
    """The ``(schedule, k, **flags) -> report`` callable ``engine`` names."""
    if engine == "reference":
        from repro.model.validator import validate_broadcast

        return partial(validate_broadcast, graph)
    from repro.engine.cache import fast_validator_for

    return fast_validator_for(graph).validate


def validate(
    graph: str | Graph,
    schedules: "Schedule | ScheduleFrame | Iterable[Schedule | ScheduleFrame]",
    k: int,
    *,
    engine: str = "auto",
    require_minimum_time: bool = True,
    vertex_disjoint: bool = False,
) -> ValidationReport | list[ValidationReport]:
    """Validate schedule(s) against Definition 1 on ``graph`` under ``k``.

    ``graph`` is a textual spec or a :class:`Graph` (the
    :func:`build_graph` convention).
    ``schedules`` may be a single :class:`~repro.types.Schedule` or
    :class:`~repro.frame.ScheduleFrame` (returns one
    :class:`~repro.model.validator.ValidationReport`) or a list of
    either (returns a list of reports in input order); anything else,
    alone or in the list, raises :class:`InvalidParameterError`.
    ``engine`` selects the implementation — see the module docstring;
    every engine produces byte-identical verdicts and error strings.
    """
    if engine not in ENGINES:
        raise InvalidParameterError(
            f"unknown engine {engine!r}; known: {', '.join(ENGINES)}"
        )
    graph = build_graph(graph)
    check = _validator(graph, engine)
    flags = {
        "require_minimum_time": require_minimum_time,
        "vertex_disjoint": vertex_disjoint,
    }
    if isinstance(schedules, (Schedule, ScheduleFrame)):
        return check(schedules, k, **flags)
    try:
        items = iter(schedules)
    except TypeError:
        raise InvalidParameterError(
            "expected a Schedule, a ScheduleFrame or an iterable of them, "
            f"got {type(schedules).__name__}"
        ) from None
    return [check(item, k, **flags) for item in items]


def certificate(
    sh: "str | SparseHypercube", sources: Sequence[int] | None = None
) -> dict[str, Any]:
    """A machine-checkable k-mlbg certificate for a sparse hypercube.

    ``sh`` is a built :class:`SparseHypercube` or a textual construction
    spec (``sparse:N[:M...]``, see :func:`construction`).  Schedules
    come from the batch all-sources engine (coset-translated
    generation); :func:`repro.io.verify_certificate` re-validates the
    payload from JSON alone.
    """
    from repro.io import certificate_for

    return certificate_for(
        construction(sh), list(sources) if sources is not None else None
    )


def run_campaign(
    spec: "str | CampaignSpec",
    *,
    shard: tuple[int, int] = (0, 1),
    out_dir: str = "campaign-results",
    jobs: int = 1,
    cache_dir: str | None = None,
) -> list[dict[str, Any]]:
    """Execute one shard of a scenario campaign; returns the result rows.

    ``spec`` is a built-in campaign name, a path to a campaign JSON
    file, or a :class:`~repro.analysis.campaigns.CampaignSpec`.  Chunks
    and provenance manifests land in ``out_dir`` exactly as with
    ``repro campaign run`` (merge shards with
    :func:`repro.analysis.campaigns.merge_chunks`).
    """
    from repro.analysis import campaigns

    if isinstance(spec, str):
        spec = campaigns.load_campaign(spec)
    _chunk, _manifest, rows = campaigns.run_campaign_shard(
        spec, shard=shard, out_dir=out_dir, jobs=jobs, cache_dir=cache_dir
    )
    return rows


def frames_of(results: Iterable[Any]) -> list[ScheduleFrame]:
    """Convenience: the frames of an iterable of schedules/frames/results."""
    out: list[ScheduleFrame] = []
    for item in results:
        frame = getattr(item, "frame", None)
        out.append(frame if frame is not None else as_frame(item))
    return out
