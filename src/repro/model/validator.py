"""Schedule validation against Definition 1 (k-line communication).

The validator is the repository's source of truth: *nothing* produced by
the constructions or schedulers is trusted by construction.  Theorem 4
("Broadcast_2 is a minimum-time 2-line broadcast scheme") and Theorem 6
(the Broadcast_k analogue) are machine-checked by running the scheme and
validating the result here, for every (or a sampled set of) source(s).

Checked conditions, per round:

  V1. every call's path is a real path of the graph;
  V2. every call has length between 1 and k;
  V3. the calling vertex is informed when it calls;
  V4. no vertex places more than one call in a round (Definition 1(2));
  V5. no two calls in a round share an edge (Definition 1(3));
  V6. no two calls in a round share a receiver (Definition 1(3)),
      and no receiver is already informed (broadcast usefulness);

and globally:

  V7. after the last round every vertex is informed;
  V8. the round count equals ⌈log₂ N⌉ (Definition 2, "minimum time"),
      when ``require_minimum_time`` is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.frame import ScheduleFrame, as_schedule
from repro.graphs.base import Graph
from repro.types import Edge, InvalidScheduleError, Round, Schedule

__all__ = [
    "ValidationReport",
    "validate_round",
    "validate_broadcast",
    "assert_valid_broadcast",
    "minimum_broadcast_rounds",
    "verify_k_mlbg_via_scheme",
]


def minimum_broadcast_rounds(n_vertices: int) -> int:
    """⌈log₂ N⌉ — the information-theoretic lower bound on broadcast time."""
    if n_vertices < 1:
        raise InvalidScheduleError(f"graph must have vertices, got {n_vertices}")
    return math.ceil(math.log2(n_vertices)) if n_vertices > 1 else 0


@dataclass
class ValidationReport:
    """Outcome of validating a schedule."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    rounds: int = 0
    informed_per_round: list[int] = field(default_factory=list)
    max_call_length: int = 0

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise InvalidScheduleError(
                "; ".join(self.errors[:10])
                + (f" (+{len(self.errors) - 10} more)" if len(self.errors) > 10 else "")
            )


def validate_round(
    graph: Graph,
    rnd: Round,
    informed: set[int],
    k: int,
    *,
    round_index: int = 0,
    vertex_disjoint: bool = False,
) -> list[str]:
    """Check conditions V1–V6 for one round; returns error strings.

    ``vertex_disjoint=True`` additionally enforces the stricter variant the
    paper's Section 5 proposes as future work: simultaneous calls must not
    share *any* vertex (so no switching through a common intermediate).
    """
    errors: list[str] = []
    used_edges: set[Edge] = set()
    used_vertices: set[int] = set()
    receivers: set[int] = set()
    callers: set[int] = set()
    for call in rnd:
        tag = f"round {round_index}, call {call.source}->{call.receiver}"
        if not graph.path_is_valid(call.path):
            errors.append(f"{tag}: path {call.path} is not a path of the graph")
            continue
        if call.length > k:
            errors.append(f"{tag}: length {call.length} exceeds k={k}")
        if call.source not in informed:
            errors.append(f"{tag}: caller is not informed")
        if call.source in callers:
            errors.append(f"{tag}: vertex {call.source} places a second call")
        callers.add(call.source)
        if call.receiver in receivers:
            errors.append(f"{tag}: receiver already targeted this round")
        if call.receiver in informed:
            errors.append(f"{tag}: receiver already informed")
        receivers.add(call.receiver)
        for e in call.edges():
            if e in used_edges:
                errors.append(f"{tag}: edge {e} used by another call this round")
            used_edges.add(e)
        if vertex_disjoint:
            overlap = used_vertices.intersection(call.path)
            if overlap:
                errors.append(
                    f"{tag}: vertices {sorted(overlap)} shared with another "
                    f"call (vertex-disjoint mode)"
                )
            used_vertices.update(call.path)
    return errors


def validate_broadcast(
    graph: Graph,
    schedule: Schedule | ScheduleFrame,
    k: int,
    *,
    require_minimum_time: bool = True,
    vertex_disjoint: bool = False,
) -> ValidationReport:
    """Check V1–V8 for a complete broadcast schedule.

    ``vertex_disjoint=True`` checks the Section-5 vertex-disjoint variant
    of the model (see :func:`validate_round`).  Accepts a columnar
    :class:`~repro.frame.ScheduleFrame` as well — the reference path
    materializes the object view and walks it call by call (that
    legibility is the point of the oracle; array-speed lives in
    :mod:`repro.model.validator_fast`).
    """
    schedule = as_schedule(schedule)
    report = ValidationReport(ok=True, rounds=len(schedule.rounds))
    if not (0 <= schedule.source < graph.n_vertices):
        report.errors.append(f"source {schedule.source} not a vertex")
        report.ok = False
        return report
    informed = {schedule.source}
    max_len = 0
    for idx, rnd in enumerate(schedule.rounds, start=1):
        errs = validate_round(
            graph, rnd, informed, k, round_index=idx, vertex_disjoint=vertex_disjoint
        )
        report.errors.extend(errs)
        for call in rnd:
            informed.add(call.receiver)
            max_len = max(max_len, call.length)
        report.informed_per_round.append(len(informed))
    report.max_call_length = max_len
    if len(informed) != graph.n_vertices:
        report.errors.append(
            f"broadcast incomplete: {len(informed)} of {graph.n_vertices} informed"
        )
    if require_minimum_time:
        need = minimum_broadcast_rounds(graph.n_vertices)
        if len(schedule.rounds) != need:
            report.errors.append(
                f"schedule uses {len(schedule.rounds)} rounds, minimum time is {need}"
            )
    report.ok = not report.errors
    return report


def assert_valid_broadcast(
    graph: Graph, schedule: Schedule, k: int, *, require_minimum_time: bool = True
) -> ValidationReport:
    """Validate and raise :class:`InvalidScheduleError` on failure."""
    report = validate_broadcast(
        graph, schedule, k, require_minimum_time=require_minimum_time
    )
    report.raise_if_invalid()
    return report


def verify_k_mlbg_via_scheme(sh, sources: list[int] | None = None) -> bool:
    """Machine-check Definition 3 for a sparse hypercube via its scheme.

    Runs ``Broadcast_k`` from each source (all of them when ``sources`` is
    None) and validates under call-length bound ``sh.k``.  Returning True
    certifies membership in ``G_k`` *constructively* — this is the
    executable content of Theorems 4 and 6.

    The sweep runs on the batch all-sources engine (coset-translated
    generation + the fast validator).  Per-source verdicts equal the
    reference's by construction (pinned by the property tests), but the
    oracle stays in the loop in both directions: a *positive* answer is
    spot-checked by running a handful of the swept sources through this
    module's reference validator, and every *failing* source is re-checked
    against the reference before the sweep is allowed to answer False.
    """
    from repro.core.broadcast import broadcast_schedule
    from repro.engine.batch import validate_all_sources

    outcome = validate_all_sources(sh, k=sh.k, sources=sources)
    graph = sh.graph
    if outcome.all_ok:
        swept = outcome.sources
        if not swept:
            return True
        spots = {swept[0], swept[len(swept) // 2], swept[-1]}
        return all(
            validate_broadcast(graph, broadcast_schedule(sh, s), sh.k).ok
            for s in spots
        )
    for s, ok in zip(outcome.sources, outcome.ok):
        if not ok:
            schedule = broadcast_schedule(sh, s)
            if not validate_broadcast(graph, schedule, sh.k).ok:
                return False
    return True
