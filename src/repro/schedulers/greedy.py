"""Randomized capacity-aware heuristic line-broadcast scheduler.

For graphs too large for :mod:`repro.schedulers.search`, this builds a
minimum-time schedule by randomized greedy rounds with a *component
capacity* scorer, restarting on failure.

Per round, callers are processed in (shuffled) order; each caller picks a
target among the uninformed vertices reachable over still-unused edges
within distance k, minimizing a penalty that measures how close each
uninformed component would be to violating the capacity bound
``|C| ≤ b(C)·(2^r − 1)`` (b = informed boundary vertices, r = rounds
remaining).  That is exactly the prune of the exact searcher, used here
as a steering heuristic — it is what avoids the classic failure modes
(stranding a deep path tail; starving a branch of entries).

The scheduler is a thin strategy over the shared engine
(:mod:`repro.engine.kernels`): reachability, component labeling, and the
capacity scorer run on CSR-derived adjacency with integer-bitmask state,
and candidate probes are *incremental*.  Informing a vertex only splits
its own component, and only when it is a cut vertex of that component; so
a probe reads the component's cached cut vertices and lost-boundary
counts, flood-fills the pieces only for a cut vertex, and never scans the
whole graph.  A commit floods nothing either: a non-cut vertex keeps its
component's label, and a cut vertex reuses the pieces its probe flooded.
The needy-component pass asks each caller only for its nearest depth
(:meth:`~repro.engine.kernels.GraphKernels.nearest_depth`, a BFS that
stops at the first level holding an open member) and runs the full BFS
for the winner alone.  The component labelling that ends one round's
capacity check starts the next round.  None of this changes a draw of
the random stream or a probe's float, so schedules are byte-identical to
the flood-everything scorer's.  Successful attempts are checked by the
bitset fast validator before being returned.

The scheduler is *sound but incomplete*: every returned schedule is
validated; ``None`` only means "not found within the restart budget".
Farley's theorem [14] guarantees a minimum-time schedule exists for every
connected graph when k is unbounded, so on the Theorem-1 trees a ``None``
indicates the heuristic (not the paper) failed; the test-suite pins the
families where it is known to succeed.
"""

from __future__ import annotations

import random

from repro.engine.cache import fast_validator_for, kernels_for
from repro.engine.kernels import (
    UNREACHED,
    ComponentSummary,
    GraphKernels,
    PenaltyState,
)
from repro.frame import ScheduleBuilder
from repro.graphs.base import Graph
from repro.model.validator import minimum_broadcast_rounds
from repro.schedulers.registry import ScheduleRequest, positive_param, scheduler
from repro.types import InvalidParameterError, Schedule
from repro.util.bits import iter_bits, mask_from_indices, mask_to_indices

__all__ = ["heuristic_line_broadcast"]


def _final_round_by_flow(
    graph: Graph, informed: set[int], k: int
) -> list[tuple[int, ...]] | None:
    """Cover *all* remaining uninformed vertices in one round via max-flow
    path packing (the last round must inform everyone; greedy pairing is
    easily suboptimal there).  Returns the call paths, or None if packing
    falls short or some packed path exceeds k."""
    from repro.flows.paths import decompose_paths

    uninformed = set(graph.vertices()) - informed
    if not uninformed:
        return []
    if len(uninformed) > len(informed):
        return None
    paths = decompose_paths(graph, informed, uninformed)
    if len(paths) < len(uninformed):
        return None
    if any(len(p) - 1 > k for p in paths):
        return None
    return [tuple(p) for p in paths]


def _pick_target(
    candidates: list[int],
    pstate: PenaltyState,
    rng: random.Random,
    sample_cap: int,
) -> int | None:
    """The penalty-minimizing target for one caller (randomized sampling).

    Each probe is incremental (see :class:`PenaltyState`), not a graph
    re-scan."""
    if not candidates:
        return None
    if len(candidates) > sample_cap:
        candidates = rng.sample(candidates, sample_cap)
    best_v, best_score = None, None
    order = candidates[:]
    rng.shuffle(order)
    for v in order:
        score = pstate.probe(v)
        if best_score is None or score < best_score:
            best_v, best_score = v, score
    return best_v


def _build_round(
    kern: GraphKernels,
    informed_mask: int,
    summary: ComponentSummary,
    k: int,
    rounds_left_after: int,
    rng: random.Random,
    *,
    shuffle: bool,
    sample_cap: int = 24,
) -> list[tuple[int, ...]]:
    """One greedy round, as a list of call paths.  ``summary`` is
    ``kern.components(informed_mask)``.

    Strategy (the order matters — it encodes the scheduling insights the
    tight cases need):

    1. if this is the final round, try to cover every remaining vertex by
       max-flow path packing;
    2. serve *needy* components first — components that would violate the
       capacity bound if not entered this round get a caller assigned
       before anything else;
    3. remaining callers greedily pick penalty-minimizing targets.
    """
    n = kern.n
    uninformed_count = n - informed_mask.bit_count()
    if rounds_left_after == 0:
        flow_paths = _final_round_by_flow(kern.graph, set(iter_bits(informed_mask)), k)
        if flow_paths is not None:
            return flow_paths
    callers = mask_to_indices(informed_mask)
    if shuffle:
        rng.shuffle(callers)
    used_mask = 0
    claimed_mask = 0
    calls: list[tuple[int, ...]] = []
    pstate = PenaltyState(kern, informed_mask, rounds_left_after, summary=summary)
    remaining_callers = callers[:]

    def place(caller: int, path: tuple[int, ...]) -> None:
        nonlocal used_mask, claimed_mask
        target = path[-1]
        calls.append(path)
        claimed_mask |= 1 << target
        pstate.commit(target)
        used_mask |= kern.path_edges_mask(path)
        remaining_callers.remove(caller)

    # 1) needy components: must be entered this round or they die
    cap_after = (1 << rounds_left_after) - 1
    needy = [
        label
        for label in range(summary.n_components)
        if summary.sizes[label] > summary.boundaries[label] * cap_after
    ]
    needy.sort(
        key=lambda label: summary.sizes[label]
        / max(1, summary.boundaries[label]),
        reverse=True,
    )
    # Membership frozen at round start (pstate relabels as calls commit).
    needy_members = [summary.members(label).tolist() for label in needy]
    for members in needy_members:
        # prefer the *nearest* caller: a distant caller's path would cross
        # (and block) the territory of callers better placed to serve the
        # remaining needy components
        open_mask = mask_from_indices(members) & ~claimed_mask
        options: list[tuple[int, float, int]] = []
        reachers: list[int] = []
        for caller in remaining_callers:
            dist = kern.nearest_depth(caller, k, used_mask, open_mask)
            if dist is not None:
                options.append((dist, rng.random(), len(reachers)))
                reachers.append(caller)
        if not options:
            return []  # this attempt is doomed; fail fast and restart
        caller = reachers[min(options)[2]]
        parent, _order = kern.reachable(caller, k, used_mask)
        candidates = [
            v
            for v in members
            if parent[v] != UNREACHED and not (claimed_mask >> v) & 1
        ]
        target = _pick_target(candidates, pstate, rng, sample_cap)
        if target is None:  # the winner reaches an open member: cap < 1
            raise InvalidParameterError(f"sample_cap must be >= 1, got {sample_cap}")
        place(caller, kern.path_to(parent, target))

    # 2) everyone else: greedy penalty-minimizing targets
    for caller in remaining_callers[:]:
        if claimed_mask.bit_count() >= uninformed_count:
            break
        parent, order = kern.reachable(caller, k, used_mask)
        candidates = [
            v
            for v in order[1:]
            if not (informed_mask >> v) & 1 and not (claimed_mask >> v) & 1
        ]
        target = _pick_target(candidates, pstate, rng, sample_cap)
        if target is not None:
            place(caller, kern.path_to(parent, target))
    return calls


def heuristic_line_broadcast(
    graph: Graph,
    source: int,
    k: int | None = None,
    *,
    rounds: int | None = None,
    restarts: int = 300,
    seed: int = 0,
    rng: random.Random | None = None,
    sample_cap: int = 24,
) -> Schedule | None:
    """Attempt a minimum-time k-line broadcast schedule from ``source``.

    ``k = None`` means unbounded call length (the general line model of
    [14]; equivalently k = N−1).  Returns a schedule informing all
    vertices within ``rounds`` (default ⌈log₂N⌉) rounds, or ``None``.
    The result is a view over the frame its rounds were accumulated in
    (a :class:`~repro.frame.ScheduleBuilder`, never per-call objects).

    Randomness is fully explicit: attempt 0 is deterministic (sorted
    callers, seeded scorer); later attempts shuffle caller order and
    sample candidate targets from per-attempt generators derived either
    from ``seed`` or, when given, from the caller's ``rng`` — never from
    the module-global ``random`` state, so runs reproduce exactly across
    processes (``--jobs N``) and interleaved callers.

    Every successful attempt is re-checked by the bitset fast validator
    before being returned (belt-and-braces: the validator shares the
    engine's bitmask state representation, not its round construction).
    """
    kern = kernels_for(graph)
    if not kern.connected:
        raise InvalidParameterError("graph must be connected")
    if not (0 <= source < graph.n_vertices):
        raise InvalidParameterError(f"source {source} not a vertex")
    k_eff = k if k is not None else graph.n_vertices - 1
    if k_eff < 1:
        raise InvalidParameterError(f"need k >= 1, got {k_eff}")
    budget = minimum_broadcast_rounds(graph.n_vertices) if rounds is None else rounds
    n = graph.n_vertices
    validator = fast_validator_for(graph)
    # every attempt starts from {source}, so one labelling serves them all
    start_summary = kern.components(1 << source)
    for attempt in range(restarts):
        if rng is not None:
            attempt_rng = random.Random(rng.getrandbits(64))
        else:
            attempt_rng = random.Random((seed << 20) ^ attempt)
        informed_mask = 1 << source
        summary = start_summary
        builder = ScheduleBuilder(source)
        ok = True
        for r in range(budget):
            remaining_after = budget - r - 1
            paths = _build_round(
                kern,
                informed_mask,
                summary,
                k_eff,
                remaining_after,
                attempt_rng,
                shuffle=(attempt > 0),
                sample_cap=sample_cap,
            )
            uninformed_left = n - informed_mask.bit_count() - len(paths)
            if uninformed_left > 0 and not paths:
                ok = False
                break
            builder.add_round(paths)
            for p in paths:
                informed_mask |= 1 << p[-1]
            if informed_mask == kern.full_mask:
                break  # done — don't pad a surplus budget with empty rounds
            # early infeasibility: doubling + capacity prunes; the
            # labelling carries over to the next round
            summary = kern.components(informed_mask)
            if not kern.capacity_ok(informed_mask, remaining_after, summary=summary):
                ok = False
                break
        if ok and informed_mask == kern.full_mask:
            frame = builder.build()
            report = validator.validate(frame, k_eff, require_minimum_time=False)
            if report.ok:
                return Schedule.from_frame(frame)
    return None


@scheduler("greedy", "randomized capacity-aware heuristic (engine kernels)")
def _greedy_strategy(request: ScheduleRequest) -> tuple[Schedule | None, dict]:
    params = dict(request.params)
    restarts = positive_param(params, "restarts", 300)
    sample_cap = positive_param(params, "sample_cap", 24)
    if params:
        raise InvalidParameterError(f"greedy: unknown params {sorted(params)}")
    sched = heuristic_line_broadcast(
        request.graph,
        request.source,
        request.k,
        rounds=request.rounds,
        restarts=restarts,
        seed=request.seed,
        sample_cap=sample_cap,
    )
    return sched, {"restarts": restarts, "sample_cap": sample_cap}
