"""Theorem 1: bounded-degree trees are k-mlbgs for large k.

The construction (Fig. 1): a centre vertex with three complete binary
trees of height ``h − 1`` attached — ``N = 3·2^h − 2`` vertices, Δ = 3,
every pairwise distance ≤ 2h.  Since the graph is a tree, every call uses
the unique path between its endpoints, so for ``k ≥ 2h`` the call-length
constraint never binds and Theorem 1 states the tree lies in ``G_{2h}``.

The paper proves existence by citing the line-broadcast theorem of [14];
here we *find* the schedules: exact branch-and-bound for small h,
randomized capacity-aware heuristic above that, both independently
validated against Definition 1, because neither search is trusted to be
correct by construction.
"""

from __future__ import annotations

from repro.graphs.base import Graph
from repro.graphs.trees import balanced_ternary_core_tree, ternary_core_tree_order
from repro.model.validator import assert_valid_broadcast, minimum_broadcast_rounds
from repro.schedulers.registry import ScheduleRequest, run_scheduler
from repro.types import InvalidParameterError, ReproError, Schedule

__all__ = [
    "theorem1_tree",
    "theorem1_k",
    "theorem1_tree_broadcast",
    "verify_theorem1_instance",
]


def theorem1_tree(h: int) -> Graph:
    """The Theorem-1 tree for parameter ``h ≥ 1`` (alias of the generator
    in :mod:`repro.graphs.trees`, re-exported here as part of the core
    API)."""
    return balanced_ternary_core_tree(h)


def theorem1_k(h: int) -> int:
    """The call length for which Theorem 1 claims membership: ``k = 2h``
    (= the tree's diameter bound)."""
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    return 2 * h


def theorem1_tree_broadcast(
    tree: Graph,
    source: int,
    *,
    h: int | None = None,
    k: int | None = None,
    exact_limit: int = 10,
    restarts: int = 600,
    seed: int = 0,
) -> Schedule:
    """A minimum-time k-line broadcast schedule on a Theorem-1 tree.

    When ``h`` is given (the tree is ``B_h``), uses the explicit
    constructive scheme of :mod:`repro.core.tree_scheme` — valid for every
    source and every h, with calls of length ≤ max(2, h).  Otherwise falls
    back to exact search (tiny trees) or the randomized heuristic.  The
    returned schedule is always validated before being handed back.
    """
    k_eff = k if k is not None else tree.n_vertices - 1
    schedule: Schedule | None
    if h is not None:
        from repro.core.tree_scheme import ternary_tree_schedule

        schedule = ternary_tree_schedule(h, source)
    elif tree.n_vertices <= exact_limit:
        schedule = run_scheduler(
            "search",
            ScheduleRequest(graph=tree, source=source, k=k_eff),
            validate=False,
        ).schedule
    else:
        schedule = run_scheduler(
            "greedy",
            ScheduleRequest(
                graph=tree,
                source=source,
                k=k_eff,
                seed=seed,
                params={"restarts": restarts},
            ),
            validate=False,
        ).schedule
    if schedule is None:
        raise ReproError(
            f"no minimum-time schedule found (N={tree.n_vertices}, "
            f"source={source}, k={k_eff}); Theorem 1 guarantees existence — "
            f"increase the search budget"
        )
    assert_valid_broadcast(tree, schedule, k_eff)
    return schedule


def verify_theorem1_instance(
    h: int, *, sources: list[int] | None = None, seed: int = 0
) -> dict:
    """Machine-check Theorem 1 for one ``h``: structure + schedules.

    Returns a report dict used by experiment E01:
    ``{'h', 'n_vertices', 'max_degree', 'diameter', 'k', 'rounds',
    'sources_checked'}``.
    """
    tree = theorem1_tree(h)
    k = theorem1_k(h)
    n = tree.n_vertices
    if n != ternary_core_tree_order(h):
        raise ReproError(f"order mismatch at h={h}")
    diameter = tree.diameter()
    if diameter > 2 * h:
        raise ReproError(f"diameter {diameter} exceeds 2h={2*h} at h={h}")
    if tree.max_degree() > 3:
        raise ReproError(f"max degree {tree.max_degree()} exceeds 3 at h={h}")
    srcs = sources if sources is not None else list(range(n))
    rounds = minimum_broadcast_rounds(n)
    for s in srcs:
        schedule = theorem1_tree_broadcast(tree, s, h=h, k=k, seed=seed)
        if len(schedule.rounds) != rounds:
            raise ReproError(
                f"schedule from {s} used {len(schedule.rounds)} rounds, "
                f"minimum is {rounds}"
            )
    return {
        "h": h,
        "n_vertices": n,
        "max_degree": tree.max_degree(),
        "diameter": diameter,
        "k": k,
        "rounds": rounds,
        "sources_checked": len(srcs),
    }
