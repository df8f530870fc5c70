"""Exact minimum-time k-line broadcast search (small graphs).

A complete branch-and-bound over round-by-round call assignments under
Definition 1.  Capable of both:

* **finding** a schedule meeting a round budget (used to reproduce the
  existence claims — Theorem 1 for small trees, spot-checks that specific
  sparse hypercubes really are k-mlbgs without trusting the schemes), and
* **refuting**: a ``None`` return with the default exhaustive settings is
  a proof that no schedule within the round budget exists — this is what
  lets tests show, e.g., that ``Q_4`` minus too many edges stops being a
  2-mlbg, or that the star is *not* a 1-mlbg.

Pruning:

* global doubling: with r rounds left, ``|U| ≤ |I|·(2^r − 1)`` must hold;
* per-component capacity: a connected component C of the uninformed
  subgraph with boundary b(C) informed neighbours satisfies
  ``|C| ≤ b(C)·(2^r − 1)`` (each round at most b(C) calls enter C, and
  the informed inside at most double);
* memoized failed states (informed-set × round);
* a global node budget (exceeding it raises — so ``None`` is always a
  certificate, never a timeout in disguise).

Since PR 2 the search runs on the shared engine
(:mod:`repro.engine.kernels`): path enumeration and the capacity prunes
are CSR-native, and *all* state — informed sets, used edges, claimed
receivers, and the failed-state memo keys — is integer bitmasks, the same
representation as the fast validator.  The bitmask memo replaces the old
``frozenset`` keys: smaller, hash-cheaper, and shared with the engine.
Enumeration order is unchanged, so refutation certificates and found
schedules are identical to the legacy implementation.

Complexity is exponential; intended for N ≲ 24 and small k.
"""

from __future__ import annotations

from repro.engine.cache import kernels_for
from repro.frame import ScheduleBuilder
from repro.graphs.base import Graph
from repro.model.validator import minimum_broadcast_rounds
from repro.schedulers.registry import ScheduleRequest, positive_param, scheduler
from repro.types import InvalidParameterError, ReproError, Schedule
from repro.util.bits import mask_to_indices

__all__ = [
    "SearchBudgetExceeded",
    "find_minimum_time_schedule",
    "minimum_kline_rounds",
    "is_k_mlbg_exact",
]


class SearchBudgetExceeded(ReproError):
    """The exact search ran out of its node budget (result unknown).

    The request's budget is at fault, not the server: the service
    answers it 422, like an invalid schedule.
    """

    code = "search-budget-exceeded"


def find_minimum_time_schedule(
    graph: Graph,
    source: int,
    k: int,
    *,
    rounds: int | None = None,
    node_budget: int = 2_000_000,
) -> Schedule | None:
    """A k-line broadcast schedule from ``source`` within ``rounds`` rounds
    (default: the minimum ⌈log₂N⌉), or ``None`` if provably none exists.

    Raises :class:`SearchBudgetExceeded` if the search tree outgrows
    ``node_budget`` — so a ``None`` return is always a certificate.
    """
    if not graph.is_connected():
        raise InvalidParameterError("graph must be connected")
    if not (0 <= source < graph.n_vertices):
        raise InvalidParameterError(f"source {source} not a vertex")
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    budget = minimum_broadcast_rounds(graph.n_vertices) if rounds is None else rounds
    n = graph.n_vertices
    kern = kernels_for(graph)
    full = kern.full_mask
    # Failed (informed, round) states keyed by bitmask int — the engine's
    # shared state encoding (was: frozenset keys).
    failed: set[tuple[int, int]] = set()
    nodes = 0

    def solve(informed: int, r: int) -> list[list[tuple[int, ...]]] | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"exact search exceeded {node_budget} nodes "
                f"(graph N={n}, k={k}, rounds={budget})"
            )
        if informed == full:
            return []
        if r == budget or not kern.capacity_ok(informed, budget - r):
            return None
        key = (informed, r)
        if key in failed:
            return None
        callers = mask_to_indices(informed)
        targets_all = full ^ informed
        result: list[list[tuple[int, ...]]] | None = None

        def assign(
            idx: int,
            used: int,
            claimed: int,
            calls: list[tuple[int, ...]],
        ) -> bool:
            nonlocal result
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(f"exact search exceeded {node_budget} nodes")
            if idx == len(callers):
                if not calls:
                    return False  # no progress: dead round
                new_informed = informed
                for p in calls:
                    new_informed |= 1 << p[-1]
                rest = solve(new_informed, r + 1)
                if rest is not None:
                    result = [calls[:]] + rest
                    return True
                return False
            caller = callers[idx]
            available = targets_all & ~claimed
            for path in kern.enumerate_paths(caller, k, used, available):
                edges = kern.path_edges_mask(path)
                calls.append(path)
                if assign(idx + 1, used | edges, claimed | (1 << path[-1]), calls):
                    return True
                calls.pop()
            # caller idles
            return assign(idx + 1, used, claimed, calls)

        if assign(0, 0, 0, []):
            assert result is not None
            return result
        failed.add(key)
        return None

    rounds_paths = solve(1 << source, 0)
    if rounds_paths is None:
        return None
    builder = ScheduleBuilder(source)
    for paths in rounds_paths:
        builder.add_round(paths)
    return Schedule.from_frame(builder.build())


def minimum_kline_rounds(
    graph: Graph,
    source: int,
    k: int,
    *,
    max_rounds: int | None = None,
    node_budget: int = 2_000_000,
) -> int:
    """The exact minimum number of rounds to broadcast from ``source``
    under k-line communication (small graphs)."""
    lo = minimum_broadcast_rounds(graph.n_vertices)
    hi = max_rounds if max_rounds is not None else graph.n_vertices
    for r in range(lo, hi + 1):
        if (
            find_minimum_time_schedule(
                graph, source, k, rounds=r, node_budget=node_budget
            )
            is not None
        ):
            return r
    raise InvalidParameterError(
        f"no broadcast within {hi} rounds — graph disconnected?"
    )


def is_k_mlbg_exact(graph: Graph, k: int, *, node_budget: int = 2_000_000) -> bool:
    """Definition 3, checked exhaustively: every vertex admits a
    minimum-time k-line broadcast scheme.  Exponential; small graphs only."""
    for source in range(graph.n_vertices):
        if (
            find_minimum_time_schedule(graph, source, k, node_budget=node_budget)
            is None
        ):
            return False
    return True


@scheduler("search", "exact branch-and-bound (engine kernels, certificate on None)")
def _search_strategy(request: ScheduleRequest) -> tuple[Schedule | None, dict]:
    params = dict(request.params)
    node_budget = positive_param(params, "node_budget", 2_000_000)
    if params:
        raise InvalidParameterError(f"search: unknown params {sorted(params)}")
    sched = find_minimum_time_schedule(
        request.graph,
        request.source,
        request.k_effective,
        rounds=request.rounds,
        node_budget=node_budget,
    )
    return sched, {"node_budget": node_budget, "exhaustive": sched is None}
