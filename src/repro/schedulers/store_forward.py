"""The k = 1 (store-and-forward) baseline: binomial broadcast on ``Q_n``.

Under 1-line communication (each vertex calls one *neighbour* per round),
the binary n-cube broadcasts in exactly n = log₂N rounds by the classic
binomial-tree schedule: in round t every informed vertex calls its
neighbour across dimension ``n − t + 1``.  This is the minimum-time
property the paper's constructions *preserve* while deleting edges —
experiment E16 contrasts Δ(Q_n) = n at k = 1 against the sparse
hypercube's Δ = O(ᵏ√n) at k ≥ 2, and shows the sparse hypercube is *not*
a 1-mlbg (the deleted dimension edges are irreplaceable at k = 1).
"""

from __future__ import annotations

from repro.frame import ScheduleBuilder
from repro.schedulers.registry import ScheduleRequest, scheduler
from repro.types import InvalidParameterError, Schedule
from repro.util.bits import flip_dim

__all__ = ["binomial_hypercube_broadcast", "dimension_order_broadcast"]


def binomial_hypercube_broadcast(n: int, source: int) -> Schedule:
    """The classic binomial broadcast schedule on ``Q_n`` from ``source``.

    Round t (1-indexed) has every informed vertex call across dimension
    ``n − t + 1``; all calls are length-1 hypercube edges, trivially
    edge-disjoint (distinct dimensions per round partition the cube).
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if not (0 <= source < (1 << n)):
        raise InvalidParameterError(f"source {source} not a vertex of Q_{n}")
    return dimension_order_broadcast(n, source, list(range(n, 0, -1)))


def dimension_order_broadcast(n: int, source: int, dims: list[int]) -> Schedule:
    """Binomial broadcast using an arbitrary permutation of dimensions.

    Any permutation works on the complete cube — a property tests exercise;
    the sparse hypercube's Phase-2 uses the descending order on its core
    dims only.
    """
    if sorted(dims) != list(range(1, n + 1)):
        raise InvalidParameterError(f"dims must be a permutation of 1..{n}, got {dims}")
    builder = ScheduleBuilder(source)
    informed = [source]
    for dim in dims:
        paths = [(w, flip_dim(w, dim)) for w in sorted(informed)]
        builder.add_round(paths)
        informed.extend(p[-1] for p in paths)
    return Schedule.from_frame(builder.build())


@scheduler("store_forward", "binomial k=1 broadcast (complete hypercubes only)")
def _store_forward_strategy(request: ScheduleRequest) -> tuple[Schedule | None, dict]:
    if request.params:
        raise InvalidParameterError(
            f"store_forward: unknown params {sorted(request.params)}"
        )
    graph = request.graph
    size = graph.n_vertices
    n = size.bit_length() - 1
    if size < 2 or size != (1 << n):
        raise InvalidParameterError(
            f"store_forward needs a complete hypercube, got N={size}"
        )
    if graph.n_edges != n * (1 << (n - 1)) or any(
        (u ^ v).bit_count() != 1 for u, v in graph.edges()
    ):
        raise InvalidParameterError(
            "store_forward needs a complete hypercube "
            f"(N={size} vertices but the edges are not Q_{n}'s)"
        )
    if request.rounds is not None and request.rounds < n:
        return None, {"dimensions": n, "reason": f"Q_{n} needs {n} rounds at k=1"}
    return binomial_hypercube_broadcast(n, request.source), {"dimensions": n}
