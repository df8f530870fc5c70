"""Knödel graphs — the classic *minimum broadcast graphs* of class G₁.

Section 2 of the paper surveys class G₁ (1-mlbgs) and the literature on
minimum broadcast graphs [5,6,8,9,13,15,18,19,23].  The Knödel graph
``W_{Δ, N}`` (N even, 1 ≤ Δ ≤ ⌊log₂N⌋) is the canonical family:
``W_{⌊log₂N⌋, N}`` is a 1-mlbg for every even N, and for ``N = 2^ℓ`` it is
a *minimum* broadcast graph (fewest edges among 1-mlbgs).  At ``N = 2^ℓ``
its degree and edge count equal Q_ℓ's, but unlike the hypercube it remains
a 1-mlbg at every even order — the property the tests exercise.

Definition used (standard): vertices ``(i, j)`` with ``i ∈ {1, 2}`` and
``j ∈ {0, …, N/2 − 1}``; for ``d = 0..Δ−1``, vertex ``(1, j)`` is adjacent
to ``(2, (j + 2^d − 1) mod N/2)``.  We encode ``(i, j)`` as
``(i − 1)·N/2 + j``.

The natural broadcast scheme: in round ``r`` (1-based), every informed
vertex calls across dimension ``d = (r − 1) mod Δ``.  For N = 2^ℓ this
doubles the informed set every round from any source (verified by the
validator in tests — Knödel graphs are vertex-transitive enough for the
scheme to work from every source).
"""

from __future__ import annotations

from repro.frame import ScheduleBuilder
from repro.graphs.base import Graph
from repro.types import InvalidParameterError, Schedule

__all__ = ["knodel_graph", "knodel_dimension_neighbor", "knodel_broadcast"]


def knodel_dimension_neighbor(vertex: int, d: int, n_vertices: int) -> int:
    """The dimension-d neighbour of ``vertex`` in ``W_{Δ, n_vertices}``."""
    half = n_vertices // 2
    i, j = divmod(vertex, half)
    if i == 0:  # paper's i = 1
        return half + (j + (1 << d) - 1) % half
    return (j - (1 << d) + 1) % half


def knodel_graph(delta: int, n_vertices: int) -> Graph:
    """The Knödel graph ``W_{delta, n_vertices}`` (n_vertices even)."""
    if n_vertices < 2 or n_vertices % 2:
        raise InvalidParameterError(f"Knödel graphs need even N >= 2, got {n_vertices}")
    if not (1 <= delta <= (n_vertices).bit_length() - 1):
        raise InvalidParameterError(
            f"need 1 <= Δ <= ⌊log2 N⌋ = {(n_vertices).bit_length() - 1}, "
            f"got Δ={delta}"
        )
    edges = []
    half = n_vertices // 2
    for j in range(half):
        for d in range(delta):
            edges.append((j, half + (j + (1 << d) - 1) % half))
    return Graph(n_vertices, edges)


def knodel_broadcast(delta: int, n_vertices: int, source: int) -> Schedule:
    """The dimension-sweep broadcast schedule on ``W_{Δ, N}``.

    Round r uses dimension (r−1) mod Δ; every informed vertex calls its
    neighbour across that dimension, skipping calls to already-informed
    vertices (needed when N is not a power of two).  Produces ⌈log₂N⌉
    rounds; validity and minimum time are checked by the test-suite, not
    assumed.
    """
    import math

    if not (0 <= source < n_vertices):
        raise InvalidParameterError(f"source {source} out of range")
    rounds = math.ceil(math.log2(n_vertices))
    builder = ScheduleBuilder(source)
    informed = [source]
    informed_set = {source}
    for r in range(rounds):
        d = r % delta
        paths = []
        claimed: set[int] = set()
        for w in sorted(informed):
            v = knodel_dimension_neighbor(w, d, n_vertices)
            if v in informed_set or v in claimed:
                continue
            paths.append((w, v))
            claimed.add(v)
        builder.add_round(paths)
        informed.extend(claimed)
        informed_set |= claimed
    return Schedule.from_frame(builder.build())
