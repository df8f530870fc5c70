"""Edge-failure injection and broadcast repair (robustness ablation E19).

Sparse graphs buy low degree with low redundancy; this module measures the
price.  Given a sparse hypercube and a set of failed edges we attempt to
re-derive a minimum-time schedule with failure-aware routing:

* a **direct** Phase-1 call whose edge failed falls back to relaying
  (Condition A still offers relays unless they also failed);
* a **relayed** call tries every relay candidate (not just the canonical
  tie-break), in deterministic order;
* Phase-2 core-cube calls reroute across a surviving parallel dimension
  pair when their edge failed (u → ⊕_j u via ⊕_l: u, ⊕_l u, ⊕_j ⊕_l u,
  ⊕_j u would exceed k = 2, so Phase-2 failures are only repairable when
  k ≥ 3; at k = 2 a failed core edge makes that round's call impossible).

``attempt_broadcast_with_failures`` returns a schedule or ``None`` (it
never returns an invalid schedule — the caller validates against the
surviving graph).  Experiment E19 sweeps failure counts and reports the
repair rate; the shape to expect: repair probability decays roughly with
f/|E|, and Rule-2 (inter-cube) edges are more critical than core edges.
"""

from __future__ import annotations

import random

from repro.core.sparse_hypercube import SparseHypercube
from repro.frame import ScheduleBuilder
from repro.graphs.base import Graph
from repro.types import Edge, Schedule, canonical_edge
from repro.util.bits import flip_dim

__all__ = [
    "remove_edges",
    "failed_edge_sample",
    "faulted_graph",
    "reach_and_flip_avoiding",
    "attempt_broadcast_with_failures",
]


def remove_edges(graph: Graph, failed: set[Edge]) -> Graph:
    """``graph`` without the failed edges (given in either orientation)."""
    dead = {canonical_edge(u, v) for u, v in failed}
    return Graph(graph.n_vertices, [e for e in graph.edges() if e not in dead])


def failed_edge_sample(graph: Graph, count: int, seed: int) -> set[Edge]:
    """A deterministic random sample of ``count`` edges to fail."""
    rng = random.Random(seed ^ 0xFA17)
    edges = list(graph.edges())
    count = min(count, len(edges))
    return set(rng.sample(edges, count))


def faulted_graph(
    graph: Graph, count: int, seed: int
) -> tuple[Graph, tuple[Edge, ...]]:
    """Sample ``count`` edges to fail and return the surviving graph.

    One-call convenience over :func:`failed_edge_sample` +
    :func:`remove_edges` for scenario drivers; the failed edges come back
    sorted so downstream records are deterministic.
    """
    failed = failed_edge_sample(graph, count, seed)
    return remove_edges(graph, failed), tuple(sorted(failed))


def _edge_ok(failed: set[Edge], a: int, b: int) -> bool:
    return canonical_edge(a, b) not in failed


def reach_and_flip_avoiding(
    sh: SparseHypercube, u: int, dim: int, failed: set[Edge]
) -> tuple[int, ...] | None:
    """Failure-aware variant of :func:`repro.core.routing.reach_and_flip`.

    Tries the direct edge, then every relay candidate in deterministic
    (largest-relay-first) order, recursing on the relay flip.  Returns
    ``None`` when every option hits a failed edge.
    """
    level = sh.level_owning(dim)
    direct_exists = level is None or level.owns_edge(u, dim)
    if direct_exists and _edge_ok(failed, u, flip_dim(u, dim)):
        return (u, flip_dim(u, dim))
    if level is None:
        return None  # failed core edge cannot be relayed within length 1
    needed = level.dim_owner[dim]
    block = level.block_value(u)
    cands = []
    for e_local in range(level.block_len):
        if level.labeling.label_of(block ^ (1 << e_local)) == needed:
            cands.append(level.block_lo + e_local + 1)
    cands.sort(key=lambda d: flip_dim(u, d), reverse=True)
    for e in cands:
        sub = reach_and_flip_avoiding(sh, u, e, failed)
        if sub is None:
            continue
        v = sub[-1]
        if level.owns_edge(v, dim) and _edge_ok(failed, v, flip_dim(v, dim)):
            return sub + (flip_dim(v, dim),)
    return None


def attempt_broadcast_with_failures(
    sh: SparseHypercube, source: int, failed: set[Edge]
) -> Schedule | None:
    """Broadcast_k with failure-aware routing; ``None`` if any call is
    unroutable (the schedule shape — one dimension per round — is kept,
    so a ``None`` does not prove the surviving graph is not a k-mlbg, only
    that the paper's scheme shape cannot be repaired)."""
    builder = ScheduleBuilder(source)
    informed = [source]
    for dim in range(sh.n, sh.base_dims, -1):
        paths = []
        for w in sorted(informed):
            path = reach_and_flip_avoiding(sh, w, dim, failed)
            if path is None:
                return None
            paths.append(path)
        builder.add_round(paths)
        informed.extend(p[-1] for p in paths)
    for dim in range(sh.base_dims, 0, -1):
        paths = []
        for w in sorted(informed):
            v = flip_dim(w, dim)
            if not _edge_ok(failed, w, v):
                return None  # core edge failure is fatal at call length 1
            paths.append((w, v))
        builder.add_round(paths)
        informed.extend(p[-1] for p in paths)
    return Schedule.from_frame(builder.build())
