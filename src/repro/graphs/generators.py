"""Random graph generators used by the test-suite and property tests.

All generators take an explicit ``seed`` and are deterministic given it,
per the repository's determinism policy (DESIGN.md, decision 6).
"""

from __future__ import annotations

import random

from repro.graphs.base import Graph
from repro.types import InvalidParameterError

__all__ = ["random_tree", "random_connected_graph", "random_spanning_tree_of"]


def random_tree(n: int, seed: int) -> Graph:
    """A uniformly random labelled tree on ``n`` vertices (Prüfer decode)."""
    if n < 1:
        raise InvalidParameterError(f"tree needs >= 1 vertex, got {n}")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    # classic O(n log n)-ish decode with a sorted leaf pool
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """A random connected graph: random tree plus ``extra_edges`` chords."""
    if n < 1:
        raise InvalidParameterError(f"graph needs >= 1 vertex, got {n}")
    rng = random.Random(seed ^ 0x5EED)
    tree = random_tree(n, seed)
    edges = list(tree.edges())
    existing = set(edges)
    max_extra = n * (n - 1) // 2 - len(existing)
    budget = min(extra_edges, max_extra)
    attempts = 0
    while budget > 0 and attempts < 50 * (budget + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in existing:
            continue
        existing.add(e)
        edges.append((u, v))
        budget -= 1
    return Graph(n, edges)


def random_spanning_tree_of(g: Graph, seed: int) -> Graph:
    """A random spanning tree of a connected graph (randomized DFS)."""
    if not g.is_connected():
        raise InvalidParameterError("graph must be connected")
    rng = random.Random(seed ^ 0x7EE5)
    n = g.n_vertices
    edges = []
    seen = [False] * n
    start = rng.randrange(n)
    seen[start] = True
    stack = [start]
    while stack:
        u = stack[-1]
        nbrs = [w for w in g.neighbors(u) if not seen[w]]
        if not nbrs:
            stack.pop()
            continue
        w = rng.choice(sorted(nbrs))
        seen[w] = True
        edges.append((u, w))
        stack.append(w)
    return Graph(n, edges)
