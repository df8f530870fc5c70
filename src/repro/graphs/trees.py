"""Tree families used by the paper's Theorem 1 and by baseline experiments.

The key family is :func:`balanced_ternary_core_tree` — the paper's Fig. 1
graph: a centre vertex with three complete binary trees of height ``h - 1``
attached, giving ``N = 3·2^h − 2`` vertices, maximum degree 3 and diameter
at most ``2h``.  Theorem 1 shows this tree is a k-mlbg for every
``k ≥ 2⌈log₂((N+2)/3)⌉``.

Also provided: stars (the fewest-edge k-mlbg for k ≥ 2, per Section 2),
paths, spiders and complete binary trees, used as scheduler baselines and
in property tests.
"""

from __future__ import annotations

from repro.graphs.base import Graph
from repro.types import InvalidParameterError

__all__ = [
    "path_graph",
    "star",
    "spider",
    "complete_binary_tree",
    "balanced_ternary_core_tree",
    "ternary_core_tree_order",
    "is_tree",
    "tree_center",
]


def path_graph(n: int) -> Graph:
    """The path ``0 - 1 - ... - n-1``."""
    if n < 1:
        raise InvalidParameterError(f"path needs >= 1 vertex, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def star(n: int) -> Graph:
    """The star ``K_{1,n-1}`` with centre 0.

    Section 2 of the paper: this is the graph with the fewest edges that is
    a k-mlbg for every k ≥ 2 (the centre relays every call).
    """
    if n < 1:
        raise InvalidParameterError(f"star needs >= 1 vertex, got {n}")
    return Graph(n, ((0, i) for i in range(1, n)))


def spider(leg_lengths: list[int]) -> Graph:
    """A spider: centre 0 with legs (paths) of the given lengths."""
    if not leg_lengths or any(length < 1 for length in leg_lengths):
        raise InvalidParameterError(f"leg lengths must be >= 1: {leg_lengths}")
    n = 1 + sum(leg_lengths)
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(n, edges)


def complete_binary_tree(height: int) -> Graph:
    """Complete binary tree of the given height (root 0, heap indexing).

    ``height = 0`` is a single vertex; height ``h`` has ``2^{h+1} - 1``
    vertices.  Children of vertex ``v`` are ``2v+1`` and ``2v+2``.
    """
    if height < 0:
        raise InvalidParameterError(f"height must be >= 0, got {height}")
    n = (1 << (height + 1)) - 1
    edges = []
    for v in range(n):
        for c in (2 * v + 1, 2 * v + 2):
            if c < n:
                edges.append((v, c))
    return Graph(n, edges)


def ternary_core_tree_order(h: int) -> int:
    """``N = 3·2^h − 2``, the order of the Theorem-1 tree with parameter h."""
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    return 3 * (1 << h) - 2


def balanced_ternary_core_tree(h: int) -> Graph:
    """The paper's Fig. 1 / Theorem 1 tree for parameter ``h >= 1``.

    Structure: centre vertex 0; three complete binary trees of height
    ``h - 1`` whose roots are adjacent to the centre.  Properties proved in
    Theorem 1 and verified by the test-suite:

    * ``Δ(G) = 3`` (for h ≥ 2; ``h = 1`` gives the star K_{1,3}),
    * ``max dist ≤ 2h`` (leaf → centre is h, so leaf → leaf ≤ 2h),
    * ``|V| = 3·2^h − 2``.

    Vertex layout: 0 is the centre; branch ``b ∈ {0,1,2}`` occupies the
    block ``1 + b·(2^h − 1) .. 1 + (b+1)·(2^h − 1) - 1`` with heap indexing
    inside the block (block-local root at offset 0).
    """
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    block = (1 << h) - 1  # vertices per branch: complete binary tree height h-1
    n = 1 + 3 * block
    edges = []
    for b in range(3):
        base = 1 + b * block
        edges.append((0, base))  # centre to branch root
        for local in range(block):
            for child in (2 * local + 1, 2 * local + 2):
                if child < block:
                    edges.append((base + local, base + child))
    assert n == ternary_core_tree_order(h)
    return Graph(n, edges)


def is_tree(g: Graph) -> bool:
    """True iff ``g`` is connected and has exactly N-1 edges."""
    return g.is_connected() and g.n_edges == g.n_vertices - 1


def tree_center(g: Graph) -> list[int]:
    """The 1- or 2-vertex centre of a tree (iterative leaf stripping)."""
    if not is_tree(g):
        raise InvalidParameterError("tree_center requires a tree")
    n = g.n_vertices
    if n <= 2:
        return list(range(n))
    deg = [g.degree(v) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    removed = [False] * n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for leaf in layer:
            removed[leaf] = True
            for w in g.neighbors(leaf):
                if not removed[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(v for v in range(n) if not removed[v])
