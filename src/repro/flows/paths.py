"""Round packing via max-flow: bounds and path extraction.

One round of k-line communication is a set of pairwise edge-disjoint
calls, each from a distinct informed vertex to a distinct uninformed
vertex.  Ignoring the length-≤-k constraint, the maximum number of such
calls equals the max flow in the network

    S → (each informed vertex, capacity 1)
    undirected graph edges, capacity 1 (either direction)
    (each uninformed vertex) → T, capacity 1

— intermediate vertices may relay any number of calls (the line model's
"switching"), so there are no internal vertex capacities.

:func:`round_packing_bound` gives the flow value (an upper bound on
per-round progress for any k; *exact* achievability for k ≥ diameter);
:func:`decompose_paths` extracts an explicit edge-disjoint path family
realizing it.
"""

from __future__ import annotations

from repro.flows.maxflow import FlowNetwork
from repro.graphs.base import Graph
from repro.types import InvalidParameterError

__all__ = ["round_packing_bound", "decompose_paths"]


def _build_round_network(
    graph: Graph, informed: set[int], targets: set[int]
) -> tuple[FlowNetwork, int, int]:
    n = graph.n_vertices
    s, t = n, n + 1
    net = FlowNetwork(n + 2)
    for v in informed:
        net.add_arc(s, v, 1)
    for v in targets:
        net.add_arc(v, t, 1)
    for u, v in graph.edges():
        net.add_undirected_unit_edge(u, v)
    return net, s, t


def round_packing_bound(
    graph: Graph, informed: set[int], targets: set[int] | None = None
) -> int:
    """Max number of simultaneous edge-disjoint informed→uninformed calls
    (unbounded call length)."""
    if not informed:
        raise InvalidParameterError("need at least one informed vertex")
    tgt = targets if targets is not None else set(graph.vertices()) - informed
    if not tgt:
        return 0
    net, s, t = _build_round_network(graph, informed, tgt)
    return net.max_flow(s, t)


def decompose_paths(
    graph: Graph, informed: set[int], targets: set[int] | None = None
) -> list[list[int]]:
    """Explicit vertex paths realizing a maximum round packing.

    Returns a list of paths ``[caller, …, receiver]``; pairwise
    edge-disjoint, callers distinct and informed, receivers distinct and
    uninformed.  Callers may appear as intermediate vertices of other
    paths (switching), which the k-line model permits.
    """
    if not informed:
        raise InvalidParameterError("need at least one informed vertex")
    tgt = targets if targets is not None else set(graph.vertices()) - informed
    if not tgt:
        return []
    net, s, t = _build_round_network(graph, informed, tgt)
    net.max_flow(s, t)

    # net flow per ordered vertex pair, with opposing flows cancelled;
    # arc a (even) carries the flow its residual twin a ^ 1 holds
    flow: dict[tuple[int, int], int] = {}
    head, cap = net.head, net.cap
    for a in range(0, len(head), 2):
        f = cap[a ^ 1]
        if f > 0:
            key = (head[a ^ 1], head[a])
            flow[key] = flow.get(key, 0) + f
    for (u, v) in list(flow):
        if (v, u) in flow and flow[(u, v)] > 0 and flow[(v, u)] > 0:
            c = min(flow[(u, v)], flow[(v, u)])
            flow[(u, v)] -= c
            flow[(v, u)] -= c

    out_arcs: dict[int, list[int]] = {}
    for (u, v), f in flow.items():
        if f > 0:
            out_arcs.setdefault(u, []).extend([v] * f)
    for v in out_arcs:
        out_arcs[v].sort()

    paths: list[list[int]] = []
    while out_arcs.get(s):
        node = out_arcs[s].pop()
        path = [node]
        while node != t:
            nxt = out_arcs[node].pop()
            if nxt != t:
                path.append(nxt)
            node = nxt
        paths.append(path)
    return paths
