"""Dinic's maximum-flow algorithm on an explicit residual network.

Small, dependency-free, integer capacities.  Complexity O(V²E) generally
and O(E√V) on unit-capacity networks — more than enough for the round
packing instances here (hundreds of nodes).

The network is directed; undirected unit-capacity graph edges are modelled
as a pair of opposing arcs (standard construction: a unit of flow may
cross an undirected edge in either direction, and opposing units cancel,
so any integral flow decomposes into paths using each undirected edge at
most once — the edge-disjointness the k-line model needs).

Arcs live in parallel lists indexed by arc id: ``add_arc`` appends the
arc at an even id ``a`` and its residual twin at ``a ^ 1``.  The blocking
flow is an iterative DFS over per-node current-arc pointers that pushes
each path's bottleneck and restarts from the source, so augmenting paths
come in the order the textbook recursive DFS finds them.
"""

from __future__ import annotations

from repro.types import InvalidParameterError

__all__ = ["FlowNetwork", "max_flow_value"]


class FlowNetwork:
    """A directed flow network over nodes ``0 .. n_nodes-1``.

    ``adj[u]`` lists the ids of the arcs out of ``u`` (residual twins
    included) in insertion order; ``head[a]`` is arc ``a``'s target and
    ``cap[a]`` its residual capacity.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 0:
            raise InvalidParameterError(f"need n_nodes >= 0, got {n_nodes}")
        self.n_nodes = n_nodes
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> None:
        """Add a directed arc u→v of the given capacity (plus the residual)."""
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise InvalidParameterError(f"arc ({u}, {v}) out of range")
        if cap < 0:
            raise InvalidParameterError(f"capacity must be >= 0, got {cap}")
        a = len(self.head)
        self.head += (v, u)
        self.cap += (cap, 0)
        self.adj[u].append(a)
        self.adj[v].append(a + 1)

    def add_undirected_unit_edge(self, u: int, v: int) -> None:
        """Model an undirected unit-capacity edge (one call may cross it,
        in either direction)."""
        # two opposing unit arcs; flow cancellation keeps net use <= 1
        self.add_arc(u, v, 1)
        self.add_arc(v, u, 1)

    # -- Dinic ------------------------------------------------------------

    def _levels(self, s: int, t: int) -> list[int] | None:
        """BFS levels over arcs with residual capacity, or None if ``t``
        is unreachable.  Stops once ``t`` has its level: the nodes not yet
        levelled then cannot lie on a shortest augmenting path."""
        adj, head, cap = self.adj, self.head, self.cap
        level = [-1] * self.n_nodes
        level[s] = 0
        queue = [s]
        for u in queue:  # the list grows while it is scanned: a FIFO
            lv = level[u] + 1
            for a in adj[u]:
                v = head[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = lv
                    if v == t:
                        return level
                    queue.append(v)
        return None

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        adj, head, cap = self.adj, self.head, self.cap
        it = [0] * self.n_nodes
        flow = 0
        path: list[int] = []  # arc ids from s to u
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                path.clear()
                u = s
                continue
            arcs = adj[u]
            i = it[u]
            nxt_level = level[u] + 1
            while i < len(arcs):
                a = arcs[i]
                if cap[a] > 0 and level[head[a]] == nxt_level:
                    break
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = head[arcs[i]]
            elif path:  # dead end: retreat and skip the arc that led here
                u = head[path.pop() ^ 1]
                it[u] += 1
            else:
                return flow

    def max_flow(self, s: int, t: int) -> int:
        """Run Dinic from s to t; mutates the residual capacities."""
        if s == t:
            raise InvalidParameterError("source equals sink")
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            flow += self._blocking_flow(s, t, level)

    def flow_on(self, u: int, arc_index: int) -> int:
        """Units of flow currently on the arc_index-th arc out of ``u``
        (negative on a residual twin carrying flow back)."""
        a = self.adj[u][arc_index]
        return -self.cap[a] if a & 1 else self.cap[a ^ 1]


def max_flow_value(network: FlowNetwork, s: int, t: int) -> int:
    """Convenience wrapper (mutates the network's residual capacities)."""
    return network.max_flow(s, t)
