"""A small, fast undirected-graph kernel over integer vertices.

Vertices are the integers ``0 .. N-1``.  A graph is immutable from
construction: ``Graph(n, edges)`` is the only way to build one, so every
builder collects its edges and makes one constructor call.

The kernel keeps adjacency both as Python sets (O(1) ``has_edge``, cheap
iteration) and, lazily, as a CSR-style pair of NumPy arrays for vectorized
breadth-first sweeps.  This follows the HPC guide's advice: keep the code
legible, vectorize only the measured hot paths (BFS over all sources
dominates diameter computation).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.types import Edge, InvalidParameterError, canonical_edge

__all__ = ["Graph"]

_UNREACHED = -1


class Graph:
    """Immutable undirected simple graph on vertices ``0 .. n_vertices - 1``."""

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n_vertices < 0:
            raise InvalidParameterError(f"n_vertices must be >= 0, got {n_vertices}")
        n = int(n_vertices)
        adj: list[set[int]] = [set() for _ in range(n)]
        # inline range and self-loop checks: io.graph_from_dict and
        # from_networkx feed outside input through here
        for u, v in edges:
            if not 0 <= u < n:
                raise InvalidParameterError(f"vertex {u} out of range [0, {n})")
            if not 0 <= v < n:
                raise InvalidParameterError(f"vertex {v} out of range [0, {n})")
            if u == v:
                raise InvalidParameterError(f"self-loops are not allowed (vertex {u})")
            adj[u].add(v)
            adj[v].add(u)
        self._n = n
        self._adj = adj
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise InvalidParameterError(f"vertex {u} out of range [0, {self._n})")

    # -- basic queries -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def vertices(self) -> range:
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, u: int) -> frozenset[int]:
        self._check_vertex(u)
        return frozenset(self._adj[u])

    def sorted_neighbors(self, u: int) -> list[int]:
        """Neighbours of ``u`` in ascending order (deterministic iteration)."""
        self._check_vertex(u)
        return sorted(self._adj[u])

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._adj[u])

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self._adj], dtype=np.int64)

    def max_degree(self) -> int:
        """The paper's Δ(G)."""
        return max((len(a) for a in self._adj), default=0)

    def min_degree(self) -> int:
        return min((len(a) for a in self._adj), default=0)

    def edges(self) -> Iterator[Edge]:
        """All edges in canonical (u < v) order, sorted lexicographically."""
        for u in range(self._n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set[Edge]:
        return set(self.edges())

    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self._n}, n_edges={self.n_edges})"

    # -- CSR view (lazy, built on first vectorized sweep) -------------------

    def _ensure_csr(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            for u in range(self._n):
                indptr[u + 1] = indptr[u] + len(self._adj[u])
            indices = np.empty(indptr[-1], dtype=np.int64)
            for u in range(self._n):
                nbrs = sorted(self._adj[u])
                indices[indptr[u] : indptr[u + 1]] = nbrs
            # the cached arrays are handed out by csr_arrays(); freeze
            # them so a caller cannot corrupt every later validation
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as CSR ``(indptr, indices)`` NumPy arrays.

        Neighbours of ``u`` are ``indices[indptr[u]:indptr[u+1]]``, sorted
        ascending.  Built once per graph and cached read-only.
        """
        return self._ensure_csr()

    # -- traversal ----------------------------------------------------------

    def bfs_distances(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every vertex (-1 if unreachable)."""
        self._check_vertex(source)
        indptr, indices = self._ensure_csr()
        dist = np.full(self._n, _UNREACHED, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        d = 0
        while frontier.size:
            d += 1
            # gather all neighbours of the frontier in one vectorized sweep
            starts = indptr[frontier]
            ends = indptr[frontier + 1]
            counts = ends - starts
            if counts.sum() == 0:
                break
            gather = np.concatenate([indices[s:e] for s, e in zip(starts, ends)])
            fresh = gather[dist[gather] == _UNREACHED]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            dist[fresh] = d
            frontier = fresh
        return dist

    def bfs_tree(self, source: int) -> list[int]:
        """Parent array of a BFS tree rooted at ``source`` (-1 at the root
        and at unreachable vertices).  Deterministic: neighbours explored in
        ascending order."""
        self._check_vertex(source)
        parent = [_UNREACHED] * self._n
        seen = [False] * self._n
        seen[source] = True
        queue: deque[int] = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(self._adj[u]):
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    queue.append(v)
        return parent

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance; -1 if disconnected."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        # early-exit bidirectional-ish BFS kept simple: plain BFS with stop
        seen = {u: 0}
        queue: deque[int] = deque([u])
        while queue:
            w = queue.popleft()
            dw = seen[w]
            for x in self._adj[w]:
                if x not in seen:
                    if x == v:
                        return dw + 1
                    seen[x] = dw + 1
                    queue.append(x)
        return _UNREACHED

    def shortest_path(self, u: int, v: int) -> list[int] | None:
        """One shortest u→v path (deterministic tie-break), or None."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return [u]
        parent: dict[int, int] = {u: -1}
        queue: deque[int] = deque([u])
        while queue:
            w = queue.popleft()
            for x in sorted(self._adj[w]):
                if x not in parent:
                    parent[x] = w
                    if x == v:
                        path = [v]
                        while parent[path[-1]] != -1:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(x)
        return None

    def ball(self, u: int, radius: int) -> set[int]:
        """All vertices at distance ≤ ``radius`` from ``u`` (including u)."""
        self._check_vertex(u)
        if radius < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        seen = {u}
        frontier = [u]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for x in self._adj[w]:
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            if not nxt:
                break
            frontier = nxt
        return seen

    def sphere(self, u: int, radius: int) -> set[int]:
        """Vertices at distance exactly ``radius`` from ``u``."""
        self._check_vertex(u)
        if radius == 0:
            return {u}
        return self.ball(u, radius) - self.ball(u, radius - 1)

    def is_connected(self) -> bool:
        if self._n == 0:
            return True
        return int((self.bfs_distances(0) != _UNREACHED).sum()) == self._n

    def eccentricity(self, u: int) -> int:
        dist = self.bfs_distances(u)
        if (dist == _UNREACHED).any():
            raise InvalidParameterError("eccentricity undefined: graph disconnected")
        return int(dist.max())

    def diameter(self) -> int:
        """Exact diameter via an all-sources BFS sweep.

        O(N · (N + E)); fine for the instance sizes in this repository
        (the benchmarks cap exact-diameter checks at N ≤ 2^14).
        """
        if self._n == 0:
            return 0
        best = 0
        for u in range(self._n):
            dist = self.bfs_distances(u)
            if (dist == _UNREACHED).any():
                raise InvalidParameterError("diameter undefined: graph disconnected")
            best = max(best, int(dist.max()))
        return best

    # -- interop -------------------------------------------------------------

    def to_networkx(self):
        """Convert to ``networkx.Graph`` (nodes 0..N-1)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    @staticmethod
    def from_networkx(g) -> "Graph":
        """Build from a networkx graph whose nodes are 0..N-1 integers."""
        n = g.number_of_nodes()
        nodes = set(g.nodes())
        if nodes != set(range(n)):
            raise InvalidParameterError(
                "from_networkx requires nodes to be exactly 0..N-1"
            )
        return Graph(n, [(int(u), int(v)) for u, v in g.edges()])

    def is_subgraph_of(self, other: "Graph") -> bool:
        """True iff every edge of ``self`` is an edge of ``other`` (same N)."""
        if self._n != other._n:
            return False
        return all(other.has_edge(u, v) for u, v in self.edges())

    def edge_difference(self, other: "Graph") -> set[Edge]:
        """Edges of ``self`` that are not edges of ``other``."""
        return self.edge_set() - other.edge_set()

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for a in self._adj:
            hist[len(a)] = hist.get(len(a), 0) + 1
        return dict(sorted(hist.items()))

    def path_is_valid(self, path: Sequence[int]) -> bool:
        """True iff consecutive entries of ``path`` are edges of the graph."""
        if len(path) == 0:
            return False
        for a, b in zip(path, path[1:]):
            if not self.has_edge(a, b):
                return False
        return True

    def path_edges(self, path: Sequence[int]) -> list[Edge]:
        return [canonical_edge(a, b) for a, b in zip(path, path[1:])]
