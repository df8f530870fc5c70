"""Legacy set-based scheduler primitives, kept as the kernels' oracle.

Before the shared scheduling engine (:mod:`repro.engine.kernels`), the
greedy and exact schedulers each privately implemented bounded-path
enumeration and the component-capacity prune over Python sets.  Those
implementations live on here, verbatim, as the **oracle** of the engine
kernels: the unit and property tests pin the kernels to these functions
(identical path enumeration, component summaries, capacity verdicts) on
random graphs.

Nothing in the library proper calls this module; new code should use the
engine kernels.
"""

from __future__ import annotations

from collections import deque

from repro.graphs.base import Graph
from repro.types import canonical_edge

__all__ = [
    "reachable_paths",
    "enumerate_paths",
    "component_penalty",
    "uninformed_components",
    "capacity_ok",
]


def reachable_paths(
    graph: Graph,
    caller: int,
    k: int,
    used: set[tuple[int, int]],
) -> dict[int, tuple[int, ...]]:
    """BFS over unused edges: one shortest free path per reachable vertex
    within distance k (trees: the unique free path)."""
    parent: dict[int, int] = {caller: -1}
    depth = {caller: 0}
    dq: deque[int] = deque([caller])
    while dq:
        u = dq.popleft()
        if depth[u] == k:
            continue
        for v in graph.sorted_neighbors(u):
            if v in parent or canonical_edge(u, v) in used:
                continue
            parent[v] = u
            depth[v] = depth[u] + 1
            dq.append(v)
    paths: dict[int, tuple[int, ...]] = {}
    for v in parent:
        if v == caller:
            continue
        path = [v]
        while path[-1] != caller:
            path.append(parent[path[-1]])
        paths[v] = tuple(reversed(path))
    return paths


def enumerate_paths(
    graph: Graph,
    caller: int,
    k: int,
    used: set[tuple[int, int]],
    available_targets: set[int],
) -> list[tuple[int, ...]]:
    """All simple paths of length ≤ k from ``caller`` over unused edges,
    ending at an available target.  Deterministic order (shorter first,
    then lexicographic)."""
    out: list[tuple[int, ...]] = []

    def dfs(path: list[int], visited: set[int]) -> None:
        u = path[-1]
        if len(path) > 1 and u in available_targets:
            out.append(tuple(path))
        if len(path) - 1 == k:
            return
        for v in graph.sorted_neighbors(u):
            if v in visited:
                continue
            e = canonical_edge(u, v)
            if e in used:
                continue
            used.add(e)
            visited.add(v)
            path.append(v)
            dfs(path, visited)
            path.pop()
            visited.discard(v)
            used.discard(e)

    dfs([caller], {caller})
    out.sort(key=lambda p: (len(p), p))
    return out


def component_penalty(graph: Graph, informed: set[int], rounds_left: int) -> float:
    """Σ over uninformed components of overflow beyond the capacity bound,
    plus a soft term preferring roomy slack."""
    if rounds_left < 0:
        return float("inf")
    cap_mult = (1 << rounds_left) - 1 if rounds_left > 0 else 0
    penalty = 0.0
    seen: set[int] = set()
    for v in range(graph.n_vertices):
        if v in informed or v in seen:
            continue
        comp_size = 0
        boundary: set[int] = set()
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            comp_size += 1
            for y in graph.neighbors(x):
                if y in informed:
                    boundary.add(y)
                elif y not in seen:
                    seen.add(y)
                    stack.append(y)
        capacity = len(boundary) * cap_mult
        if comp_size > capacity:
            penalty += 1000.0 * (comp_size - capacity)
        elif capacity > 0:
            penalty += comp_size * comp_size / capacity
    return penalty


def uninformed_components(
    graph: Graph, informed: set[int]
) -> list[tuple[set[int], set[int]]]:
    """Connected components of the uninformed subgraph with their informed
    boundary vertex sets, as ``(component, boundary)`` pairs."""
    comps: list[tuple[set[int], set[int]]] = []
    seen: set[int] = set()
    for v in range(graph.n_vertices):
        if v in informed or v in seen:
            continue
        comp = {v}
        boundary: set[int] = set()
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in graph.neighbors(x):
                if y in informed:
                    boundary.add(y)
                elif y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append((comp, boundary))
    return comps


def capacity_ok(graph: Graph, informed: frozenset[int], rounds_left: int) -> bool:
    """The two capacity prunes (sound: necessary conditions)."""
    n = graph.n_vertices
    u_count = n - len(informed)
    if u_count == 0:
        return True
    if rounds_left <= 0:
        return False
    cap = (1 << rounds_left) - 1
    if u_count > len(informed) * cap:
        return False
    seen: set[int] = set()
    for v in range(n):
        if v in informed or v in seen:
            continue
        comp: list[int] = [v]
        seen.add(v)
        boundary: set[int] = set()
        stack = [v]
        while stack:
            x = stack.pop()
            for y in graph.neighbors(x):
                if y in informed:
                    boundary.add(y)
                elif y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        if len(comp) > len(boundary) * cap:
            return False
    return True
