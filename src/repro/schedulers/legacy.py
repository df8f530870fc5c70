"""Legacy set-based scheduler primitives, kept as oracle and baseline.

Before the shared scheduling engine (:mod:`repro.engine.kernels`), the
greedy and exact schedulers each privately implemented bounded-path
enumeration and the component-capacity prune over Python sets.  Those
implementations live on here, verbatim, for two purposes:

* **oracle** — the property tests pin the engine kernels to these
  functions (identical path enumeration, component summaries, capacity
  verdicts) on random graphs;
* **baseline** — ``benchmarks/bench_schedulers.py`` records the
  kernel-vs-legacy speedup, and :func:`heuristic_line_broadcast_legacy`
  is the full legacy greedy it races against.

Nothing in the library proper calls this module; new code should use the
engine kernels.
"""

from __future__ import annotations

import random
from collections import deque

from repro.graphs.base import Graph
from repro.model.validator import minimum_broadcast_rounds
from repro.types import Call, InvalidParameterError, Round, Schedule, canonical_edge

__all__ = [
    "reachable_paths",
    "enumerate_paths",
    "component_penalty",
    "uninformed_components",
    "capacity_ok",
    "heuristic_line_broadcast_legacy",
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


def _pick_target(
    graph: Graph,
    caller: int,
    candidates: list[int],
    paths: dict[int, tuple[int, ...]],
    hypothetical: set[int],
    rounds_left_after: int,
    rng: random.Random,
    sample_cap: int,
) -> int | None:
    """The penalty-minimizing target for one caller (randomized sampling)."""
    if not candidates:
        return None
    if len(candidates) > sample_cap:
        candidates = rng.sample(candidates, sample_cap)
    best_v, best_score = None, None
    order = candidates[:]
    rng.shuffle(order)
    for v in order:
        hypothetical.add(v)
        score = component_penalty(graph, hypothetical, rounds_left_after)
        hypothetical.discard(v)
        if best_score is None or score < best_score:
            best_v, best_score = v, score
    return best_v


def _final_round_by_flow(graph: Graph, informed: set[int], k: int) -> list[Call] | None:
    """Cover *all* remaining uninformed vertices in one round via max-flow
    path packing."""
    from repro.flows.paths import decompose_paths

    uninformed = set(graph.vertices()) - informed
    if not uninformed:
        return []
    if len(uninformed) > len(informed):
        return None
    paths = decompose_paths(graph, informed, uninformed)
    if len(paths) < len(uninformed):
        return None
    calls = [Call.via(p) for p in paths]
    if any(c.length > k for c in calls):
        return None
    return calls


_Option = tuple[int, float, int, dict[int, tuple[int, ...]], list[int]]


def _build_round(
    graph: Graph,
    informed: set[int],
    k: int,
    rounds_left_after: int,
    rng: random.Random,
    *,
    shuffle: bool,
    sample_cap: int = 24,
) -> list[Call]:
    """One greedy round (see the engine-backed greedy for the strategy)."""
    uninformed_count = graph.n_vertices - len(informed)
    if rounds_left_after == 0:
        flow_calls = _final_round_by_flow(graph, informed, k)
        if flow_calls is not None:
            return flow_calls
    callers = sorted(informed)
    if shuffle:
        rng.shuffle(callers)
    used: set[tuple[int, int]] = set()
    claimed: set[int] = set()
    calls: list[Call] = []
    hypothetical = set(informed)
    remaining_callers = callers[:]

    def place(caller: int, target: int, path: tuple[int, ...]) -> None:
        calls.append(Call.via(path))
        claimed.add(target)
        hypothetical.add(target)
        used.update(canonical_edge(a, b) for a, b in zip(path, path[1:]))
        remaining_callers.remove(caller)

    cap_after = (1 << rounds_left_after) - 1
    needy = [
        (comp, boundary)
        for comp, boundary in uninformed_components(graph, informed)
        if len(comp) > len(boundary) * cap_after
    ]
    needy.sort(key=lambda cb: len(cb[0]) / max(1, len(cb[1])), reverse=True)
    for comp, _boundary in needy:
        options: list[_Option] = []
        for caller in remaining_callers:
            paths = reachable_paths(graph, caller, k, used)
            candidates = [v for v in comp if v in paths and v not in claimed]
            if candidates:
                dist = min(len(paths[v]) - 1 for v in candidates)
                options.append((dist, rng.random(), caller, paths, candidates))
        if not options:
            return []
        _, _, caller, paths, candidates = min(options)
        target = _pick_target(
            graph, caller, candidates, paths, hypothetical,
            rounds_left_after, rng, sample_cap,
        )
        assert target is not None
        place(caller, target, paths[target])

    for caller in remaining_callers[:]:
        if len(claimed) >= uninformed_count:
            break
        paths = reachable_paths(graph, caller, k, used)
        candidates = [v for v in paths if v not in informed and v not in claimed]
        target = _pick_target(
            graph, caller, candidates, paths, hypothetical,
            rounds_left_after, rng, sample_cap,
        )
        if target is not None:
            place(caller, target, paths[target])
    return calls


def heuristic_line_broadcast_legacy(
    graph: Graph,
    source: int,
    k: int | None = None,
    *,
    rounds: int | None = None,
    restarts: int = 300,
    seed: int = 0,
) -> Schedule | None:
    """The pre-engine greedy scheduler, byte-for-byte the PR-1 behaviour.

    Benchmark baseline only; use
    :func:`repro.schedulers.greedy.heuristic_line_broadcast`.
    """
    if not graph.is_connected():
        raise InvalidParameterError("graph must be connected")
    if not (0 <= source < graph.n_vertices):
        raise InvalidParameterError(f"source {source} not a vertex")
    k_eff = k if k is not None else graph.n_vertices - 1
    if k_eff < 1:
        raise InvalidParameterError(f"need k >= 1, got {k_eff}")
    budget = minimum_broadcast_rounds(graph.n_vertices) if rounds is None else rounds
    n = graph.n_vertices
    for attempt in range(restarts):
        rng = random.Random((seed << 20) ^ attempt)
        informed: set[int] = {source}
        rounds_built: list[Round] = []
        ok = True
        for r in range(budget):
            remaining_after = budget - r - 1
            calls = _build_round(
                graph,
                informed,
                k_eff,
                remaining_after,
                rng,
                shuffle=(attempt > 0),
            )
            uninformed_left = n - len(informed) - len(calls)
            if uninformed_left > 0 and not calls:
                ok = False
                break
            rounds_built.append(Round(tuple(calls)))
            informed.update(c.receiver for c in calls)
            if (
                uninformed_left > 0
                and component_penalty(graph, informed, remaining_after) >= 1000.0
            ):
                ok = False
                break
        if ok and len(informed) == n:
            return Schedule(source, rounds_built)
    return None
