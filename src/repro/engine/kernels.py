"""CSR-native scheduling kernels shared by every registered scheduler.

This module is the scheduling engine's compute layer.  Where the
pre-engine schedulers privately reimplemented bounded-path enumeration
and the component-capacity prune over Python sets — re-sorting neighbour
sets on every visit, flood-filling the whole graph once *per candidate
target* — the kernels here work off a :class:`GraphKernels` object built
once per graph:

* adjacency comes from the graph's CSR arrays (``Graph.csr_arrays``),
  materialized once into flat per-vertex neighbour/edge-id tuples, so the
  inner loops never touch a ``frozenset`` or call ``sorted``; the graph's
  connectivity is computed once with them;
* vertex sets (informed, claimed, visited) and used-edge sets are
  arbitrary-precision integer bitmasks — the same representation as
  :mod:`repro.model.validator_fast` and the bitmask helpers in
  :mod:`repro.util.bits` — so the kernels, the fast validator, and the
  exact search's memo table share one state encoding;
* the component-capacity machinery (``|C| ≤ b(C)·(2^r − 1)``) is computed
  *incrementally* by :class:`PenaltyState`: informing a vertex only splits
  its own uninformed component, and unless the vertex is a cut vertex of
  that component it does not split it at all.  So a candidate probe costs
  two lookups against per-component cut vertices and lost-boundary counts
  (one low-link DFS per component), a non-cut commit keeps its component's
  label without a flood, a cut-vertex commit reuses the pieces its probe
  flooded, and nothing re-scans the graph.

Equivalence with those set-based primitives, kept verbatim in
:mod:`repro.schedulers.legacy` as the oracle, is pinned by unit and
property tests (``tests/engine``,
``tests/property/test_engine_property.py``): path
enumeration and reachability return identical output, component summaries
and capacity verdicts match exactly, and :class:`PenaltyState`'s probes
and totals equal a reference that floods every probe and every commit
exactly (``==``), through any interleaving of probes and commits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.base import Graph
from repro.types import InvalidParameterError, canonical_edge

__all__ = [
    "GraphKernels",
    "ComponentSummary",
    "PenaltyState",
    "OVERFLOW_PENALTY",
    "UNREACHED",
]

# Weight of one unit of component-capacity overflow in the greedy scorer;
# any overflow dwarfs every soft (slack-shaping) term.
OVERFLOW_PENALTY = 1000.0

# Parent-array sentinels of GraphKernels.reachable: UNREACHED marks a
# vertex the bounded BFS never discovered (callers filter on it).
UNREACHED = -2
_ROOT = -1


@dataclass
class ComponentSummary:
    """Connected components of the uninformed subgraph.

    ``labels[v]`` is the component id of uninformed vertex ``v`` and -1
    for informed vertices; ``sizes[c]`` / ``boundaries[c]`` are the
    component's vertex count and its number of *distinct* informed
    boundary vertices (the b(C) of the capacity bound).
    """

    labels: np.ndarray
    sizes: list[int]
    boundaries: list[int]

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    def members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


def _penalty_term(size: int, boundary: int, cap_mult: int) -> float:
    """One component's contribution to the capacity penalty.

    Overflow beyond ``b(C)·(2^r − 1)`` is charged at :data:`OVERFLOW_PENALTY`
    per vertex; feasible components pay the convex slack term ``|C|²/cap``
    (prefers balanced splits — see the greedy module's rationale).
    """
    capacity = boundary * cap_mult
    if size > capacity:
        return OVERFLOW_PENALTY * (size - capacity)
    if capacity > 0:
        return size * size / capacity
    return 0.0


class GraphKernels:
    """Per-graph kernel context: CSR-derived adjacency plus edge ids.

    Construction is a one-time cost (reused across restarts, rounds, and
    many schedules on the same graph); every method is stateless with the
    caller threading informed/used bitmasks through.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        n = self.n = graph.n_vertices
        indptr, indices = graph.csr_arrays()
        self.indptr, self.indices = indptr, indices
        row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        keys = np.minimum(row, indices) * n + np.maximum(row, indices)
        # Canonical (u < v) edge ids in sorted-key order — one id per
        # undirected edge, shared by both CSR directions.
        self.edge_keys = np.unique(keys)
        self.n_edges = int(self.edge_keys.size)
        slot_edge = np.searchsorted(self.edge_keys, keys)
        # Flat Python adjacency: per-vertex neighbour and edge-id tuples in
        # ascending neighbour order.  Int tuples iterate far faster than
        # NumPy scalars or re-sorted sets in the DFS/BFS inner loops.
        self.nbrs: list[tuple[int, ...]] = []
        self.eids: list[tuple[int, ...]] = []
        for u in range(n):
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            self.nbrs.append(tuple(int(x) for x in indices[lo:hi]))
            self.eids.append(tuple(int(x) for x in slot_edge[lo:hi]))
        self.full_mask = (1 << n) - 1
        self.connected = graph.is_connected()
        self._edge_id_of: dict[tuple[int, int], int] | None = None

    # -- edge ids -----------------------------------------------------------

    def edge_id(self, u: int, v: int) -> int:
        """The canonical edge id of ``{u, v}`` (KeyError if absent)."""
        if self._edge_id_of is None:
            self._edge_id_of = {}
            for x in range(self.n):
                for y, e in zip(self.nbrs[x], self.eids[x]):
                    if x < y:
                        self._edge_id_of[(x, y)] = e
        return self._edge_id_of[canonical_edge(u, v)]

    def path_edges_mask(self, path: tuple[int, ...]) -> int:
        """Bitmask (over edge ids) of the edges traversed by ``path``."""
        mask = 0
        for a, b in zip(path, path[1:]):
            mask |= 1 << self.edge_id(a, b)
        return mask

    # -- bounded-depth reachability ----------------------------------------

    def reachable(
        self, caller: int, k: int, used_mask: int
    ) -> tuple[list[int], list[int]]:
        """BFS from ``caller`` over unused edges, depth-limited to ``k``.

        Returns ``(parent, order)``: ``parent[v]`` is the BFS predecessor
        (-1 at the caller, :data:`UNREACHED` otherwise) and ``order`` the
        discovery order including the caller.  Level-synchronous with
        ascending-neighbour expansion, so parents match the legacy FIFO
        BFS exactly.
        """
        parent = [UNREACHED] * self.n
        parent[caller] = _ROOT
        order = [caller]
        frontier = [caller]
        d = 0
        nbrs, eids = self.nbrs, self.eids
        while frontier and d < k:
            d += 1
            nxt: list[int] = []
            for u in frontier:
                for v, e in zip(nbrs[u], eids[u]):
                    if parent[v] != UNREACHED or (used_mask >> e) & 1:
                        continue
                    parent[v] = u
                    nxt.append(v)
            order.extend(nxt)
            frontier = nxt
        return parent, order

    def nearest_depth(
        self, caller: int, k: int, used_mask: int, targets_mask: int
    ) -> int | None:
        """The depth of the nearest bit of ``targets_mask`` that
        :meth:`reachable` reaches from ``caller``, or ``None``.

        The same level-synchronous BFS, stopped as soon as a level holds
        a target, so it never expands the levels beyond it.
        """
        if (targets_mask >> caller) & 1:
            return 0
        seen = bytearray(self.n)
        seen[caller] = 1
        frontier = [caller]
        d = 0
        nbrs, eids = self.nbrs, self.eids
        while frontier and d < k:
            d += 1
            nxt: list[int] = []
            for u in frontier:
                for v, e in zip(nbrs[u], eids[u]):
                    if seen[v] or (used_mask >> e) & 1:
                        continue
                    if (targets_mask >> v) & 1:
                        return d
                    seen[v] = 1
                    nxt.append(v)
            frontier = nxt
        return None

    def path_to(self, parent: list[int], v: int) -> tuple[int, ...]:
        """The BFS path to ``v`` implied by a ``reachable`` parent array."""
        path = [v]
        while parent[path[-1]] != _ROOT:
            path.append(parent[path[-1]])
        return tuple(reversed(path))

    def reachable_paths(
        self, caller: int, k: int, used_mask: int
    ) -> dict[int, tuple[int, ...]]:
        """Drop-in equivalent of the legacy ``_reachable_paths``: one
        shortest free path per vertex reachable within ``k`` unused edges,
        keyed by target, in discovery order."""
        parent, order = self.reachable(caller, k, used_mask)
        return {v: self.path_to(parent, v) for v in order[1:]}

    # -- bounded-length simple-path enumeration ----------------------------

    def enumerate_paths(
        self, caller: int, k: int, used_mask: int, targets_mask: int
    ) -> list[tuple[int, ...]]:
        """All simple paths of length ≤ k from ``caller`` over unused
        edges ending at a target bit of ``targets_mask``, sorted shorter
        first then lexicographic — identical output to the legacy
        ``_enumerate_paths`` / ``_paths_from``."""
        out: list[tuple[int, ...]] = []
        nbrs, eids = self.nbrs, self.eids
        path = [caller]

        def dfs(u: int, visited: int, used: int) -> None:
            if len(path) > 1 and (targets_mask >> u) & 1:
                out.append(tuple(path))
            if len(path) - 1 == k:
                return
            for v, e in zip(nbrs[u], eids[u]):
                if (visited >> v) & 1 or (used >> e) & 1:
                    continue
                path.append(v)
                dfs(v, visited | (1 << v), used | (1 << e))
                path.pop()

        dfs(caller, 1 << caller, used_mask)
        out.sort(key=lambda p: (len(p), p))
        return out

    # -- uninformed components and capacity prunes -------------------------

    def components(self, informed_mask: int) -> ComponentSummary:
        """Label the connected components of the uninformed subgraph and
        count each one's distinct informed boundary vertices.

        Seeds are scanned in ascending vertex order, so component ids (and
        any float summation over them) follow the legacy scan order.
        """
        n = self.n
        labels = [-1] * n
        sizes: list[int] = []
        boundaries: list[int] = []
        nbrs = self.nbrs
        for v in range(n):
            if (informed_mask >> v) & 1 or labels[v] >= 0:
                continue
            label = len(sizes)
            labels[v] = label
            stack = [v]
            size = 0
            bmask = 0
            while stack:
                x = stack.pop()
                size += 1
                for y in nbrs[x]:
                    if (informed_mask >> y) & 1:
                        bmask |= 1 << y
                    elif labels[y] < 0:
                        labels[y] = label
                        stack.append(y)
            sizes.append(size)
            boundaries.append(bmask.bit_count())
        return ComponentSummary(
            labels=np.array(labels, dtype=np.int64), sizes=sizes, boundaries=boundaries
        )

    def component_penalty(self, informed_mask: int, rounds_left: int) -> float:
        """Σ over uninformed components of capacity overflow plus slack —
        the legacy ``_component_penalty`` on bitmask state."""
        if rounds_left < 0:
            return float("inf")
        cap_mult = (1 << rounds_left) - 1 if rounds_left > 0 else 0
        summary = self.components(informed_mask)
        return sum(
            _penalty_term(s, b, cap_mult)
            for s, b in zip(summary.sizes, summary.boundaries)
        )

    def capacity_ok(
        self,
        informed_mask: int,
        rounds_left: int,
        *,
        summary: ComponentSummary | None = None,
    ) -> bool:
        """The exact searcher's two sound prunes: global doubling
        ``|U| ≤ |I|·(2^r − 1)`` and the per-component capacity bound.
        ``summary``, when given, must be ``components(informed_mask)``."""
        n_informed = informed_mask.bit_count()
        u_count = self.n - n_informed
        if u_count == 0:
            return True
        if rounds_left <= 0:
            return False
        cap = (1 << rounds_left) - 1
        if u_count > n_informed * cap:
            return False
        if summary is None:
            summary = self.components(informed_mask)
        return all(s <= b * cap for s, b in zip(summary.sizes, summary.boundaries))


# (|C|, cut vertices of C, b(C), {member: #boundary vertices whose only
# neighbour in C it is}) — one component's entry in PenaltyState.
_CutInfo = tuple[int, set[int], int, dict[int, int]]


class PenaltyState:
    """Incrementally-maintained component penalty for one greedy round.

    Informing an uninformed vertex ``v`` only affects ``v``'s own
    component C: every other component and boundary is untouched, because
    ``v`` has no neighbour there.  When ``v`` is not a cut vertex of C,
    ``C − v`` stays connected, so the probe needs only ``|C| − 1`` and the
    new boundary count ``b − lost(v) + 1`` — two lookups in a per-component
    *cut-info* entry (``|C|``, C's cut vertices, ``b(C)``, and per member
    the number of boundary vertices whose only neighbour in C it is),
    built lazily by one Hopcroft–Tarjan low-link DFS.  Only cut-vertex
    probes flood-fill the pieces.  Either way a probe returns the same
    float as a flood of the whole split.

    ``probe(v)`` returns the penalty of ``informed ∪ {v}``;
    ``commit(v)`` makes that hypothetical permanent.  A non-cut commit
    keeps C's label and sets its term to the probe's; a cut-vertex commit
    relabels the pieces, reusing those its probe flooded when no commit
    came in between.  Both reject a ``v`` that is informed or not a
    vertex.
    """

    def __init__(
        self,
        kernels: GraphKernels,
        informed_mask: int,
        rounds_left: int,
        *,
        summary: ComponentSummary | None = None,
    ) -> None:
        if rounds_left < 0:
            raise InvalidParameterError(f"rounds_left must be >= 0, got {rounds_left}")
        self.kernels = kernels
        self.informed = informed_mask
        self.cap_mult = (1 << rounds_left) - 1 if rounds_left > 0 else 0
        if summary is None:
            summary = kernels.components(informed_mask)
        # An independent list: labels are rewritten on commit, and every
        # label is always an exact component (a non-cut commit leaves C − v
        # connected, a cut commit relabels each piece), so a neighbour
        # carrying another label is informed.
        self.labels: list[int] = summary.labels.tolist()
        self._terms: list[float] = [
            _penalty_term(s, b, self.cap_mult)
            for s, b in zip(summary.sizes, summary.boundaries)
        ]
        self.total = float(sum(self._terms))
        # label -> its component's cut-info; commit drops its label's entry.
        self._cut_info: dict[int, _CutInfo] = {}
        # cut vertex -> the pieces its probe flooded; valid only until the
        # next commit, which clears it.
        self._pieces: dict[int, list[tuple[int, int, list[int]]]] = {}

    def _label(self, v: int) -> int:
        """``v``'s component label; rejects informed and non-vertices."""
        if not 0 <= v < self.kernels.n:
            raise InvalidParameterError(
                f"vertex {v} out of range [0, {self.kernels.n})"
            )
        label = self.labels[v]
        if label < 0:
            raise InvalidParameterError(f"vertex {v} is already informed")
        return label

    def _split(self, v: int) -> tuple[float, list[tuple[int, int, list[int]]]]:
        """Penalty terms of the pieces ``v``'s component splits into when
        ``v`` becomes informed.  Returns ``(terms_sum, pieces)`` with each
        piece's ``(size, boundary_count, members)``."""
        labels = self.labels
        label = labels[v]
        nbrs = self.kernels.nbrs
        seen = bytearray(self.kernels.n)
        seen[v] = 1
        terms = 0.0
        pieces: list[tuple[int, int, list[int]]] = []
        for s0 in nbrs[v]:
            if labels[s0] != label or seen[s0]:
                continue
            seen[s0] = 1
            members = [s0]
            stack = [s0]
            border: set[int] = set()
            while stack:
                x = stack.pop()
                for y in nbrs[x]:
                    if y == v or labels[y] != label:
                        border.add(y)
                    elif not seen[y]:
                        seen[y] = 1
                        members.append(y)
                        stack.append(y)
            size = len(members)
            boundary = len(border)
            terms += _penalty_term(size, boundary, self.cap_mult)
            pieces.append((size, boundary, members))
        return terms, pieces

    def _analyse(self, root: int) -> _CutInfo:
        """Cut-info of ``root``'s component: one iterative low-link DFS
        (Hopcroft–Tarjan) yielding ``|C|``, the cut vertices of C, the
        number of informed boundary vertices, and per member the number
        of boundary vertices whose only neighbour in C it is."""
        labels = self.labels
        label = labels[root]
        nbrs = self.kernels.nbrs
        n = self.kernels.n
        disc = [-1] * n
        low = [0] * n
        disc[root] = 0
        count = 1
        cut: set[int] = set()
        # informed boundary vertex -> its only neighbour in C, or -1
        boundary: dict[int, int] = {}
        root_children = 0
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            x, px, it = stack[-1]
            for y in it:
                if labels[y] != label:
                    boundary[y] = -1 if y in boundary else x
                elif disc[y] < 0:
                    disc[y] = low[y] = count
                    count += 1
                    stack.append((y, x, iter(nbrs[y])))
                    break
                elif y != px and disc[y] < low[x]:
                    low[x] = disc[y]
            else:  # every neighbour of x is done
                stack.pop()
                if px == root:
                    root_children += 1
                elif px >= 0:
                    if low[x] < low[px]:
                        low[px] = low[x]
                    if low[x] >= disc[px]:
                        cut.add(px)
        if root_children > 1:
            cut.add(root)
        lost: dict[int, int] = {}
        for member in boundary.values():
            if member >= 0:
                lost[member] = lost.get(member, 0) + 1
        return count, cut, len(boundary), lost

    def _joined_term(self, v: int, info: _CutInfo) -> float:
        """The term of ``C − v`` for a non-cut ``v``: C loses ``v`` and
        each boundary vertex whose only neighbour in C is ``v``, and
        gains ``v`` as a boundary vertex.  (When C = {v} the term of the
        empty remainder is 0.0, as the flood's.)"""
        size, _cut, n_boundary, lost = info
        return _penalty_term(size - 1, n_boundary - lost.get(v, 0) + 1, self.cap_mult)

    def probe(self, v: int) -> float:
        """The penalty of ``informed ∪ {v}`` (``v`` must be uninformed)."""
        label = self._label(v)
        info = self._cut_info.get(label)
        if info is None:
            info = self._cut_info[label] = self._analyse(v)
        if v in info[1]:
            new_terms, self._pieces[v] = self._split(v)
        else:
            new_terms = self._joined_term(v, info)
        return self.total - self._terms[label] + new_terms

    def commit(self, v: int) -> None:
        """Inform ``v``: update its component's labels and terms."""
        label = self._label(v)
        info = self._cut_info.pop(label, None)
        pieces = self._pieces.get(v)
        self._pieces.clear()  # every other probe's pieces may be stale now
        if info is not None and v not in info[1]:
            term = self._joined_term(v, info)
            self.total -= self._terms[label]
            self.total += term
            self._terms[label] = term
        else:
            if pieces is None:
                _terms, pieces = self._split(v)
            self.total -= self._terms[label]
            self._terms[label] = 0.0
            for size, boundary, members in pieces:
                new_label = len(self._terms)
                term = _penalty_term(size, boundary, self.cap_mult)
                self._terms.append(term)
                self.total += term
                for m in members:
                    self.labels[m] = new_label
        self.informed |= 1 << v
        self.labels[v] = -1
