"""Property-based agreement: engine kernels ≡ legacy scheduler primitives.

The acceptance pin for the shared scheduling engine: on randomly drawn
connected graphs, with random used-edge sets and target sets, the
CSR-native kernels return *identical* output to the legacy set-based
``_reachable_paths`` / ``_enumerate_paths`` (kept verbatim in
:mod:`repro.schedulers.legacy`), and the component/capacity machinery
agrees exactly.  ``PenaltyState``'s cut-vertex-aware probes are pinned
bit-for-bit against :class:`ReferencePenaltyState`, which floods every probe.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.kernels import (
    UNREACHED,
    ComponentSummary,
    GraphKernels,
    PenaltyState,
    _penalty_term,
)
from repro.graphs.generators import random_connected_graph
from repro.graphs.hypercube import hypercube
from repro.graphs.trees import balanced_ternary_core_tree, path_graph
from repro.schedulers import legacy
from repro.types import InvalidParameterError
from repro.util.bits import mask_from_indices

COMMON = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def draw_instance(n, extra, seed):
    graph = random_connected_graph(n, extra, seed=seed)
    rng = random.Random(seed * 7919 + n)
    edges = list(graph.edges())
    used = {e for e in edges if rng.random() < 0.3}
    caller = rng.randrange(n)
    targets = {v for v in range(n) if v != caller and rng.random() < 0.5}
    return graph, used, caller, targets


@COMMON
@given(
    n=st.integers(4, 14),
    extra=st.integers(0, 8),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 4),
)
def test_reachable_paths_equivalence(n, extra, seed, k):
    graph, used, caller, _targets = draw_instance(n, extra, seed)
    kern = GraphKernels(graph)
    used_mask = mask_from_indices(kern.edge_id(u, v) for u, v in used)
    assert kern.reachable_paths(caller, k, used_mask) == legacy.reachable_paths(
        graph, caller, k, set(used)
    )


@COMMON
@given(
    n=st.integers(4, 12),
    extra=st.integers(0, 6),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
)
def test_enumerate_paths_equivalence(n, extra, seed, k):
    graph, used, caller, targets = draw_instance(n, extra, seed)
    kern = GraphKernels(graph)
    used_mask = mask_from_indices(kern.edge_id(u, v) for u, v in used)
    assert kern.enumerate_paths(
        caller, k, used_mask, mask_from_indices(targets)
    ) == legacy.enumerate_paths(graph, caller, k, set(used), targets)


@COMMON
@given(
    n=st.integers(4, 14),
    extra=st.integers(0, 8),
    seed=st.integers(0, 10_000),
    rounds_left=st.integers(0, 5),
)
def test_components_and_capacity_equivalence(n, extra, seed, rounds_left):
    graph, _used, _caller, informed = draw_instance(n, extra, seed)
    informed = informed | {0}
    kern = GraphKernels(graph)
    mask = mask_from_indices(informed)

    summary = kern.components(mask)
    expected = legacy.uninformed_components(graph, informed)
    assert [
        set(summary.members(label).tolist())
        for label in range(summary.n_components)
    ] == [comp for comp, _ in expected]
    assert summary.boundaries == [len(b) for _, b in expected]

    assert kern.capacity_ok(mask, rounds_left) == legacy.capacity_ok(
        graph, frozenset(informed), rounds_left
    )
    assert kern.component_penalty(mask, rounds_left) == pytest.approx(
        legacy.component_penalty(graph, informed, rounds_left)
    )


class ReferencePenaltyState:
    """The bitmask-flood ``PenaltyState`` as it stood before probes used
    cut vertices, kept verbatim: every probe flood-fills the split."""

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
        # The caller may keep reading its summary; labels are mutated on
        # commit, so take an independent copy.
        self.labels = summary.labels.copy()
        self._terms: list[float] = [
            _penalty_term(s, b, self.cap_mult)
            for s, b in zip(summary.sizes, summary.boundaries)
        ]
        self.total = float(sum(self._terms))

    def _split(self, v: int) -> tuple[float, list[tuple[int, int, list[int]]]]:
        """Penalty terms of the pieces ``v``'s component splits into when
        ``v`` becomes informed.  Returns ``(terms_sum, pieces)`` with each
        piece's ``(size, boundary_count, members)``."""
        labels = self.labels
        label = int(labels[v])
        informed_v = self.informed | (1 << v)
        nbrs = self.kernels.nbrs
        visited = 1 << v
        terms = 0.0
        pieces: list[tuple[int, int, list[int]]] = []
        for s0 in nbrs[v]:
            if labels[s0] != label or (visited >> s0) & 1:
                continue
            visited |= 1 << s0
            members = [s0]
            stack = [s0]
            bmask = 0
            while stack:
                x = stack.pop()
                for y in nbrs[x]:
                    if (informed_v >> y) & 1:
                        bmask |= 1 << y
                    elif not (visited >> y) & 1:
                        visited |= 1 << y
                        members.append(y)
                        stack.append(y)
            size = len(members)
            boundary = bmask.bit_count()
            terms += _penalty_term(size, boundary, self.cap_mult)
            pieces.append((size, boundary, members))
        return terms, pieces

    def probe(self, v: int) -> float:
        """The penalty of ``informed ∪ {v}`` (``v`` must be uninformed)."""
        label = int(self.labels[v])
        new_terms, _pieces = self._split(v)
        return self.total - self._terms[label] + new_terms

    def commit(self, v: int) -> None:
        """Inform ``v``: split its component and update labels/terms."""
        label = int(self.labels[v])
        _terms, pieces = self._split(v)
        self.informed |= 1 << v
        self.total -= self._terms[label]
        self._terms[label] = 0.0
        self.labels[v] = -1
        for size, boundary, members in pieces:
            new_label = len(self._terms)
            term = _penalty_term(size, boundary, self.cap_mult)
            self._terms.append(term)
            self.total += term
            for m in members:
                self.labels[m] = new_label


@COMMON
@given(
    n=st.integers(2, 16),
    extra=st.one_of(st.just(0), st.integers(1, 10)),  # about half trees
    seed=st.integers(0, 10_000),
    rounds_left=st.integers(0, 5),
    rng=st.randoms(use_true_random=False),
)
def test_penalty_state_probes_equal_reference(n, extra, seed, rounds_left, rng):
    """Every probe and total equals the flood-every-probe reference
    exactly (``==``, not approx), through a random commit sequence.
    ``extra = 0`` draws trees, where every internal vertex is a cut
    vertex."""
    graph = random_connected_graph(n, extra, seed=seed)
    kern = GraphKernels(graph)
    density = rng.random()
    informed = {v for v in range(n) if rng.random() < density} | {rng.randrange(n)}
    mask = mask_from_indices(informed)
    state = PenaltyState(kern, mask, rounds_left)
    ref = ReferencePenaltyState(kern, mask, rounds_left)
    commits = [v for v in range(n) if v not in informed]
    rng.shuffle(commits)
    for c in [None, *commits[: rng.randrange(len(commits) + 1)]]:
        if c is not None:
            state.commit(c)
            ref.commit(c)
        assert state.total == ref.total
        assert state.informed == ref.informed
        for v in range(n):
            if not (state.informed >> v) & 1:
                assert state.probe(v) == ref.probe(v), (v, sorted(informed))


def _assert_same_state(state, ref, n):
    assert state.total == ref.total
    assert state.informed == ref.informed
    for v in range(n):
        if not (state.informed >> v) & 1:
            assert state.probe(v) == ref.probe(v), v


@COMMON
@given(
    n=st.integers(2, 16),
    extra=st.one_of(st.just(0), st.integers(1, 10)),
    seed=st.integers(0, 10_000),
    rounds_left=st.integers(0, 5),
    rng=st.randoms(use_true_random=False),
)
def test_penalty_state_interleavings_equal_reference(n, extra, seed, rounds_left, rng):
    """Random interleavings of ``probe`` and ``commit``: a probe then a
    commit of the same vertex (greedy's pattern), a commit with no probe
    since the last commit, and a probe of ``v`` followed by a commit of
    another vertex ``w`` of ``v``'s component and then of ``v`` itself.
    Every probe, total and informed mask equals the reference."""
    graph = random_connected_graph(n, extra, seed=seed)
    kern = GraphKernels(graph)
    informed = {rng.randrange(n)}
    mask = mask_from_indices(informed)
    state = PenaltyState(kern, mask, rounds_left)
    ref = ReferencePenaltyState(kern, mask, rounds_left)
    while state.informed != kern.full_mask:
        open_ = [v for v in range(n) if not (state.informed >> v) & 1]
        v = rng.choice(open_)
        kind = rng.randrange(3)
        if kind == 0:  # probe, then commit the probed vertex
            assert state.probe(v) == ref.probe(v)
            state.commit(v)
            ref.commit(v)
        elif kind == 1:  # commit without a probe since the last commit
            state.commit(v)
            ref.commit(v)
        else:  # probe v, commit a component-mate w, then commit v
            assert state.probe(v) == ref.probe(v)
            mates = [w for w in open_ if w != v and ref.labels[w] == ref.labels[v]]
            if mates:
                w = rng.choice(mates)
                state.commit(w)
                ref.commit(w)
                assert state.total == ref.total
            state.commit(v)
            ref.commit(v)
        assert state.total == ref.total
        assert state.informed == ref.informed
    assert state.total == ref.total


@pytest.mark.parametrize(
    "graph",
    [path_graph(8), balanced_ternary_core_tree(2), hypercube(3)],
    ids=["path:8", "theorem1:2", "hypercube:3"],
)
@pytest.mark.parametrize("rounds_left", [0, 1, 2])
def test_penalty_state_commit_after_another_commit(graph, rounds_left):
    """A vertex ``c`` probed, then another vertex ``w`` committed, then
    ``c`` committed: when ``w`` shares ``c``'s component, the probe's
    pieces are stale by then.  Scripted on every pair ``c ≠ w`` from the
    state where only vertex 0 is informed.  The trees have cut vertices
    there; ``hypercube:3`` has none, so its commits keep their labels."""
    kern = GraphKernels(graph)
    n = graph.n_vertices
    for c in range(1, n):
        for w in range(1, n):
            if w == c:
                continue
            state = PenaltyState(kern, 1, rounds_left)
            ref = ReferencePenaltyState(kern, 1, rounds_left)
            assert state.probe(c) == ref.probe(c)
            state.commit(w)
            ref.commit(w)
            state.commit(c)
            ref.commit(c)
            _assert_same_state(state, ref, n)
            x = next(x for x in range(n) if not (state.informed >> x) & 1)
            state.commit(x)  # no probe since the last commit
            ref.commit(x)
            _assert_same_state(state, ref, n)


@COMMON
@given(
    n=st.integers(2, 14),
    extra=st.integers(0, 8),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 5),
    with_caller=st.booleans(),
)
def test_nearest_depth_is_min_reachable_depth(n, extra, seed, k, with_caller):
    """``nearest_depth`` is the least BFS depth ``reachable`` gives any
    target (the caller's is 0), or ``None`` when it reaches none."""
    graph, used, caller, targets = draw_instance(n, extra, seed)
    if with_caller:
        targets = targets | {caller}
    kern = GraphKernels(graph)
    used_mask = mask_from_indices(kern.edge_id(u, v) for u, v in used)
    parent, _order = kern.reachable(caller, k, used_mask)
    expected = min(
        (len(kern.path_to(parent, v)) - 1 for v in targets if parent[v] != UNREACHED),
        default=None,
    )
    got = kern.nearest_depth(caller, k, used_mask, mask_from_indices(targets))
    assert got == expected
