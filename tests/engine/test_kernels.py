"""Engine kernels ≡ legacy set-based primitives (unit-level pinning)."""

import random

import pytest

from repro.engine.kernels import GraphKernels, PenaltyState
from repro.graphs.generators import random_connected_graph, random_tree
from repro.graphs.hypercube import hypercube
from repro.graphs.specs import graph_from_spec
from repro.graphs.trees import balanced_ternary_core_tree, path_graph, star
from repro.schedulers import legacy
from repro.types import InvalidParameterError
from repro.util.bits import mask_from_indices

GRAPHS = [
    ("path9", path_graph(9)),
    ("star7", star(7)),
    ("q3", hypercube(3)),
    ("tern2", balanced_ternary_core_tree(2)),
    ("rtree16", random_tree(16, seed=4)),
    ("rconn12", random_connected_graph(12, 6, seed=9)),
    ("cycle10", graph_from_spec("cycle:10")),  # no cut vertices
    ("sparse5_2", graph_from_spec("sparse:5:2")),
    ("knodel3_16", graph_from_spec("knodel:3:16")),
]


def random_used_edges(graph, rng, fraction=0.3):
    edges = list(graph.edges())
    count = int(len(edges) * fraction)
    return set(rng.sample(edges, count)) if count else set()


def used_mask_of(kern, used):
    return mask_from_indices(kern.edge_id(u, v) for u, v in used)


class TestEdgeIds:
    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_edge_ids_bijective(self, name, graph):
        kern = GraphKernels(graph)
        ids = {kern.edge_id(u, v) for u, v in graph.edges()}
        assert ids == set(range(kern.n_edges))
        assert kern.n_edges == graph.n_edges

    def test_path_edges_mask(self):
        g = path_graph(5)
        kern = GraphKernels(g)
        mask = kern.path_edges_mask((0, 1, 2, 3))
        assert mask.bit_count() == 3
        assert (mask >> kern.edge_id(3, 4)) & 1 == 0


class TestReachablePaths:
    @pytest.mark.parametrize("name,graph", GRAPHS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_legacy(self, name, graph, k):
        rng = random.Random(sum(map(ord, name)) + 17 * k)
        kern = GraphKernels(graph)
        for _trial in range(5):
            used = random_used_edges(graph, rng)
            caller = rng.randrange(graph.n_vertices)
            expected = legacy.reachable_paths(graph, caller, k, set(used))
            got = kern.reachable_paths(caller, k, used_mask_of(kern, used))
            assert got == expected


class TestEnumeratePaths:
    @pytest.mark.parametrize("name,graph", GRAPHS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_legacy(self, name, graph, k):
        rng = random.Random(sum(map(ord, name)) + 17 * k)
        kern = GraphKernels(graph)
        n = graph.n_vertices
        for _trial in range(5):
            used = random_used_edges(graph, rng)
            caller = rng.randrange(n)
            targets = {v for v in range(n) if v != caller and rng.random() < 0.5}
            expected = legacy.enumerate_paths(graph, caller, k, set(used), targets)
            got = kern.enumerate_paths(
                caller, k, used_mask_of(kern, used), mask_from_indices(targets)
            )
            assert got == expected


class TestComponents:
    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_matches_legacy(self, name, graph):
        rng = random.Random(sum(map(ord, name)))
        kern = GraphKernels(graph)
        n = graph.n_vertices
        for _trial in range(8):
            informed = {v for v in range(n) if rng.random() < 0.4} | {0}
            summary = kern.components(mask_from_indices(informed))
            expected = legacy.uninformed_components(graph, informed)
            got = [
                (set(summary.members(label).tolist()), None)
                for label in range(summary.n_components)
            ]
            assert [c for c, _ in got] == [c for c, _ in expected]
            assert summary.sizes == [len(c) for c, _ in expected]
            assert summary.boundaries == [len(b) for _, b in expected]

    @pytest.mark.parametrize("name,graph", GRAPHS)
    @pytest.mark.parametrize("rounds_left", [0, 1, 2, 5])
    def test_penalty_and_capacity_match_legacy(self, name, graph, rounds_left):
        rng = random.Random(sum(map(ord, name)) + 17 * rounds_left)
        kern = GraphKernels(graph)
        n = graph.n_vertices
        for _trial in range(8):
            informed = {v for v in range(n) if rng.random() < 0.4} | {0}
            mask = mask_from_indices(informed)
            assert kern.component_penalty(mask, rounds_left) == pytest.approx(
                legacy.component_penalty(graph, informed, rounds_left)
            )
            assert kern.capacity_ok(mask, rounds_left) == legacy.capacity_ok(
                graph, frozenset(informed), rounds_left
            )


class TestPenaltyState:
    @pytest.mark.parametrize("name,graph", GRAPHS)
    @pytest.mark.parametrize("rounds_left", [1, 3])
    def test_probe_equals_full_recompute(self, name, graph, rounds_left):
        rng = random.Random(sum(map(ord, name)) + 17 * rounds_left)
        kern = GraphKernels(graph)
        n = graph.n_vertices
        for _trial in range(5):
            informed = {v for v in range(n) if rng.random() < 0.3} | {0}
            if len(informed) == n:
                continue
            mask = mask_from_indices(informed)
            pstate = PenaltyState(kern, mask, rounds_left)
            for v in range(n):
                if v in informed:
                    continue
                assert pstate.probe(v) == pytest.approx(
                    kern.component_penalty(mask | (1 << v), rounds_left)
                ), f"probe({v}) diverged ({name}, informed={sorted(informed)})"

    @pytest.mark.parametrize("name,graph", GRAPHS)
    def test_commit_sequence_tracks_recompute(self, name, graph):
        rng = random.Random(sum(map(ord, name)))
        kern = GraphKernels(graph)
        n = graph.n_vertices
        mask = 1 << 0
        pstate = PenaltyState(kern, mask, 3)
        uninformed = [v for v in range(1, n)]
        rng.shuffle(uninformed)
        for v in uninformed[: n // 2]:
            pstate.commit(v)
            mask |= 1 << v
            assert pstate.total == pytest.approx(kern.component_penalty(mask, 3))
            assert pstate.informed == mask

    @pytest.mark.parametrize("v", [0, -1, -5, 5, 9])
    def test_rejects_informed_or_out_of_range_vertex(self, v):
        """An informed vertex has no component to split, and a negative
        vertex would index the labels from the end: both probe and commit
        must refuse them and leave the state untouched."""
        kern = GraphKernels(path_graph(5))
        pstate = PenaltyState(kern, 1 << 0, 2)
        assert pstate.total == kern.component_penalty(1 << 0, 2) == 1000.0
        with pytest.raises(InvalidParameterError):
            pstate.probe(v)
        with pytest.raises(InvalidParameterError):
            pstate.commit(v)
        assert pstate.total == 1000.0 and pstate.informed == 1 << 0
        assert pstate.probe(1) == kern.component_penalty(0b11, 2)


class TestGreedyRngParameter:
    def test_explicit_rng_reproducible(self):
        from repro.schedulers.greedy import heuristic_line_broadcast

        g = balanced_ternary_core_tree(2)
        runs = []
        for _ in range(2):
            sched = heuristic_line_broadcast(
                g, 1, 4, restarts=50, rng=random.Random(123)
            )
            assert sched is not None
            runs.append([tuple(c.path for c in r) for r in sched.rounds])
        assert runs[0] == runs[1]

    def test_module_global_random_untouched(self):
        """The scheduler must not consume or reseed the module-global
        ``random`` stream (reproducibility across interleaved callers)."""
        from repro.schedulers.greedy import heuristic_line_broadcast

        random.seed(99)
        before = random.getstate()
        heuristic_line_broadcast(path_graph(8), 0, seed=3, restarts=20)
        assert random.getstate() == before
