"""Tests for the randomized capacity-aware heuristic scheduler."""

import pytest

from repro.graphs.base import Graph
from repro.graphs.generators import random_tree
from repro.graphs.hypercube import hypercube
from repro.graphs.trees import (
    balanced_ternary_core_tree,
    complete_binary_tree,
    path_graph,
    star,
)
from repro.model.validator import assert_valid_broadcast, minimum_broadcast_rounds
from repro.schedulers.greedy import heuristic_line_broadcast
from repro.types import InvalidParameterError


def check(g, source, k=None, **kw):
    sched = heuristic_line_broadcast(g, source, k, **kw)
    assert sched is not None, f"no schedule found from {source}"
    assert_valid_broadcast(g, sched, k if k is not None else g.n_vertices - 1)
    assert len(sched.rounds) == minimum_broadcast_rounds(g.n_vertices)
    return sched


class TestEasyFamilies:
    def test_star_from_leaf(self):
        check(star(8), 1)

    def test_path_from_end_and_middle(self):
        check(path_graph(16), 0)
        check(path_graph(16), 7)

    def test_hypercube(self):
        check(hypercube(4), 0, k=1)

    def test_complete_binary_tree_from_root(self):
        check(complete_binary_tree(3), 0)

    def test_complete_binary_tree_from_leaf(self):
        check(complete_binary_tree(3), 14)


class TestTheorem1Trees:
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_bh_various_sources(self, h):
        g = balanced_ternary_core_tree(h)
        for s in (0, 1, g.n_vertices - 1):
            check(g, s, k=2 * h, restarts=400)


class TestRandomTrees:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_trees_complete_in_minimum_time(self, seed):
        g = random_tree(24, seed=seed)
        check(g, 0, restarts=400)


class TestEdgeCases:
    def test_rejects_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidParameterError):
            heuristic_line_broadcast(g, 0)

    def test_rejects_bad_source(self):
        with pytest.raises(InvalidParameterError):
            heuristic_line_broadcast(path_graph(4), 9)

    def test_explicit_round_budget(self):
        g = path_graph(6)
        sched = heuristic_line_broadcast(g, 0, 1, rounds=5)
        assert sched is not None
        assert_valid_broadcast(g, sched, 1, require_minimum_time=False)

    def test_surplus_budget_no_empty_trailing_rounds(self):
        """A surplus round budget must not be padded with empty rounds —
        the reported round count is the schedule's real length."""
        g = path_graph(4)
        sched = heuristic_line_broadcast(g, 0, rounds=5)
        assert sched is not None
        assert all(len(r) > 0 for r in sched.rounds)
        assert len(sched.rounds) <= 3

    def test_k1_infeasible_case_returns_none(self):
        # star from leaf at k=1 cannot finish in 2 rounds (proven in search tests)
        assert heuristic_line_broadcast(star(4), 1, 1, restarts=30) is None

    def test_deterministic_first_attempt(self):
        g = path_graph(8)
        a = heuristic_line_broadcast(g, 0, seed=5)
        b = heuristic_line_broadcast(g, 0, seed=5)
        assert a is not None and b is not None
        assert [tuple(c.path for c in r) for r in a.rounds] == [
            tuple(c.path for c in r) for r in b.rounds
        ]
