"""Tests for the exact minimum-time scheduler (complete search)."""

import pytest

from repro.core.construct import construct_base
from repro.graphs.base import Graph
from repro.graphs.hypercube import hypercube
from repro.graphs.trees import balanced_ternary_core_tree, path_graph, star
from repro.graphs.variants import cycle_graph
from repro.model.faults import remove_edges
from repro.model.validator import assert_valid_broadcast
from repro.schedulers.search import (
    SearchBudgetExceeded,
    find_minimum_time_schedule,
    is_k_mlbg_exact,
    minimum_kline_rounds,
)
from repro.types import InvalidParameterError


class TestFind:
    def test_path4_k2_from_any_source(self):
        """P4 is a 2-mlbg: even the middle vertex can use a length-2 call."""
        g = path_graph(4)
        for s in range(4):
            sched = find_minimum_time_schedule(g, s, 2)
            assert sched is not None
            assert_valid_broadcast(g, sched, 2)

    def test_path4_k1_source_asymmetry(self):
        """At k=1, P4 from an end cannot double twice (0→1, then only 1
        can make progress), but from vertex 1 it can (1→2; then 1→0 and
        2→3).  Exactly the 'regardless of originating vertex' point of
        Definition 3: P4 is not a 1-mlbg even though some sources work."""
        g = path_graph(4)
        assert find_minimum_time_schedule(g, 0, 1) is None
        sched = find_minimum_time_schedule(g, 1, 1)
        assert sched is not None and len(sched.rounds) == 2

    def test_star_leaf_needs_k2(self):
        g = star(4)
        assert find_minimum_time_schedule(g, 1, 1) is None
        sched = find_minimum_time_schedule(g, 1, 2)
        assert sched is not None and len(sched.rounds) == 2

    def test_hypercube_k1(self):
        g = hypercube(3)
        sched = find_minimum_time_schedule(g, 5, 1)
        assert sched is not None
        assert_valid_broadcast(g, sched, 1)

    def test_schedules_validate(self):
        g = balanced_ternary_core_tree(2)
        for s in (0, 1, 4):
            sched = find_minimum_time_schedule(g, s, 4)
            assert sched is not None
            assert_valid_broadcast(g, sched, 4)

    def test_budget_exceeded_raises(self):
        g = balanced_ternary_core_tree(3)
        with pytest.raises(SearchBudgetExceeded):
            find_minimum_time_schedule(g, 0, 6, node_budget=50)

    def test_rejects_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidParameterError):
            find_minimum_time_schedule(g, 0, 2)

    def test_extra_rounds_allow_harder_cases(self):
        g = path_graph(4)
        sched = find_minimum_time_schedule(g, 1, 1, rounds=3)
        assert sched is not None
        assert_valid_broadcast(g, sched, 1, require_minimum_time=False)


class TestMinimumRounds:
    def test_path4_k1_by_source(self):
        g = path_graph(4)
        assert minimum_kline_rounds(g, 0, 1) == 3  # end source is one slower
        assert minimum_kline_rounds(g, 1, 1) == 2  # inner source doubles fine

    def test_path4_k2(self):
        g = path_graph(4)
        for s in range(4):
            assert minimum_kline_rounds(g, s, 2) == 2

    def test_cycle6_k2(self):
        g = cycle_graph(6)
        assert minimum_kline_rounds(g, 0, 2) == 3  # ⌈log 6⌉ = 3


class TestKMlbgExact:
    def test_p4_classification(self):
        """P4 ∈ G₂ ∖ G₁ — the strict hierarchy of Property 2, witnessed."""
        g = path_graph(4)
        assert not is_k_mlbg_exact(g, 1)
        assert is_k_mlbg_exact(g, 2)

    def test_q2_is_1mlbg(self):
        assert is_k_mlbg_exact(hypercube(2), 1)

    def test_star_is_2mlbg_not_1(self):
        """Section 2: the star is the fewest-edge k-mlbg for k ≥ 2."""
        g = star(8)
        assert is_k_mlbg_exact(g, 2)
        assert not is_k_mlbg_exact(g, 1)

    def test_g42_independent_verification(self):
        """G_{4,2} is a 2-mlbg by *search*, independent of Broadcast_2."""
        sh = construct_base(4, 2)
        assert is_k_mlbg_exact(sh.graph, 2)

    def test_g42_single_edge_removal_survives(self):
        """Deleting one Rule-2 edge does *not* break the 2-mlbg property —
        the paper's construction is degree-minimizing, not edge-critical
        (an empirical observation the search certifies)."""
        sh = construct_base(4, 2)
        rule2 = [e for e in sh.graph.edges() if (e[0] ^ e[1]) in (4, 8)]
        g = remove_edges(sh.graph, {rule2[0]})
        assert is_k_mlbg_exact(g, 2)

    def test_ball_starved_source_breaks_property(self):
        """Theorem 2's counting argument, made concrete: if a vertex sees
        fewer than n vertices within distance 2, it cannot source a
        minimum-time 2-line broadcast — deleting 2 of vertex 0's edges in
        G_{4,2} leaves |ball(0,2)|−1 = 3 < 4."""
        sh = construct_base(4, 2)
        nbrs = sorted(sh.graph.neighbors(0))
        g = remove_edges(sh.graph, {(0, v) for v in nbrs[:2]})
        assert len(g.ball(0, 2)) - 1 < 4
        assert find_minimum_time_schedule(g, 0, 2) is None

    def test_theorem1_tree_h1(self):
        g = balanced_ternary_core_tree(1)
        assert is_k_mlbg_exact(g, 2)
        assert not is_k_mlbg_exact(g, 1)
