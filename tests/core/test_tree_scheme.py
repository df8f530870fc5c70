"""Tests for the constructive Theorem-1 tree scheme (pump / root-fed)."""

import pytest

from repro.core.tree_scheme import (
    _HeapTree,
    pump_calls,
    rootfed_calls,
    ternary_tree_schedule,
)
from repro.graphs.trees import balanced_ternary_core_tree, complete_binary_tree
from repro.model.validator import minimum_broadcast_rounds, validate_broadcast
from repro.types import Call, InvalidParameterError, Schedule


class TestPumpPrimitive:
    """P(s): helper-fed complete binary tree fills level by level."""

    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 5])
    def test_pump_fills_tree_in_s_plus_1_rounds(self, s):
        # helper is vertex 0 of a graph containing helper + the tree
        size = (1 << (s + 1)) - 1
        from repro.graphs.base import Graph

        edges = [(0, 1)]  # helper to root
        for local in range(size):
            for child in (2 * local + 1, 2 * local + 2):
                if child < size:
                    edges.append((1 + local, 1 + child))
        g = Graph(size + 1, edges)
        tree = _HeapTree(s, lambda x: 1 + x)
        schedule = Schedule(source=0)
        for i in range(1, s + 2):
            schedule.append_round([Call.via(p) for p in pump_calls(tree, [0], i)])
        rep = validate_broadcast(g, schedule, k=size, require_minimum_time=False)
        assert rep.ok, rep.errors[:3]
        assert len(schedule.rounds) == s + 1

    def test_pump_round_informs_exactly_one_level(self):
        tree = _HeapTree(3, lambda x: x)
        informed = set()
        for i in range(1, 5):
            targets = {p[-1] for p in pump_calls(tree, [-1], i)}
            # level i-1 locals: indices 2^{i-1}-1 .. 2^i-2
            expected = set(range((1 << (i - 1)) - 1, (1 << i) - 1))
            assert targets == expected
            assert not (targets & informed)
            informed |= targets

    def test_pump_round_out_of_range(self):
        tree = _HeapTree(2, lambda x: x)
        with pytest.raises(InvalidParameterError):
            pump_calls(tree, [-1], 4)


class TestRootFedPrimitive:
    """Q(s): root-informed complete binary tree, no helper."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_rootfed_completes_in_s_plus_1_rounds(self, s):
        g = complete_binary_tree(s)
        tree = _HeapTree(s, lambda x: x)
        schedule = Schedule(source=0)
        for j in range(1, s + 2):
            schedule.append_round([Call.via(p) for p in rootfed_calls(tree, j)])
        rep = validate_broadcast(
            g, schedule, k=g.n_vertices, require_minimum_time=False
        )
        assert rep.ok, rep.errors[:3]
        # s+1 == ⌈log2(2^{s+1}−1)⌉: minimum time
        assert len(schedule.rounds) == minimum_broadcast_rounds(g.n_vertices)

    def test_rootfed_trivial_tree(self):
        tree = _HeapTree(0, lambda x: x)
        assert rootfed_calls(tree, 1) == []


class TestTernarySchedule:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6])
    def test_every_source_minimum_time(self, h):
        g = balanced_ternary_core_tree(h)
        need = minimum_broadcast_rounds(g.n_vertices)
        for s in range(g.n_vertices):
            sched = ternary_tree_schedule(h, s)
            rep = validate_broadcast(g, sched, 2 * h)
            assert rep.ok, (h, s, rep.errors[:3])
            assert len(sched.rounds) == need

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_call_lengths_at_most_h(self, h):
        """Stronger than Theorem 1: the scheme never needs calls longer
        than h (the theorem allows 2h)."""
        for s in (0, 1, 5, balanced_ternary_core_tree(h).n_vertices - 1):
            sched = ternary_tree_schedule(h, s)
            assert sched.max_call_length() <= max(2, h)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParameterError):
            ternary_tree_schedule(0, 0)
        with pytest.raises(InvalidParameterError):
            ternary_tree_schedule(2, 100)
