"""Tests for the randomized capacity-aware heuristic scheduler."""

import hashlib
import json
from functools import cache

import pytest

from repro import io
from repro.graphs.base import Graph
from repro.graphs.generators import random_tree
from repro.graphs.hypercube import hypercube
from repro.graphs.specs import graph_from_spec
from repro.graphs.trees import (
    balanced_ternary_core_tree,
    complete_binary_tree,
    path_graph,
    star,
)
from repro.model.faults import faulted_graph
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


@cache
def golden_graph(name):
    if name == "faulted-sparse:6:3":
        return faulted_graph(graph_from_spec("sparse:6:3"), 3, 7)[0]
    return graph_from_spec(name)


# ((graph, source, k, restarts, seed), sha256 of the schedule's v2 payload)
GOLDEN = [
    (
        ("sparse:6:3", 0, None, 100, 11),
        "324960744cc223312c953c1312f0378196b96b03ac215ff259bd5054c1581701",
    ),
    (
        ("sparse:6:3", 21, None, 100, 32),
        "17d8726d72a4b3ca125728a80dbe4376f5353d65725da3ef86e8fa22fdced07e",
    ),
    (
        ("sparse:6:3", 63, None, 100, 74),
        "dc29efd33e6fd5dd63634c93c1016bae5eee6c975bd3a40dc6c730565d31b715",
    ),
    (
        ("faulted-sparse:6:3", 0, None, 100, 5),
        "3c4872b2713f309181e5421ab6c2a87d29eaee02aa69f40f790f2480b9b93a35",
    ),
    (
        ("faulted-sparse:6:3", 40, None, 100, 45),
        "bfe6be66c6f6676231c9a7f512bbf8d76cbf1d8e78b6f99239d5982b29e67ede",
    ),
    (
        ("hypercube:5", 0, 2, 300, 2),
        "55f2700bd9550a009973a4bfcde6f4887a33614c86bcc02d58ab48c08ed96d0e",
    ),
    (
        ("hypercube:5", 17, 2, 300, 19),
        "0248ba8f8da19649d2da901ca8e81348d24554921829628016b4ac6bb42aae94",
    ),
    (
        ("knodel:3:16", 3, 2, 300, 9),
        "0a4f7e770725618e876f74b983239ff13cb79de90fd6c58bfc902ba287ffb587",
    ),
    (
        ("theorem1:3", 0, None, 300, 1),
        "b1c8df5b8a90c1eeb2df3bc81f8ead77d278dbadf5ecd1f2846ed5bd3a65ac14",
    ),
]


class TestGoldenSchedules:
    """Byte pins on greedy's output, recorded before probes used cut
    vertices: a drift in a probe's float, the candidate order or the rng
    stream shows up here.  ``faulted-sparse:6:3`` is the survivor of
    ``faulted_graph(sparse:6:3, 3, 7)``, as in the campaigns' edge-fault
    condition."""

    @pytest.mark.parametrize("case,digest", GOLDEN)
    def test_schedule_bytes_pinned(self, case, digest):
        name, source, k, restarts, seed = case
        sched = heuristic_line_broadcast(
            golden_graph(name), source, k, restarts=restarts, seed=seed
        )
        assert sched is not None
        blob = json.dumps(
            io.frame_to_dict(sched), sort_keys=True, separators=(",", ":")
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == digest
