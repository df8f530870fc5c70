"""Unit tests for the graph kernel."""

import pytest

from repro.graphs.base import Graph
from repro.types import InvalidParameterError


def triangle_plus_tail() -> Graph:
    # 0-1-2-0 triangle with a tail 2-3-4
    return Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n_vertices == 0 and g.n_edges == 0
        assert g.is_connected()

    def test_add_edge_idempotent(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        for edge in ((0, 2), (2, 0), (-1, 1)):
            with pytest.raises(InvalidParameterError):
                Graph(2, [edge])

    def test_eq_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)


class TestQueries:
    def test_degrees(self):
        g = triangle_plus_tail()
        assert g.degree(2) == 3
        assert g.max_degree() == 3
        assert g.min_degree() == 1
        assert list(g.degrees()) == [2, 2, 3, 2, 1]

    def test_degree_histogram(self):
        g = triangle_plus_tail()
        assert g.degree_histogram() == {1: 1, 2: 3, 3: 1}

    def test_edges_sorted_canonical(self):
        g = triangle_plus_tail()
        assert list(g.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]

    def test_contains(self):
        g = triangle_plus_tail()
        assert (1, 0) in g
        assert (0, 3) not in g

    def test_neighbors_frozen_and_sorted(self):
        g = triangle_plus_tail()
        assert g.neighbors(2) == frozenset({0, 1, 3})
        assert g.sorted_neighbors(2) == [0, 1, 3]

    def test_distance_and_sphere_check_source(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path:4
        with pytest.raises(InvalidParameterError):
            g.distance(-1, 3)  # a negative index must not wrap around
        with pytest.raises(InvalidParameterError):
            g.distance(9, 0)
        with pytest.raises(InvalidParameterError):
            g.sphere(9, 0)


class TestTraversal:
    def test_bfs_distances(self):
        g = triangle_plus_tail()
        d = g.bfs_distances(0)
        assert list(d) == [0, 1, 1, 2, 3]

    def test_bfs_distances_disconnected(self):
        g = Graph(3, [(0, 1)])
        d = g.bfs_distances(0)
        assert d[2] == -1

    def test_distance(self):
        g = triangle_plus_tail()
        assert g.distance(0, 4) == 3
        assert g.distance(4, 0) == 3
        assert g.distance(1, 1) == 0

    def test_distance_disconnected(self):
        g = Graph(3, [(0, 1)])
        assert g.distance(0, 2) == -1

    def test_shortest_path_valid_and_minimal(self):
        g = triangle_plus_tail()
        p = g.shortest_path(0, 4)
        assert p is not None
        assert p[0] == 0 and p[-1] == 4
        assert len(p) - 1 == g.distance(0, 4)
        assert g.path_is_valid(p)

    def test_shortest_path_none_when_disconnected(self):
        g = Graph(3, [(0, 1)])
        assert g.shortest_path(0, 2) is None

    def test_ball_and_sphere(self):
        g = triangle_plus_tail()
        assert g.ball(0, 0) == {0}
        assert g.ball(0, 1) == {0, 1, 2}
        assert g.sphere(0, 2) == {3}
        assert g.ball(0, 2) == {0, 1, 2, 3}

    def test_ball_negative_radius(self):
        with pytest.raises(InvalidParameterError):
            triangle_plus_tail().ball(0, -1)

    def test_bfs_tree_parents(self):
        g = triangle_plus_tail()
        parent = g.bfs_tree(0)
        assert parent[0] == -1
        assert parent[4] == 3
        # deterministic: neighbour 1 before 2
        assert parent[1] == 0 and parent[2] == 0

    def test_diameter_and_eccentricity(self):
        g = triangle_plus_tail()
        assert g.eccentricity(4) == 3
        assert g.diameter() == 3

    def test_diameter_disconnected_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidParameterError):
            g.diameter()

    def test_is_connected(self):
        assert triangle_plus_tail().is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()


class TestInterop:
    def test_networkx_roundtrip(self):
        g = triangle_plus_tail()
        nx_g = g.to_networkx()
        back = Graph.from_networkx(nx_g)
        assert back == g

    def test_networkx_distance_crosscheck(self):
        import networkx as nx

        g = triangle_plus_tail()
        nx_g = g.to_networkx()
        for u in range(5):
            lengths = nx.single_source_shortest_path_length(nx_g, u)
            ours = g.bfs_distances(u)
            assert all(lengths[v] == ours[v] for v in range(5))

    def test_subgraph_relation(self):
        g = triangle_plus_tail()
        sub = Graph(5, [(0, 1), (2, 3)])
        assert sub.is_subgraph_of(g)
        assert not g.is_subgraph_of(sub)
        assert g.edge_difference(sub) == {(0, 2), (1, 2), (3, 4)}

    def test_path_edges(self):
        g = triangle_plus_tail()
        assert g.path_edges([0, 2, 3]) == [(0, 2), (2, 3)]
        assert not g.path_is_valid([0, 3])
        assert not g.path_is_valid([])
