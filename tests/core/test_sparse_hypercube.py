"""Unit tests for the SparseHypercube structure and its flat edge rule."""

import pytest

from repro.core.construct import construct, construct_base
from repro.core.sparse_hypercube import Level
from repro.domination.labeling import (
    best_available_labeling,
    paper_example_labeling_q2,
)
from repro.graphs.hypercube import hypercube
from repro.types import InvalidParameterError


class TestLevelValidation:
    def make_level(self, **overrides):
        kwargs = dict(
            t=2,
            top=4,
            threshold=2,
            block_lo=0,
            labeling=paper_example_labeling_q2(),
            partition=((3,), (4,)),
        )
        kwargs.update(overrides)
        return Level(**kwargs)

    def test_valid_level(self):
        level = self.make_level()
        assert level.block_len == 2
        assert level.num_labels == 2
        assert list(level.rule2_dims) == [3, 4]

    def test_partition_must_cover_dims(self):
        with pytest.raises(InvalidParameterError):
            self.make_level(partition=((3,), (5,)))

    def test_partition_count_must_match_labels(self):
        with pytest.raises(InvalidParameterError):
            self.make_level(partition=((3, 4),))

    def test_partition_balance_enforced(self):
        lab = best_available_labeling(2)
        with pytest.raises(InvalidParameterError):
            Level(
                t=2, top=6, threshold=2, block_lo=0, labeling=lab,
                partition=((3, 4, 5), (6,)),
            )

    def test_labeling_block_length_must_match(self):
        with pytest.raises(InvalidParameterError):
            self.make_level(threshold=3, partition=((4,), (4,)))

    def test_dim_owner(self):
        level = self.make_level()
        assert level.dim_owner == {3: 0, 4: 1}

    def test_block_value_and_label(self):
        level = self.make_level()
        assert level.block_value(0b1011) == 0b11
        assert level.label_of(0b1011) == level.labeling.label_of(0b11)

    def test_owns_edge(self):
        level = self.make_level()
        # suffix 00 has label c1 (label 0) owning dim 3
        assert level.owns_edge(0b0000, 3)
        assert not level.owns_edge(0b0000, 4)
        # suffix 01 has label c2 (label 1) owning dim 4
        assert level.owns_edge(0b0001, 4)

    def test_owns_edge_rejects_foreign_dim(self):
        with pytest.raises(InvalidParameterError):
            self.make_level().owns_edge(0, 2)


class TestSparseHypercubeStructure:
    def test_is_spanning_subgraph_of_cube(self):
        sh = construct_base(5, 2)
        g = sh.graph
        q = hypercube(5)
        assert g.n_vertices == q.n_vertices
        assert g.is_subgraph_of(q)

    def test_connected(self):
        for sh in (construct_base(5, 2), construct(3, 7, (2, 4))):
            assert sh.graph.is_connected()

    def test_edge_rule_matches_graph(self):
        sh = construct(3, 7, (2, 4))
        g = sh.graph
        for u in range(0, 128, 7):
            for dim in range(1, 8):
                v = u ^ (1 << (dim - 1))
                assert g.has_edge(u, v) == sh.has_edge_rule(u, dim)

    def test_rule_symmetry(self):
        """Rule-2 edges are consistent: both endpoints agree."""
        sh = construct(3, 7, (2, 4))
        for u in range(128):
            for dim in range(sh.base_dims + 1, 8):
                v = u ^ (1 << (dim - 1))
                assert sh.has_edge_rule(u, dim) == sh.has_edge_rule(v, dim)

    def test_degree_formula_matches_graph(self):
        for args in [(2, 5, (2,)), (2, 8, (3,)), (3, 7, (2, 4)), (4, 9, (2, 4, 6))]:
            k, n, thr = args
            sh = construct(k, n, thr)
            assert sh.degree_formula() == sh.graph.max_degree()

    def test_degree_of_vertex_matches_graph(self):
        sh = construct(3, 7, (2, 4))
        g = sh.graph
        for u in range(0, 128, 11):
            assert sh.degree_of(u) == g.degree(u)

    def test_edge_count_formula_matches_graph(self):
        for args in [(2, 5, (2,)), (3, 7, (2, 4))]:
            k, n, thr = args
            sh = construct(k, n, thr)
            assert sh.edge_count_formula() == sh.graph.n_edges

    def test_level_owning(self):
        sh = construct(3, 7, (2, 4))
        assert sh.level_owning(1) is None
        assert sh.level_owning(2) is None
        assert sh.level_owning(3).t == 2
        assert sh.level_owning(4).t == 2
        assert sh.level_owning(5).t == 3
        assert sh.level_owning(7).t == 3
        with pytest.raises(InvalidParameterError):
            sh.level_owning(8)

    def test_thresholds_must_increase(self):
        with pytest.raises(InvalidParameterError):
            construct(3, 7, (4, 2))
        with pytest.raises(InvalidParameterError):
            construct(3, 7, (2, 7))

    def test_dimension_bound_is_the_cube_bound(self):
        with pytest.raises(InvalidParameterError, match="dimension 25 exceeds 24"):
            construct_base(25, 4)
        with pytest.raises(InvalidParameterError, match="dimension 40 exceeds 24"):
            construct(3, 40, (2, 5))

    def test_describe_mentions_parameters(self):
        sh = construct_base(5, 2)
        text = sh.describe()
        assert "n=5" in text and "k=2" in text

    def test_label_summary_shape(self):
        sh = construct(3, 7, (2, 4))
        rows = sh.label_summary()
        assert len(rows) == 2
        assert rows[0]["level"] == 2 and rows[1]["level"] == 3
