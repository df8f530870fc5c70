"""Textual graph specs (``family[:int...]``) used by the schedule CLI."""

import pytest

from repro.graphs.hypercube import hypercube
from repro.graphs.specs import graph_from_spec, parse_spec, spec_names, spec_vertices
from repro.graphs.trees import balanced_ternary_core_tree, path_graph
from repro.types import InvalidParameterError


class TestParsing:
    def test_hypercube(self):
        assert graph_from_spec("hypercube:3") == hypercube(3)

    def test_theorem1(self):
        assert graph_from_spec("theorem1:2") == balanced_ternary_core_tree(2)

    def test_path(self):
        assert graph_from_spec("path:9") == path_graph(9)

    def test_case_and_whitespace_insensitive_name(self):
        assert graph_from_spec(" Path:5") == path_graph(5)

    def test_random_tree_default_seed(self):
        assert graph_from_spec("random-tree:12") == graph_from_spec("random-tree:12:0")
        assert graph_from_spec("random-tree:12:1") != graph_from_spec(
            "random-tree:12:2"
        )

    def test_sparse_hypercube(self):
        g = graph_from_spec("sparse:4:2")
        assert g.n_vertices == 16

    def test_deterministic(self):
        assert graph_from_spec("random-graph:10:4:3") == graph_from_spec(
            "random-graph:10:4:3"
        )


class TestErrors:
    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError, match="unknown graph spec"):
            graph_from_spec("moebius:5")

    def test_non_integer_args(self):
        with pytest.raises(InvalidParameterError, match="must be integers"):
            graph_from_spec("path:five")

    def test_wrong_arity(self):
        with pytest.raises(InvalidParameterError, match="argument count"):
            graph_from_spec("hypercube:3:3:3")

    def test_spec_names_cover_builders(self):
        names = spec_names()
        assert any(u.startswith("hypercube") for u in names)
        assert len(names) == len(set(names))


class TestSpecVertices:
    """``spec_vertices`` reads the vertex count off the family's formula;
    campaigns rank scenarios by it, so it must match the built graph."""

    EXAMPLES = [
        "hypercube:0",
        "hypercube:4",
        "theorem1:1",
        "theorem1:3",
        "path:1",
        "path:9",
        "star:6",
        "cycle:7",
        "complete-binary:0",
        "complete-binary:3",
        "random-tree:12",
        "random-tree:12:5",
        "random-graph:10:4",
        "random-graph:10:4:3",
        "sparse:4:2",
        "sparse:6:3",
        "knodel:3:16",
    ]

    @pytest.mark.parametrize("spec", EXAMPLES)
    def test_matches_built_graph(self, spec):
        assert spec_vertices(spec) == graph_from_spec(spec).n_vertices

    def test_examples_cover_every_family(self):
        families = {usage.split(":")[0] for usage in spec_names()}
        assert {parse_spec(spec)[0] for spec in self.EXAMPLES} == families

    def test_builds_nothing_and_takes_rejected_values(self):
        # graph_from_spec would reject these; a count still comes back
        assert spec_vertices("hypercube:-3") == 1
        assert spec_vertices("knodel:9:3") == 3

    def test_wrong_arity(self):
        with pytest.raises(InvalidParameterError, match="argument count"):
            spec_vertices("sparse:6")
