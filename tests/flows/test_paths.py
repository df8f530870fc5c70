"""Unit tests for round packing via max-flow."""

import pytest

from repro.flows.paths import decompose_paths, round_packing_bound
from repro.graphs.hypercube import hypercube
from repro.graphs.trees import path_graph, star
from repro.types import InvalidParameterError, canonical_edge


class TestPackingBound:
    def test_single_informed_is_one(self):
        g = hypercube(3)
        assert round_packing_bound(g, {0}) == 1

    def test_star_centre_plus_leaf(self):
        g = star(4)
        # centre and one leaf informed: leaf can call through centre
        assert round_packing_bound(g, {0, 1}) == 2

    def test_path_cut_limits(self):
        g = path_graph(8)
        # informed {0,1}: the edge (1,2) is a 1-cut toward the 6 targets
        assert round_packing_bound(g, {0, 1}) == 1
        # informed {0,4}: both sides open
        assert round_packing_bound(g, {0, 4}) == 2

    def test_no_targets(self):
        g = path_graph(3)
        assert round_packing_bound(g, {0, 1, 2}) == 0

    def test_requires_informed(self):
        with pytest.raises(InvalidParameterError):
            round_packing_bound(path_graph(3), set())

    def test_explicit_targets(self):
        g = star(5)
        assert round_packing_bound(g, {0}, targets={3}) == 1


class TestDecomposition:
    def _check_paths(self, g, informed, paths):
        used = set()
        sources = set()
        receivers = set()
        for p in paths:
            assert g.path_is_valid(p)
            assert p[0] in informed
            assert p[-1] not in informed
            assert p[0] not in sources
            assert p[-1] not in receivers
            sources.add(p[0])
            receivers.add(p[-1])
            for a, b in zip(p, p[1:]):
                e = canonical_edge(a, b)
                assert e not in used
                used.add(e)

    def test_paths_realize_bound(self):
        for g, informed in [
            (star(6), {0, 1}),
            (path_graph(9), {0, 4}),
            (hypercube(3), {0, 7}),
            (hypercube(4), {0, 3, 5, 9}),
        ]:
            bound = round_packing_bound(g, set(informed))
            paths = decompose_paths(g, set(informed))
            assert len(paths) == bound
            self._check_paths(g, informed, paths)

    def test_k13_round2_case(self):
        """The coordination case from the scheduler design: star centre +
        leaf both informed can cover both remaining leaves at once."""
        g = star(4)
        paths = decompose_paths(g, {0, 1})
        assert len(paths) == 2
        self._check_paths(g, {0, 1}, paths)

    def test_empty_targets(self):
        g = path_graph(3)
        assert decompose_paths(g, {0, 1, 2}) == []


def _pin_graphs():
    from repro.graphs.specs import graph_from_spec
    from repro.model.faults import faulted_graph

    specs = ["sparse:4:2", "sparse:5:2", "sparse:6:3", "hypercube:5", "knodel:3:16"]
    graphs = [(spec, graph_from_spec(spec)) for spec in [*specs, "theorem1:2"]]
    base = graph_from_spec("sparse:6:3")
    for s in range(4):
        graphs.append((f"faulted-sparse:6:3:{s}", faulted_graph(base, 3, s)[0]))
    return graphs


class TestDecompositionPin:
    """Byte pin on ``decompose_paths``: the paths greedy's final round
    takes.  Informed sets are drawn per graph from a fixed seed, and the
    sets are built in ascending order, as greedy builds them.  A change
    in arc insertion order, augmenting order or path extraction shows up
    here."""

    DIGEST = "f7473d028fa81fb6312310852f2f7d8a2d4ca03881da2f0d6a5f9d603f4b2fd3"
    PER_GRAPH = 300

    def test_paths_pinned(self):
        import hashlib
        import json
        import random

        out = []
        for name, g in _pin_graphs():
            rng = random.Random(name)
            n = g.n_vertices
            for _ in range(self.PER_GRAPH):
                density = rng.random()
                informed = {v for v in range(n) if rng.random() < density}
                informed.add(rng.randrange(n))
                out.append([name, sorted(informed), decompose_paths(g, informed)])
        blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.DIGEST
