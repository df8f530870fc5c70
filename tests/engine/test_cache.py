"""Tests for the process-wide kernel cache (`repro.engine.cache`)."""

import gc
import weakref

import pytest

from repro.engine.cache import (
    SPEC_MEMO_SIZE,
    cache_info,
    clear_cache,
    construction_for,
    fast_validator_for,
    graph_for,
    kernels_for,
)
from repro.engine.kernels import GraphKernels
from repro.graphs.hypercube import hypercube
from repro.model.validator_fast import FastValidator
from repro.types import InvalidParameterError


class TestKernelCache:
    def test_frozen_graph_shares_one_instance(self):
        g = hypercube(3)
        assert kernels_for(g) is kernels_for(g)
        assert fast_validator_for(g) is fast_validator_for(g)

    def test_distinct_graphs_get_distinct_entries(self):
        g1, g2 = hypercube(3), hypercube(3)
        assert kernels_for(g1) is not kernels_for(g2)

    def test_returned_types(self):
        g = hypercube(2)
        assert isinstance(kernels_for(g), GraphKernels)
        assert isinstance(fast_validator_for(g), FastValidator)

    def test_eviction_on_garbage_collection(self):
        clear_cache()
        g = hypercube(3)
        kernels_for(g)
        assert cache_info()["entries"] == 1
        del g
        gc.collect()
        assert cache_info()["entries"] == 0
        assert cache_info()["evictions"] >= 1

    @pytest.mark.parametrize("spec", [None, "sparse:4:2"], ids=["graph", "spec"])
    def test_clear_cache(self, spec):
        g = hypercube(2) if spec is None else graph_for(spec)
        kernels_for(g)
        assert clear_cache() >= 1
        info = cache_info()
        assert info["entries"] == 0
        assert info["graphs"] == info["constructions"] == 0
        # entries rebuild transparently afterwards
        assert kernels_for(g) is kernels_for(g)
        if spec is not None:  # and the memo builds anew
            assert graph_for(spec) is not g
        kernels_for(graph_for("path:4"))  # a graph only the memo holds ...
        clear_cache()  # ... goes before the counters reset
        assert cache_info()["evictions"] == 0

    def test_hit_counters(self):
        clear_cache()
        g = hypercube(2)
        kernels_for(g)
        kernels_for(g)
        info = cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1


class TestSpecMemo:
    def test_a_spec_names_one_graph(self):
        assert graph_for("sparse:5:2") is construction_for("sparse:5:2").graph
        assert graph_for("hypercube:3") is graph_for("hypercube:3")

    def test_one_spec_however_spelled(self):
        """The memos key on the spec as ``parse_spec`` reads it."""
        clear_cache()
        spellings = ["sparse:6:3", "Sparse:6:3", " sparse:6:3"]
        graphs = {id(graph_for(spec)) for spec in spellings}
        constructions = {id(construction_for(spec)) for spec in spellings}
        assert len(graphs) == len(constructions) == 1
        info = cache_info()
        assert info["graphs"] == info["constructions"] == 1

    def test_a_bad_spec_is_never_cached(self):
        clear_cache()
        for spec in ("sparse:6", "nosuch:3", "sparse:x:3"):
            with pytest.raises(InvalidParameterError):
                graph_for(spec)
        with pytest.raises(InvalidParameterError, match="unknown construction"):
            construction_for("nosuch:3")
        info = cache_info()
        assert info["graphs"] == info["constructions"] == 0

    def test_bound_evicts_least_recent_spec(self):
        gc.collect()
        clear_cache()
        specs = [f"path:{n}" for n in range(2, SPEC_MEMO_SIZE + 4)]
        first = graph_for(specs[0])
        kernels_for(first)
        collected = weakref.ref(first)
        del first
        for spec in specs[1:]:
            graph_for(spec)
        assert cache_info()["graphs"] == SPEC_MEMO_SIZE
        gc.collect()
        assert collected() is None
        info = cache_info()
        assert info["evictions"] == 1 and info["entries"] == 0


class TestCacheUsers:
    def test_scheduler_and_simulator_share_the_validator(self):
        from repro.model.simulator import LineNetworkSimulator
        from repro.schedulers.greedy import heuristic_line_broadcast

        g = hypercube(3)
        sched = heuristic_line_broadcast(g, 0, 2, seed=0)
        assert sched is not None
        sim = LineNetworkSimulator(g, 2)
        assert sim.broadcast_completes(sched)
        assert sim._fast_validator is fast_validator_for(g)
