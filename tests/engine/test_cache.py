"""Tests for the process-wide kernel cache (`repro.engine.cache`)."""

import gc

from repro.engine.cache import (
    cache_info,
    clear_cache,
    fast_validator_for,
    kernels_for,
)
from repro.engine.kernels import GraphKernels
from repro.graphs.hypercube import hypercube
from repro.model.validator_fast import FastValidator


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

    def test_clear_cache(self):
        g = hypercube(2)
        kernels_for(g)
        assert clear_cache() >= 1
        assert cache_info()["entries"] == 0
        # entries rebuild transparently afterwards
        assert kernels_for(g) is kernels_for(g)

    def test_hit_counters(self):
        clear_cache()
        g = hypercube(2)
        kernels_for(g)
        kernels_for(g)
        info = cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1


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
