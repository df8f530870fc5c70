"""The warm campaign path: pre-built scenario caches in every worker.

Two contracts: the pool initializer actually pre-warms the per-process
scenario caches (hit counters prove the execution path found them), and
the worker count cannot change a campaign's bytes.
"""

import pytest

from repro.analysis.campaigns import (
    CampaignSpec,
    artifact_path,
    run_campaign_shard,
)
from repro.analysis.scenarios import (
    cached_construct,
    cached_graph,
    clear_scenario_caches,
    scenario_cache_info,
    warm_scenario_caches,
)

# Mixed scheme + registry schedulers over one sparse-hypercube spec so a
# single run exercises both instance caches.
WARM = CampaignSpec(
    name="warm-test",
    title="warm cache grid",
    graphs=("sparse:4:2",),
    schedulers=("scheme", "greedy"),
    k_values=(2,),
    sources=("first",),
    conditions=("none", "edge-faults:1"),
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_scenario_caches()
    yield
    clear_scenario_caches()


class TestWarmScenarioCaches:
    def test_prewarms_both_instance_caches(self):
        warm_scenario_caches((("hypercube:3", False), ("sparse:4:2", True)))
        info = scenario_cache_info()
        assert info["graph_entries"] == 1
        assert info["construct_entries"] == 1
        assert info["graph_misses"] == 1 and info["construct_misses"] == 1
        assert info["graph_hits"] == 0 and info["construct_hits"] == 0

    def test_lookups_after_warming_hit(self):
        warm_scenario_caches((("hypercube:3", False), ("sparse:4:2", True)))
        g1 = cached_graph("hypercube:3")
        g2 = cached_graph("hypercube:3")
        sh1 = cached_construct("sparse:4:2")
        sh2 = cached_construct("sparse:4:2")
        assert g1 is g2 and sh1 is sh2
        info = scenario_cache_info()
        assert info["graph_hits"] == 2
        assert info["construct_hits"] == 2

    def test_idempotent(self):
        pairs = (("sparse:4:2", True),)
        warm_scenario_caches(pairs)
        warm_scenario_caches(pairs)
        info = scenario_cache_info()
        assert info["construct_entries"] == 1
        assert info["construct_misses"] == 1


class TestCampaignRunsWarm:
    def test_serial_campaign_executes_on_warm_instances(self, tmp_path):
        run_campaign_shard(WARM, shard=(0, 1), out_dir=tmp_path, jobs=1)
        info = scenario_cache_info()
        # the initializer pays the misses; every scenario then hits
        assert info["construct_entries"] == 1
        assert info["construct_hits"] > 0
        assert info["graph_hits"] > 0
        assert info["construct_misses"] == 1
        assert info["graph_misses"] == 1


class TestWorkerConfigDeterminism:
    def test_worker_count_keeps_bytes(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_campaign_shard(WARM, shard=(0, 1), out_dir=serial, jobs=1)
        run_campaign_shard(WARM, shard=(0, 1), out_dir=parallel, jobs=2)
        assert (
            artifact_path(serial, WARM).read_bytes()
            == artifact_path(parallel, WARM).read_bytes()
        )
