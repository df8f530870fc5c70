"""The warm campaign path: pre-built scenario instances in every worker.

Two contracts: the pool initializer actually pre-warms the process's
spec memo and engine cache (:func:`repro.engine.cache.cache_info`
proves the execution path found them), and the worker count cannot
change a campaign's bytes.
"""

import importlib

import pytest

from repro.analysis import campaigns
from repro.analysis.campaigns import (
    CampaignRunner,
    CampaignSpec,
    artifact_path,
    run_campaign_shard,
)
from repro.analysis.scenarios import (
    clear_scenario_caches,
    run_scenario,
    warm_scenario_caches,
)
from repro.engine.cache import (
    cache_info,
    construction_for,
    fast_validator_for,
    graph_for,
)

# Mixed scheme + registry schedulers over one sparse-hypercube spec so a
# single run exercises both of the spec's roles.
WARM = CampaignSpec(
    name="warm-test",
    title="warm cache grid",
    graphs=("sparse:4:2",),
    schedulers=("scheme", "greedy"),
    k_values=(2,),
    sources=("first",),
    conditions=("none", "edge-faults:1"),
)


def _run_and_count(sc):
    """``run_scenario``, with the cache counters of the worker that ran
    it, as the scenario found them, added to its row."""
    found = cache_info()
    return {**run_scenario(sc), "cache": found}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_scenario_caches()
    yield
    clear_scenario_caches()


class TestWarmScenarioCaches:
    def test_prewarms_memo_and_validators(self):
        warm_scenario_caches((("hypercube:3", False), ("sparse:4:2", True)))
        info = cache_info()
        assert info["graphs"] == 1 and info["constructions"] == 1
        assert info["entries"] == 2  # one validator per graph
        assert info["misses"] == 2 and info["hits"] == 0

    def test_lookups_after_warming_hit(self):
        warm_scenario_caches((("hypercube:3", False), ("sparse:4:2", True)))
        g1 = graph_for("hypercube:3")
        g2 = graph_for("hypercube:3")
        sh1 = construction_for("sparse:4:2")
        sh2 = construction_for("sparse:4:2")
        assert g1 is g2 and sh1 is sh2
        fast_validator_for(g1)
        fast_validator_for(sh1.graph)
        info = cache_info()
        assert info["graphs"] == 1 and info["constructions"] == 1
        assert info["misses"] == 2 and info["hits"] == 2

    def test_idempotent(self):
        pairs = (("sparse:4:2", True),)
        warm_scenario_caches(pairs)
        warm_scenario_caches(pairs)
        info = cache_info()
        assert info["constructions"] == 1 and info["graphs"] == 0
        assert info["entries"] == 1
        assert info["misses"] == 1 and info["hits"] == 1

    def test_both_roles_of_a_spec_build_it_once(self, monkeypatch):
        construct = importlib.import_module("repro.core.construct")
        built = []
        build = construct.construct_base

        def counted(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(construct, "construct_base", counted)
        warm_scenario_caches((("sparse:4:2", False), ("sparse:4:2", True)))
        assert built == [(4, 2)]
        assert graph_for("sparse:4:2") is construction_for("sparse:4:2").graph
        assert cache_info()["entries"] == 1


class TestCampaignRunsWarm:
    def test_serial_campaign_executes_on_warm_instances(self, monkeypatch):
        # patched before the pool forks, so its one worker runs it
        monkeypatch.setattr(campaigns, "run_scenario", _run_and_count)
        found = [o.row["cache"] for o in CampaignRunner(jobs=1).run(WARM)]
        # the initializer built the spec's one graph, its construction
        # and its validator before the first scenario started
        for info in found:
            assert info["graphs"] == 1 and info["constructions"] == 1
            assert info["entries"] >= 1 and info["misses"] >= 1


class TestWorkerConfigDeterminism:
    def test_worker_count_keeps_bytes(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_campaign_shard(WARM, shard=(0, 1), out_dir=serial, jobs=1)
        run_campaign_shard(WARM, shard=(0, 1), out_dir=parallel, jobs=2)
        assert (
            artifact_path(serial, WARM).read_bytes()
            == artifact_path(parallel, WARM).read_bytes()
        )
