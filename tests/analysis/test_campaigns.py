"""Campaign expansion, sharding, the scenario cache, and merge determinism."""

import json

import pytest

from repro.analysis import campaigns
from repro.analysis.campaigns import (
    BUILTIN_CAMPAIGNS,
    CampaignRunner,
    CampaignSpec,
    artifact_path,
    campaign_digest,
    expand_campaign,
    load_campaign,
    merge_chunks,
    parse_shard,
    run_campaign_shard,
    shard_scenarios,
)
from repro.graphs.specs import parse_spec
from repro.types import InvalidParameterError

# A deliberately tiny grid so the execution tests stay fast.
TINY = CampaignSpec(
    name="tiny-test",
    title="tiny test grid",
    graphs=("hypercube:3", "path:8"),
    schedulers=("greedy",),
    k_values=(2, None),
    sources=("first",),
    conditions=("none", "edge-faults:1"),
)


class TestExpansion:
    def test_grid_size_and_indices(self):
        scenarios = expand_campaign(TINY)
        assert len(scenarios) == TINY.n_scenarios == 2 * 1 * 2 * 1 * 2
        assert [sc.index for sc in scenarios] == list(range(len(scenarios)))
        assert len({sc.scenario_id for sc in scenarios}) == len(scenarios)

    def test_seeds_are_deterministic_and_distinct(self):
        first = [sc.seed for sc in expand_campaign(TINY)]
        second = [sc.seed for sc in expand_campaign(TINY)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_seed_independent_of_shard_layout(self):
        scenarios = expand_campaign(TINY)
        sharded = shard_scenarios(scenarios, (1, 3))
        for sc in sharded:
            assert sc.seed == scenarios[sc.index].seed

    def test_bad_axis_rejected_at_expansion(self):
        bad = CampaignSpec(
            name="bad", title="bad", graphs=("nope:1",), schedulers=("greedy",)
        )
        with pytest.raises(InvalidParameterError):
            expand_campaign(bad)

    def test_empty_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            CampaignSpec(name="x", title="x", graphs=(), schedulers=("greedy",))


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/1") == (0, 1)
        assert parse_shard("2/5") == (2, 5)

    @pytest.mark.parametrize("bad", ["x", "1", "2/2", "3/2", "-1/2", "1/0", "a/b"])
    def test_parse_shard_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_shard(bad)

    def test_shards_partition_the_grid(self):
        scenarios = expand_campaign(TINY)
        for m in (1, 2, 3, 8):
            shards = [shard_scenarios(scenarios, (i, m)) for i in range(m)]
            indices = sorted(sc.index for shard in shards for sc in shard)
            assert indices == [sc.index for sc in scenarios]


class TestBuiltins:
    def test_builtins_expand_clean(self):
        for spec in BUILTIN_CAMPAIGNS.values():
            scenarios = expand_campaign(spec)
            assert len(scenarios) == spec.n_scenarios

    def test_acceptance_coverage(self):
        """The PR's acceptance floor: >= 3 built-ins spanning >= 3 graph
        families, >= 2 schedulers, and >= 2 injected conditions."""
        assert len(BUILTIN_CAMPAIGNS) >= 3
        families = set()
        schedulers = set()
        condition_kinds = set()
        for spec in BUILTIN_CAMPAIGNS.values():
            families.update(parse_spec(g)[0] for g in spec.graphs)
            schedulers.update(spec.schedulers)
            condition_kinds.update(
                c.partition(":")[0] for c in spec.conditions if c != "none"
            )
        assert len(families) >= 3
        assert len(schedulers) >= 2
        assert {"edge-faults", "congestion"} <= condition_kinds

    def test_load_campaign_by_name(self):
        assert load_campaign("paper-grid") is BUILTIN_CAMPAIGNS["paper-grid"]

    def test_load_campaign_unknown(self):
        with pytest.raises(InvalidParameterError):
            load_campaign("nope")


class TestJsonSpecs:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(
            json.dumps(
                {
                    "name": "custom",
                    "graphs": ["hypercube:3"],
                    "schedulers": ["greedy"],
                    "k_values": [2, None],
                    "conditions": ["none", "congestion:2"],
                }
            )
        )
        spec = load_campaign(str(path))
        assert spec.name == "custom"
        assert spec.k_values == (2, None)
        assert spec.sources == ("sample:16",)  # default
        assert spec.n_scenarios == 4

    @pytest.mark.parametrize(
        "payload",
        [
            {"graphs": ["hypercube:3"], "schedulers": ["greedy"]},  # no name
            {"name": 5, "graphs": ["hypercube:3"], "schedulers": ["greedy"]},
            {"name": "x", "schedulers": ["greedy"]},  # no graphs
            {"name": "x", "graphs": ["bogus:1"], "schedulers": ["greedy"]},
            {"name": "x", "graphs": ["hypercube:3"], "schedulers": ["nope"]},
            {
                "name": "x",
                "graphs": ["hypercube:3"],
                "schedulers": ["greedy"],
                "k_values": ["two"],
            },
            {
                "name": "x",
                "graphs": ["hypercube:3"],
                "schedulers": ["greedy"],
                "surprise": 1,
            },
            {
                "name": "x",
                "graphs": ["hypercube:3"],
                "schedulers": ["greedy"],
                "k_values": [True],
            },
            {
                "name": "x",
                "graphs": ["hypercube:3"],
                "schedulers": ["greedy"],
                "base_seed": False,
            },
        ],
    )
    def test_malformed_specs_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidParameterError):
            load_campaign(str(path))

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidParameterError):
            load_campaign(str(path))


class TestMergeDeterminism:
    def test_sharded_merge_byte_identical_to_single_shot(self, tmp_path):
        single, sharded = tmp_path / "single", tmp_path / "sharded"
        run_campaign_shard(TINY, shard=(0, 1), out_dir=single)
        run_campaign_shard(TINY, shard=(0, 2), out_dir=sharded)
        run_campaign_shard(TINY, shard=(1, 2), out_dir=sharded)
        merged, rows = merge_chunks(TINY, sharded)
        assert len(rows) == TINY.n_scenarios
        assert merged.read_bytes() == artifact_path(single, TINY).read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        run_campaign_shard(TINY, shard=(0, 1), out_dir=seq, jobs=1)
        run_campaign_shard(TINY, shard=(0, 1), out_dir=par, jobs=2)
        assert (
            artifact_path(seq, TINY).read_bytes()
            == artifact_path(par, TINY).read_bytes()
        )

    def test_merge_missing_shard_fails(self, tmp_path):
        run_campaign_shard(TINY, shard=(0, 2), out_dir=tmp_path)
        with pytest.raises(InvalidParameterError, match="missing scenario"):
            merge_chunks(TINY, tmp_path)

    def test_merge_mixed_layouts_fails(self, tmp_path):
        run_campaign_shard(TINY, shard=(0, 2), out_dir=tmp_path)
        run_campaign_shard(TINY, shard=(0, 3), out_dir=tmp_path)
        with pytest.raises(InvalidParameterError, match="mixed shard layouts"):
            merge_chunks(TINY, tmp_path)

    def test_merge_no_chunks_fails(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="no chunks"):
            merge_chunks(TINY, tmp_path)

    def test_merge_refuses_chunks_from_older_code(self, tmp_path, monkeypatch):
        run_campaign_shard(TINY, shard=(0, 2), out_dir=tmp_path)
        run_campaign_shard(TINY, shard=(1, 2), out_dir=tmp_path)
        monkeypatch.setattr(campaigns, "scenarios_code_digest", lambda: "f" * 16)
        with pytest.raises(InvalidParameterError, match="digest"):
            merge_chunks(TINY, tmp_path)

    def test_merge_refuses_rows_from_another_grid(self, tmp_path):
        run_campaign_shard(TINY, shard=(0, 2), out_dir=tmp_path)
        run_campaign_shard(TINY, shard=(1, 2), out_dir=tmp_path)
        # tamper one row's identity: a stale chunk from an edited grid
        chunk = tmp_path / "tiny-test-shard0of2.jsonl"
        lines = chunk.read_text().splitlines()
        row = json.loads(lines[0])
        row["seed"] += 1
        lines[0] = json.dumps(row, sort_keys=True, separators=(",", ":"))
        chunk.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(InvalidParameterError, match="stale chunk row"):
            merge_chunks(TINY, tmp_path)


class TestManifestDeterminism:
    """Regression for the unsorted-JSON manifest/cache writes (RL002):
    two runs of the same campaign must produce byte-identical artifacts
    once wall-clock duration fields are normalized out."""

    @staticmethod
    def _normalized_bytes(path):
        payload = json.loads(path.read_text())
        payload["seconds"] = 0
        for sc in payload["scenarios"]:
            sc["seconds"] = 0
        # re-dump in the writer's exact format: if key order ever became
        # insertion-dependent again, these strings would diverge
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def test_two_runs_produce_byte_identical_manifests(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_campaign_shard(TINY, shard=(0, 1), out_dir=a)
        run_campaign_shard(TINY, shard=(0, 1), out_dir=b)
        ma = campaigns.manifest_path(a, TINY, (0, 1))
        mb = campaigns.manifest_path(b, TINY, (0, 1))
        assert self._normalized_bytes(ma) == self._normalized_bytes(mb)

    def test_manifest_keys_are_sorted(self, tmp_path):
        run_campaign_shard(TINY, shard=(0, 1), out_dir=tmp_path)
        mpath = campaigns.manifest_path(tmp_path, TINY, (0, 1))
        payload = json.loads(mpath.read_text())
        assert list(payload) == sorted(payload)
        assert all(list(sc) == sorted(sc) for sc in payload["scenarios"])

    def test_cache_entries_are_byte_identical_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        cache_a, cache_b = tmp_path / "ca", tmp_path / "cb"
        run_campaign_shard(TINY, shard=(0, 1), out_dir=out_a, cache_dir=cache_a)
        run_campaign_shard(TINY, shard=(0, 1), out_dir=out_b, cache_dir=cache_b)
        names_a = sorted(p.name for p in cache_a.rglob("*.json"))
        names_b = sorted(p.name for p in cache_b.rglob("*.json"))
        assert names_a == names_b and names_a
        for name_a, name_b in zip(names_a, names_b):
            entry_a = next(cache_a.rglob(name_a)).read_bytes()
            entry_b = next(cache_b.rglob(name_b)).read_bytes()
            assert entry_a == entry_b, name_a


class TestFailureResume:
    def test_failure_caches_completed_scenarios(self, tmp_path, monkeypatch):
        from repro.analysis.campaigns import CampaignExecutionError
        from repro.analysis.scenarios import run_scenario as real_run

        cache = tmp_path / "cache"
        fail_index = TINY.n_scenarios - 1

        def flaky(sc):
            if sc.index == fail_index:
                raise RuntimeError("injected failure")
            return real_run(sc)

        monkeypatch.setattr(campaigns, "run_scenario", flaky)
        runner = CampaignRunner(cache_dir=cache)
        with pytest.raises(CampaignExecutionError, match="injected failure"):
            runner.run(TINY)
        # every scenario that completed before the failure is cached ...
        assert runner.stats.executed == TINY.n_scenarios - 1
        monkeypatch.setattr(campaigns, "run_scenario", real_run)
        resumed = CampaignRunner(cache_dir=cache)
        outcomes = resumed.run(TINY)
        # ... so the fixed re-run executes only the failed scenario
        assert resumed.stats.executed == 1
        assert resumed.stats.cache_hits == TINY.n_scenarios - 1
        assert len(outcomes) == TINY.n_scenarios


class TestScenarioCache:
    def test_second_run_is_pure_cache_read(self, tmp_path):
        cache = tmp_path / "cache"
        first = CampaignRunner(cache_dir=cache)
        rows1 = [o.row for o in first.run(TINY)]
        assert first.stats.executed == TINY.n_scenarios
        second = CampaignRunner(cache_dir=cache)
        outcomes = second.run(TINY)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == TINY.n_scenarios
        assert all(o.cached for o in outcomes)
        assert [o.row for o in outcomes] == rows1

    def test_cache_entries_use_runner_naming(self, tmp_path):
        cache = tmp_path / "cache"
        CampaignRunner(cache_dir=cache).run(TINY)
        names = sorted(p.name for p in cache.glob("*.json"))
        assert len(names) == TINY.n_scenarios
        assert all(n.startswith("campaign-tiny-test-s") for n in names)
        # clean-cache's <prefix>-<16-hex>.json contract
        from repro.analysis.store import ResultStore

        assert ResultStore(cache).clean() == TINY.n_scenarios

    def test_code_digest_invalidates_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        CampaignRunner(cache_dir=cache).run(TINY)
        monkeypatch.setattr(campaigns, "scenarios_code_digest", lambda: "f" * 16)
        runner = CampaignRunner(cache_dir=cache)
        runner.run(TINY)
        assert runner.stats.executed == TINY.n_scenarios  # all stale

    def test_campaign_digest_tracks_axes_and_code(self, monkeypatch):
        base = campaign_digest(TINY)
        changed = CampaignSpec(
            name=TINY.name,
            title=TINY.title,
            graphs=TINY.graphs + ("star:5",),
            schedulers=TINY.schedulers,
        )
        assert campaign_digest(changed) != base
        monkeypatch.setattr(campaigns, "scenarios_code_digest", lambda: "f" * 16)
        assert campaign_digest(TINY) != base
