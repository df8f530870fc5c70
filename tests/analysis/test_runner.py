"""The parallel runner and its params-keyed JSON result cache."""

import json

import pytest

from repro.analysis import registry
from repro.analysis import runner as runner_module
from repro.analysis.runner import ExperimentRunner
from repro.analysis.store import ResultStore
from repro.devtools import chaos

# Shrunk parameters so running *every* registered experiment stays fast;
# both runner invocations use the same overrides, so the cache contract
# (second run executes nothing, results byte-identical) is exercised for
# the full registry exactly as `repro run --all --cache` would.
SHRUNK = {
    "e01": {"max_h": 3, "schedule_h": 2, "sources_cap": 4},
    "e02": {"n_values": (4, 9)},
    "e05": {"max_m": 4},
    "e09": {"n_values": (3, 4), "sources_cap": 4},
    "e10": {"n_values": (2, 6, 10)},
    "e12": {"cases": ((3, 7, (2, 4)),), "sources_cap": 4},
    "e13": {"ks": (3,), "n_values": (8,)},
    "e14": {"n": 8},
    "e15": {"cases": ((8, 3),)},
    "e16": {"n_values": (4, 6)},
    "e17": {"cases": ((4, 2),)},
    "e18": {"cases": ((2, 8, (3,)),)},
    "e19": {"failure_counts": (1, 2), "trials": 5},
    "e20": {"cases": ((2, 6, (2,)),), "sources_cap": 4},
    "e21": {"n": 8, "flit_sizes": (1, 4)},
}


def _snapshot(cache_dir):
    return {p.name: p.read_bytes() for p in sorted(cache_dir.glob("*.json"))}


class TestCache:
    def test_second_full_run_is_pure_cache_read(self, tmp_path):
        names = registry.experiment_ids()

        first = ExperimentRunner(cache_dir=tmp_path)
        results1 = first.run(names, overrides=SHRUNK)
        assert first.stats.executed == len(names)
        assert first.stats.cache_hits == 0
        assert all(not r.cached for r in results1)
        files1 = _snapshot(tmp_path)
        assert len(files1) == len(names)

        second = ExperimentRunner(cache_dir=tmp_path)
        results2 = second.run(names, overrides=SHRUNK)
        # zero experiment executions the second time around
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(names)
        assert all(r.cached for r in results2)
        # byte-identical cache contents, identical rows
        assert _snapshot(tmp_path) == files1
        for r1, r2 in zip(results1, results2):
            assert r1.name == r2.name
            assert r1.rows == r2.rows
            assert r1.digest == r2.digest

    def test_cache_entry_is_json_with_provenance(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        (result,) = runner.run(["e04"])
        path = tmp_path / f"e04-{result.digest}.json"
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "e04"
        assert payload["digest"] == result.digest
        assert payload["rows"] == result.rows

    def test_cache_entry_bytes_are_sorted_and_columns_preserved(self, tmp_path):
        """RL002 regression: the entry is written sort_keys=True, and row
        column order (table semantics) survives the sorted round-trip via
        the explicit ``columns`` record."""
        runner = ExperimentRunner(cache_dir=tmp_path)
        (result,) = runner.run(["e04"])
        path = tmp_path / f"e04-{result.digest}.json"
        raw = path.read_text()
        payload = json.loads(raw)
        assert list(payload) == sorted(payload)
        assert payload["columns"] == [list(row) for row in result.rows]
        warm = ExperimentRunner(cache_dir=tmp_path)
        (again,) = warm.run(["e04"])
        assert again.cached
        assert [list(row) for row in again.rows] == payload["columns"]

    def test_entry_with_desynced_columns_treated_as_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        (result,) = runner.run(["e04"])
        path = tmp_path / f"e04-{result.digest}.json"
        payload = json.loads(path.read_text())
        payload["columns"] = payload["columns"][:-1]
        path.write_text(json.dumps(payload))
        runner2 = ExperimentRunner(cache_dir=tmp_path)
        (again,) = runner2.run(["e04"])
        assert runner2.stats.executed == 1
        assert again.rows == result.rows

    def test_changed_params_miss_the_cache(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run(["e05"], overrides={"e05": {"max_m": 3}})
        assert runner.stats.executed == 1
        runner.run(["e05"], overrides={"e05": {"max_m": 4}})
        assert runner.stats.executed == 2
        runner.run(["e05"], overrides={"e05": {"max_m": 3}})
        assert runner.stats.executed == 2 and runner.stats.cache_hits == 1

    def test_corrupt_entry_reruns(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        (result,) = runner.run(["e04"])
        path = tmp_path / f"e04-{result.digest}.json"
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 16
        path.write_text(json.dumps(payload))
        runner2 = ExperimentRunner(cache_dir=tmp_path)
        (again,) = runner2.run(["e04"])
        assert runner2.stats.executed == 1
        assert again.rows == result.rows

    def test_truncated_entry_treated_as_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        (result,) = runner.run(["e04"])
        path = tmp_path / f"e04-{result.digest}.json"
        # an interrupted write, then bytes that are not even UTF-8
        for garbage in (path.read_bytes()[:40], b"\xff\xfe\x00garbage"):
            path.write_bytes(garbage)
            runner2 = ExperimentRunner(cache_dir=tmp_path)
            (again,) = runner2.run(["e04"])
            assert runner2.stats.executed == 1
            assert again.rows == result.rows
            # and the entry has healed
            runner3 = ExperimentRunner(cache_dir=tmp_path)
            runner3.run(["e04"])
            assert runner3.stats.executed == 0

    def test_chaos_corrupted_entry_reruns(self, tmp_path, monkeypatch):
        ExperimentRunner(cache_dir=tmp_path).run(["e04"])
        monkeypatch.setenv("REPRO_CHAOS", "corrupt-cache:nth=0")
        chaos.reset()
        try:
            warm = ExperimentRunner(cache_dir=tmp_path)
            warm.run(["e04"])
        finally:
            chaos.reset()
        assert warm.stats.executed == 1 and warm.stats.cache_hits == 0

    def test_failed_run_keeps_finished_entries(self, tmp_path, monkeypatch):
        """Each result is stored as it lands, so an experiment that raises
        does not discard the ones that finished before it."""
        execute = runner_module._execute

        def broken(task):
            if task[0] == "e06":
                raise RuntimeError("injected e06 failure")
            return execute(task)

        monkeypatch.setattr(runner_module, "_execute", broken)
        with pytest.raises(RuntimeError, match="injected e06 failure"):
            ExperimentRunner(cache_dir=tmp_path).run(["e04", "e06", "e02"])
        monkeypatch.setattr(runner_module, "_execute", execute)
        fixed = ExperimentRunner(cache_dir=tmp_path)
        fixed.run(["e04", "e06", "e02"])
        assert (fixed.stats.executed, fixed.stats.cache_hits) == (2, 1)

    def test_clean_cache(self, tmp_path):
        ExperimentRunner(cache_dir=tmp_path).run(["e04", "e06"])
        assert ResultStore(tmp_path).clean() == 2
        assert ResultStore(tmp_path).clean() == 0

    def test_clean_cache_spares_foreign_json(self, tmp_path):
        foreign = tmp_path / "results.json"
        foreign.write_text("{}")
        ExperimentRunner(cache_dir=tmp_path).run(["e04"])
        assert ResultStore(tmp_path).clean() == 1
        assert foreign.exists()

    def test_no_cache_dir_always_executes(self):
        runner = ExperimentRunner()
        runner.run(["e04"])
        runner.run(["e04"])
        assert runner.stats.executed == 2
        assert runner.stats.cache_hits == 0


class TestCodeVersionInCacheKey:
    """Editing an experiment's body must invalidate its cache entries —
    the params hash alone cannot see code changes (PR 4 bugfix)."""

    def test_params_digest_folds_in_code(self):
        params = {"a": 1}
        base = registry.params_digest("e04", params, code="aaaa")
        assert registry.params_digest("e04", params, code="bbbb") != base
        assert registry.params_digest("e04", params, code="aaaa") == base

    def test_code_digest_tracks_source(self, tmp_path):
        import importlib.util
        import sys

        def load(body: str, stem: str):
            # one file per version: rewriting in place can dodge
            # linecache's size+mtime staleness check on coarse-mtime
            # filesystems and serve the old source to inspect.getsource
            module_path = tmp_path / f"{stem}.py"
            module_path.write_text(
                "def fake_experiment(*, n=3):\n" f"    return [{body}]\n"
            )
            spec = importlib.util.spec_from_file_location(
                "fake_experiment_mod", module_path
            )
            mod = importlib.util.module_from_spec(spec)
            sys.modules["fake_experiment_mod"] = mod
            spec.loader.exec_module(mod)
            return registry.ExperimentSpec(
                name="efake",
                title="fake",
                fn=mod.fake_experiment,
                claims=lambda rows, params: [],
            )

        try:
            digest_v1 = registry.code_digest(load('{"v": 1}', "mod_v1"))
            assert digest_v1 == registry.code_digest(load('{"v": 1}', "mod_v1b"))
            digest_v2 = registry.code_digest(load('{"v": 2}', "mod_v2"))
            assert digest_v2 != digest_v1
        finally:
            sys.modules.pop("fake_experiment_mod", None)

    def test_changed_code_digest_misses_cache(self, tmp_path, monkeypatch):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run(["e04"])
        assert runner.stats.executed == 1

        warm = ExperimentRunner(cache_dir=tmp_path)
        warm.run(["e04"])
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 1

        # simulate an edited experiment body: the code digest changes, so
        # the stale entry must not be served
        monkeypatch.setattr(registry, "code_digest", lambda spec: "f" * 16)
        stale = ExperimentRunner(cache_dir=tmp_path)
        stale.run(["e04"])
        assert stale.stats.executed == 1 and stale.stats.cache_hits == 0


class TestParallel:
    def test_parallel_results_match_sequential(self, tmp_path):
        names = ["e02", "e04", "e06", "e08"]
        seq = ExperimentRunner(jobs=1).run(names)
        par = ExperimentRunner(jobs=4).run(names)
        assert [r.name for r in par] == names  # request order preserved
        for r_seq, r_par in zip(seq, par):
            assert r_seq.rows == r_par.rows

    def test_parallel_populates_cache(self, tmp_path):
        runner = ExperimentRunner(jobs=2, cache_dir=tmp_path)
        runner.run(["e02", "e04"])
        assert runner.stats.executed == 2
        warm = ExperimentRunner(cache_dir=tmp_path)
        warm.run(["e02", "e04"])
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 2

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)
