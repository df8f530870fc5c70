"""The experiment registry: discovery, params introspection, digests."""

import pytest

import repro.analysis as analysis
from repro.analysis import registry
from repro.types import InvalidParameterError

EXPECTED_IDS = [f"e{i:02d}" for i in range(1, 24) if i != 3]  # e03 folded into e02


class TestRegistryContents:
    def test_all_experiments_registered(self):
        assert registry.experiment_ids() == EXPECTED_IDS

    def test_specs_have_titles_and_callables(self):
        for spec in registry.all_experiments():
            assert spec.title
            assert callable(spec.fn)
            assert spec.module.startswith("repro.analysis.exp_")

    def test_lookup_is_case_insensitive(self):
        assert registry.get_experiment("E06") is registry.get_experiment("e06")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            registry.get_experiment("e99")

    def test_facade_exports_every_registered_function(self):
        # the package re-exports exactly the registered callables
        for spec in registry.all_experiments():
            assert getattr(analysis, spec.fn.__name__) is spec.fn

    def test_double_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            registry.experiment("e06", "duplicate")(lambda: [])


class TestParams:
    def test_default_params_introspected(self):
        spec = registry.get_experiment("e01")
        assert registry.default_params(spec) == {
            "max_h": 6,
            "schedule_h": 5,
            "sources_cap": 12,
        }

    def test_effective_params_merges_overrides(self):
        spec = registry.get_experiment("e01")
        params = registry.effective_params(spec, {"max_h": 3})
        assert params["max_h"] == 3
        assert params["schedule_h"] == 5

    def test_unknown_override_rejected(self):
        spec = registry.get_experiment("e01")
        with pytest.raises(InvalidParameterError):
            registry.effective_params(spec, {"nope": 1})

    def test_digest_stable_and_sensitive(self):
        spec = registry.get_experiment("e09")
        base = registry.effective_params(spec)
        d1 = registry.params_digest("e09", base)
        d2 = registry.params_digest("e09", registry.effective_params(spec))
        assert d1 == d2
        d3 = registry.params_digest(
            "e09", registry.effective_params(spec, {"sources_cap": 4})
        )
        assert d3 != d1
        # tuples and lists hash identically (JSON canonical form)
        assert registry.params_digest("x", {"v": (1, 2)}) == registry.params_digest(
            "x", {"v": [1, 2]}
        )


class TestRunByName:
    def test_run_experiment_matches_direct_call(self):
        from repro.analysis.exp_foundations import experiment_e04_labelings

        assert registry.run_experiment("e04") == experiment_e04_labelings()

    def test_run_experiment_with_overrides(self):
        rows = registry.run_experiment("e05", {"max_m": 3})
        assert [r["m"] for r in rows] == [1, 2, 3]
