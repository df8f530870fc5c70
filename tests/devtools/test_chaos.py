"""The chaos harness: spec parsing and deterministic injection hooks."""

import json

import pytest

from repro.devtools import chaos
from repro.devtools.chaos import ChaosPolicy
from repro.types import InvalidParameterError


@pytest.fixture(autouse=True)
def _clean_chaos_state(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()
    yield
    chaos.reset()


class TestParse:
    def test_kill_event(self):
        policy = ChaosPolicy.parse("kill:task=3")
        assert policy.task_actions(3, 0) == (True, 0.0)
        assert policy.task_actions(3, 1) == (False, 0.0)  # retry survives
        assert policy.task_actions(2, 0) == (False, 0.0)

    def test_kill_on_specific_attempt(self):
        policy = ChaosPolicy.parse("kill:task=1:attempt=2")
        assert policy.task_actions(1, 0) == (False, 0.0)
        assert policy.task_actions(1, 2) == (True, 0.0)

    def test_delay_event(self):
        policy = ChaosPolicy.parse("delay:task=0:ms=250")
        kill, delay = policy.task_actions(0, 0)
        assert not kill and delay == 0.25
        _, delay_retry = policy.task_actions(0, 3)
        assert delay_retry == 0.25  # any attempt when attempt= omitted

    def test_multiple_events(self):
        policy = ChaosPolicy.parse("kill:task=2; delay:task=2:ms=100")
        assert policy.task_actions(2, 0) == (True, 0.1)

    def test_corrupt_cache_nth(self):
        policy = ChaosPolicy.parse("corrupt-cache:nth=1")
        assert not policy.corrupts_cache(0)
        assert policy.corrupts_cache(1)

    def test_seed_event(self):
        assert ChaosPolicy.parse("seed=9").seed == 9
        assert ChaosPolicy.parse("kill:task=0;seed=4").seed == 4

    def test_unknown_kind_rejected(self):
        # the last two are retired kinds: rejected, never silently ignored
        for spec in ("explode:task=1", "attach-fail:all", "export-fail:nth=1"):
            with pytest.raises(InvalidParameterError, match="unknown event kind"):
                ChaosPolicy.parse(spec)

    def test_malformed_param_rejected(self):
        # a malformed, unknown or missing key would inject nothing
        cases = {
            "kill:task": "malformed",
            "kill:chnuk=0": "unknown parameter 'chnuk'",
            "corrupt-cache:nth=0:p=1": "unknown parameter 'p'",
            "kill": "kill needs a task= parameter",
            "delay:ms=100": "delay needs a task= parameter",
            "delay:task=0": "delay needs a ms= parameter",
            "corrupt-cache": "corrupt-cache needs a nth= parameter",
        }
        for kind in ("kill", "delay"):  # the retired chunk= target
            cases[f"{kind}:chunk=0"] = "unknown parameter 'chunk'"
        for spec, message in cases.items():
            with pytest.raises(InvalidParameterError, match=message):
                ChaosPolicy.parse(spec)

    def test_non_integer_param_rejected(self):
        with pytest.raises(InvalidParameterError, match="integer"):
            ChaosPolicy.parse("kill:task=abc")


class TestProcessHooks:
    def test_inactive_without_env(self):
        assert chaos.active_policy() is None

    def test_policy_cached_until_spec_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:task=0")
        first = chaos.active_policy()
        assert first is chaos.active_policy()
        monkeypatch.setenv("REPRO_CHAOS", "kill:task=1")
        second = chaos.active_policy()
        assert second is not first

    def test_corrupt_cache_entry_scribbles_the_nth_read(
        self, monkeypatch, tmp_path
    ):
        entry = tmp_path / "entry.json"
        entry.write_text(json.dumps({"digest": "abc", "row": {}}))
        monkeypatch.setenv("REPRO_CHAOS", "corrupt-cache:nth=1")
        chaos.corrupt_cache_entry(entry)  # nth=0: untouched
        json.loads(entry.read_text())
        chaos.corrupt_cache_entry(entry)  # nth=1: torn
        with pytest.raises(json.JSONDecodeError):
            json.loads(entry.read_text())

    def test_on_task_noop_without_policy(self):
        chaos.on_task(0, 0)  # must not raise or sleep

    def test_probabilistic_gate_is_deterministic(self):
        policy = ChaosPolicy.parse("kill:task=0:p=0.5;seed=3")
        first = policy.task_actions(0, 0)
        assert first == policy.task_actions(0, 0)
        # p=0 never fires, p=1 always does
        assert not ChaosPolicy.parse("kill:task=0:p=0.0").task_actions(0, 0)[0]
        assert ChaosPolicy.parse("kill:task=0:p=1.0").task_actions(0, 0)[0]
