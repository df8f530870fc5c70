"""Campaign crash-safety: checkpoints, SIGKILL resume, quarantine, chaos.

The flagship contract (ISSUE 8 / S3): a campaign run killed mid-flight
resumes from its fsync'd checkpoint and the final artifacts — shard
chunk, merged JSONL — are byte-identical to an uninterrupted run;
manifests are identical once wall-clock and cache-provenance fields are
normalized out.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import campaigns
from repro.analysis.campaigns import (
    CampaignExecutionError,
    CampaignRunner,
    CampaignSpec,
    _ShardCheckpoint,
    artifact_path,
    campaign_digest,
    chunk_path,
    expand_campaign,
    manifest_path,
    merge_chunks,
    run_campaign_shard,
)
from repro.devtools import chaos
from repro.util.retry import RetryPolicy

TINY = CampaignSpec(
    name="tiny-test",
    title="tiny test grid",
    graphs=("hypercube:3", "path:8"),
    schedulers=("greedy",),
    k_values=(2, None),
    sources=("first",),
    conditions=("none", "edge-faults:1"),
)

_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()
    yield
    chaos.reset()


def _fake_row(sc):
    """A deterministic row carrying the identity fields the checkpoint
    and merge validators require."""
    return {
        "index": sc.index,
        "scenario": sc.scenario_id,
        "seed": sc.seed,
        "found": sc.index * 10,
    }


class TestShardCheckpoint:
    def _ckpt(self, tmp_path):
        chunk = chunk_path(tmp_path, TINY, (0, 1))
        return _ShardCheckpoint(chunk, campaign_digest(TINY))

    def test_roundtrip(self, tmp_path):
        expected = {sc.index: sc for sc in expand_campaign(TINY)}
        ckpt = self._ckpt(tmp_path)
        assert ckpt.load(expected) == {}
        ckpt.append(_fake_row(expected[0]))
        ckpt.append(_fake_row(expected[3]))
        fresh = self._ckpt(tmp_path)
        rows = fresh.load(expected)
        assert sorted(rows) == [0, 3]
        assert rows[3]["found"] == 30

    def test_torn_final_line_is_ignored(self, tmp_path):
        expected = {sc.index: sc for sc in expand_campaign(TINY)}
        ckpt = self._ckpt(tmp_path)
        ckpt.load(expected)
        ckpt.append(_fake_row(expected[0]))
        ckpt.append(_fake_row(expected[1]))
        # simulate a kill mid-append: a torn row beyond the cursor count
        with open(ckpt.partial, "a") as fh:
            fh.write('{"index": 2, "scen')
        fresh = self._ckpt(tmp_path)
        rows = fresh.load(expected)
        assert sorted(rows) == [0, 1]
        # the partial was rewritten to exactly the validated prefix
        assert len(fresh.partial.read_text().splitlines()) == 2

    def test_digest_mismatch_discards_checkpoint(self, tmp_path):
        expected = {sc.index: sc for sc in expand_campaign(TINY)}
        ckpt = self._ckpt(tmp_path)
        ckpt.load(expected)
        ckpt.append(_fake_row(expected[0]))
        chunk = chunk_path(tmp_path, TINY, (0, 1))
        stale = _ShardCheckpoint(chunk, "0" * 16)  # another grid/code
        assert stale.load(expected) == {}

    def test_stale_row_stops_the_prefix(self, tmp_path):
        expected = {sc.index: sc for sc in expand_campaign(TINY)}
        ckpt = self._ckpt(tmp_path)
        ckpt.load(expected)
        ckpt.append(_fake_row(expected[0]))
        bad = _fake_row(expected[1])
        bad["seed"] += 1  # an older expansion's seed
        ckpt.append(bad)
        ckpt.append(_fake_row(expected[2]))
        rows = self._ckpt(tmp_path).load(expected)
        assert sorted(rows) == [0]  # prefix before the stale row only


class TestCheckpointResume:
    def test_failed_run_resumes_from_checkpoint(self, tmp_path, monkeypatch):
        chunk = chunk_path(tmp_path, TINY, (0, 1))
        fail_index = TINY.n_scenarios - 1

        def flaky(sc):
            if sc.index == fail_index:
                raise RuntimeError("injected failure")
            return _fake_row(sc)

        monkeypatch.setattr(campaigns, "run_scenario", flaky)
        runner = CampaignRunner()  # no JSON cache: checkpoint-only resume
        with pytest.raises(CampaignExecutionError, match="injected failure"):
            runner.run(TINY, checkpoint=chunk)
        ckpt = _ShardCheckpoint(chunk, campaign_digest(TINY))
        assert ckpt.partial.exists() and ckpt.cursor.exists()
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        resumed = CampaignRunner()
        outcomes = resumed.run(TINY, checkpoint=chunk)
        assert resumed.stats.executed == 1  # only the failed scenario
        assert resumed.stats.cache_hits == TINY.n_scenarios - 1
        assert [o.row for o in outcomes] == [
            _fake_row(sc) for sc in expand_campaign(TINY)
        ]
        # success clears the checkpoint files
        assert not ckpt.partial.exists() and not ckpt.cursor.exists()

    def test_chunk_write_failure_keeps_the_checkpoint(self, tmp_path, monkeypatch):
        """A failure while the finished chunk is written must leave the
        checkpoint behind: the uncached re-run executes nothing and
        writes the uninterrupted run's bytes."""
        clean = tmp_path / "clean"
        run_campaign_shard(TINY, out_dir=clean, cache_dir=None)
        write_chunk = campaigns.write_chunk

        def broken(path, rows):
            raise OSError("injected chunk write failure")

        out = tmp_path / "interrupted"
        monkeypatch.setattr(campaigns, "write_chunk", broken)
        with pytest.raises(OSError, match="injected"):
            run_campaign_shard(TINY, out_dir=out, cache_dir=None)
        monkeypatch.setattr(campaigns, "write_chunk", write_chunk)
        _, manifest, _ = run_campaign_shard(TINY, out_dir=out, cache_dir=None)
        assert manifest["executed"] == 0
        assert manifest["cache_hits"] == TINY.n_scenarios
        for written in (chunk_path(out, TINY, (0, 1)), artifact_path(out, TINY)):
            assert written.read_bytes() == (clean / written.name).read_bytes()


class TestQuarantineReport:
    def test_poison_scenario_reported_without_aborting(
        self, tmp_path, monkeypatch
    ):
        chunk = chunk_path(tmp_path, TINY, (0, 1))
        poison = 2

        def killer(sc):
            if sc.index == poison:
                os.kill(os.getpid(), signal.SIGKILL)
            return _fake_row(sc)

        monkeypatch.setattr(campaigns, "run_scenario", killer)
        runner = CampaignRunner(
            jobs=2, retry=RetryPolicy(base_delay=0.0, max_attempts=2)
        )
        with pytest.raises(
            CampaignExecutionError, match="quarantined after 2 attempts"
        ) as excinfo:
            runner.run(TINY, checkpoint=chunk)
        (fault,) = excinfo.value.quarantined
        assert fault.kind == "crash"
        assert not excinfo.value.failures
        # every innocent scenario completed and was checkpointed
        ckpt = _ShardCheckpoint(chunk, campaign_digest(TINY))
        rows = ckpt.load({sc.index: sc for sc in expand_campaign(TINY)})
        assert sorted(rows) == [
            i for i in range(TINY.n_scenarios) if i != poison
        ]
        # a fixed re-run executes only the quarantined scenario
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        resumed = CampaignRunner()
        resumed.run(TINY, checkpoint=chunk)
        assert resumed.stats.executed == 1


class TestCorruptCacheChaos:
    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        first = CampaignRunner(cache_dir=cache)
        first.run(TINY)
        assert first.stats.executed == TINY.n_scenarios
        monkeypatch.setenv("REPRO_CHAOS", "corrupt-cache:nth=0")
        chaos.reset()
        second = CampaignRunner(cache_dir=cache)
        outcomes = second.run(TINY)
        assert second.stats.executed == 1  # the scribbled entry re-ran
        assert second.stats.cache_hits == TINY.n_scenarios - 1
        assert [o.row for o in outcomes] == [
            _fake_row(sc) for sc in expand_campaign(TINY)
        ]


def _normalized_manifest(path: Path) -> str:
    """Manifest bytes with wall-clock and cache-provenance fields zeroed
    (an interrupted-then-resumed run legitimately differs in those)."""
    payload = json.loads(path.read_text())
    payload["seconds"] = 0
    payload["executed"] = 0
    payload["cache_hits"] = 0
    for sc in payload["scenarios"]:
        sc["seconds"] = 0
        sc["cached"] = False
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


class TestSigkillResumeByteIdentity:
    """Kill shard 0 of a 2-shard campaign mid-flight; resume; the merged
    artifact must equal an uninterrupted run byte for byte."""

    def _spec_file(self, tmp_path: Path) -> Path:
        spec = tmp_path / "chaos-tiny.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "chaos-tiny",
                    "title": "chaos resume grid",
                    "graphs": ["hypercube:3", "path:8"],
                    "schedulers": ["greedy"],
                    "k_values": [2, None],
                    "sources": ["first"],
                    "conditions": ["none", "edge-faults:1"],
                }
            )
        )
        return spec

    def _run_cli(self, spec, out_dir, *, chaos_spec=None, wait=True):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        env.pop("REPRO_CHAOS", None)
        if chaos_spec is not None:
            env["REPRO_CHAOS"] = chaos_spec
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "campaign",
                "run",
                str(spec),
                "--shard",
                "0/2",
                "--jobs",
                "2",
                "--no-cache",
                "--out-dir",
                str(out_dir),
            ],
            env=env,
            start_new_session=True,  # killpg must not reach pytest
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if wait:
            assert proc.wait(timeout=120) == 0
        return proc

    def test_sigkill_resume_merged_bytes_identical(self, tmp_path):
        spec_file = self._spec_file(tmp_path)
        spec = campaigns.load_campaign(str(spec_file))
        out = tmp_path / "interrupted"
        out.mkdir()
        cursor = out / "chaos-tiny-shard0of2.cursor.json"

        # Shard 0/2 owns 4 scenarios (tasks 0..3), and the injected
        # delay stalls task 3 long past the test, so the run
        # checkpoints the first rows and then hangs — kill it there.
        proc = self._run_cli(
            spec_file,
            out,
            chaos_spec="delay:task=3:ms=600000",
            wait=False,
        )
        try:
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                if cursor.exists():
                    count = json.loads(cursor.read_text()).get("count", 0)
                    if count >= 2:
                        break
                assert proc.poll() is None, "campaign exited before the kill"
                time.sleep(0.05)
            else:
                pytest.fail("checkpoint cursor never advanced")
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert cursor.exists()  # the crash left a durable checkpoint

        # resume shard 0 without chaos, run shard 1 normally, merge
        self._run_cli(spec_file, out)
        run_campaign_shard(spec, shard=(1, 2), out_dir=out)
        merged, rows = merge_chunks(spec, out)
        assert len(rows) == spec.n_scenarios

        # the uninterrupted reference run
        clean = tmp_path / "clean"
        run_campaign_shard(spec, shard=(0, 2), out_dir=clean, jobs=2)
        run_campaign_shard(spec, shard=(1, 2), out_dir=clean)
        clean_merged, _ = merge_chunks(spec, clean)

        assert merged.read_bytes() == clean_merged.read_bytes()
        assert (
            chunk_path(out, spec, (0, 2)).read_bytes()
            == chunk_path(clean, spec, (0, 2)).read_bytes()
        )
        assert _normalized_manifest(
            manifest_path(out, spec, (0, 2))
        ) == _normalized_manifest(manifest_path(clean, spec, (0, 2)))
        # the resume genuinely served checkpointed rows
        resumed_manifest = json.loads(
            manifest_path(out, spec, (0, 2)).read_text()
        )
        assert resumed_manifest["cache_hits"] >= 2
        # success cleaned the checkpoint files up
        assert not cursor.exists()
        # and the merged artifact equals an unsharded run's artifact
        single = tmp_path / "single"
        run_campaign_shard(spec, shard=(0, 1), out_dir=single)
        assert merged.read_bytes() == artifact_path(single, spec).read_bytes()
