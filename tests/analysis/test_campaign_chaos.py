"""Campaign crash-safety: checkpoints, SIGKILL resume, quarantine, chaos.

The flagship contract: a campaign run killed mid-flight resumes from the
entries it stored (fsync'd, one per finished scenario) and the final
artifacts — shard chunk, merged JSONL — are byte-identical to an
uninterrupted run; manifests are identical once wall-clock and
cache-provenance fields are normalized out.
"""

import dataclasses
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
    artifact_path,
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


def _checkpoint(out_dir, spec, shard=(0, 1)):
    """The directory an uncached shard run stores finished rows in."""
    return chunk_path(out_dir, spec, shard).with_suffix(".checkpoint")


def _fake_row(sc):
    """A deterministic row carrying the identity fields the merge
    validator requires."""
    return {
        "index": sc.index,
        "scenario": sc.scenario_id,
        "seed": sc.seed,
        "found": sc.index * 10,
    }


def _fail_last(sc):
    """``_fake_row``, except that the grid's last scenario raises."""
    if sc.index == TINY.n_scenarios - 1:
        raise RuntimeError("injected failure")
    return _fake_row(sc)


class TestCheckpointResume:
    def test_failed_run_resumes_from_checkpoint(self, tmp_path, monkeypatch):
        chunk = chunk_path(tmp_path, TINY, (0, 1))
        monkeypatch.setattr(campaigns, "run_scenario", _fail_last)
        runner = CampaignRunner()  # no JSON cache: checkpoint-only resume
        with pytest.raises(CampaignExecutionError, match="injected failure"):
            runner.run(TINY, checkpoint=chunk)
        ckpt = _checkpoint(tmp_path, TINY)
        assert len(list(ckpt.glob("*.json"))) == TINY.n_scenarios - 1
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        resumed = CampaignRunner()
        outcomes = resumed.run(TINY, checkpoint=chunk)
        assert resumed.stats.executed == 1  # only the failed scenario
        assert resumed.stats.cache_hits == TINY.n_scenarios - 1
        assert [o.row for o in outcomes] == [
            _fake_row(sc) for sc in expand_campaign(TINY)
        ]
        # success writes the chunk and clears the checkpoint
        assert chunk.exists() and not ckpt.exists()

    @pytest.mark.parametrize("leftover", ["truncated", "code", "base_seed"])
    def test_stale_or_torn_checkpoint_entry_reruns(
        self, tmp_path, monkeypatch, leftover
    ):
        """A checkpoint entry is served only if it is whole and was
        written for this scenario, seed and scenarios-code version."""
        chunk = chunk_path(tmp_path, TINY, (0, 1))
        monkeypatch.setattr(campaigns, "run_scenario", _fail_last)
        with pytest.raises(CampaignExecutionError):
            CampaignRunner().run(TINY, checkpoint=chunk)
        spec, stale = TINY, 1
        if leftover == "truncated":
            entry = sorted(_checkpoint(tmp_path, TINY).glob("*.json"))[0]
            entry.write_text(entry.read_text()[:40])
        elif leftover == "code":
            monkeypatch.setattr(campaigns, "scenarios_code_digest", lambda: "f" * 16)
            stale = TINY.n_scenarios - 1
        else:
            spec = dataclasses.replace(TINY, base_seed=TINY.base_seed + 1)
            stale = TINY.n_scenarios - 1
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        resumed = CampaignRunner()
        outcomes = resumed.run(spec, checkpoint=chunk)
        assert resumed.stats.executed == stale + 1
        assert [o.row for o in outcomes] == [
            _fake_row(sc) for sc in expand_campaign(spec)
        ]
        assert not _checkpoint(tmp_path, TINY).exists()

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

    def test_uncached_failure_resumes_into_the_cache(self, tmp_path, monkeypatch):
        """Rows checkpointed by a failed ``--no-cache`` run serve a re-run
        with a cache, which writes the clean run's bytes and moves those
        rows into the cache."""
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        clean = tmp_path / "clean"
        run_campaign_shard(TINY, out_dir=clean, cache_dir=None)
        out, cache = tmp_path / "out", tmp_path / "cache"
        monkeypatch.setattr(campaigns, "run_scenario", _fail_last)
        with pytest.raises(CampaignExecutionError, match="injected failure"):
            run_campaign_shard(TINY, out_dir=out, cache_dir=None)
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        _, manifest, _ = run_campaign_shard(TINY, out_dir=out, cache_dir=cache)
        assert manifest["executed"] == 1
        for written in (chunk_path(out, TINY, (0, 1)), artifact_path(out, TINY)):
            assert written.read_bytes() == (clean / written.name).read_bytes()
        _, again, _ = run_campaign_shard(
            TINY, out_dir=tmp_path / "again", cache_dir=cache
        )
        assert again["executed"] == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in clean.iterdir()
        )

    def test_cached_run_leaves_no_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        out = tmp_path / "out"
        run_campaign_shard(TINY, out_dir=out, cache_dir=tmp_path / "cache")
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name
            for p in (
                chunk_path(out, TINY, (0, 1)),
                manifest_path(out, TINY, (0, 1)),
                artifact_path(out, TINY),
            )
        )


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
        assert fault.as_error().exitcode == -signal.SIGKILL
        assert not excinfo.value.failures
        # every innocent scenario completed and was checkpointed
        stored = [
            json.loads(p.read_text())["index"]
            for p in _checkpoint(tmp_path, TINY).glob("*.json")
        ]
        assert sorted(stored) == [i for i in range(TINY.n_scenarios) if i != poison]
        # a fixed re-run executes only the quarantined scenario
        monkeypatch.setattr(campaigns, "run_scenario", _fake_row)
        resumed = CampaignRunner()
        resumed.run(TINY, checkpoint=chunk)
        assert resumed.stats.executed == 1


    def test_quarantined_scenarios_reported_in_index_order(
        self, tmp_path, monkeypatch
    ):
        # 2 and 6 are dispatched 6 first (see test_campaigns.MIXED)
        spec = CampaignSpec(
            name="mixed-test",
            title="mixed dispatch grid",
            graphs=("sparse:4:2", "sparse:5:2"),
            schedulers=("scheme", "greedy"),
            sources=("sample:4", "sample:2"),
        )
        poison = {2, 6}

        def killer(sc):
            if sc.index in poison:
                os.kill(os.getpid(), signal.SIGKILL)
            return _fake_row(sc)

        monkeypatch.setattr(campaigns, "run_scenario", killer)
        runner = CampaignRunner(
            jobs=2, retry=RetryPolicy(base_delay=0.0, max_attempts=1)
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            runner.run(spec, checkpoint=chunk_path(tmp_path, spec, (0, 1)))
        message = str(excinfo.value)
        assert message.index("scenario 2 (") < message.index("scenario 6 (")
        assert len(excinfo.value.quarantined) == 2


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
        # bytes that are not UTF-8 are a miss too, not a decode error
        monkeypatch.delenv("REPRO_CHAOS")
        chaos.reset()
        sorted(cache.glob("*.json"))[-1].write_bytes(b"\xff\xfe\x00garbage")
        third = CampaignRunner(cache_dir=cache)
        assert [o.row for o in third.run(TINY)] == [o.row for o in outcomes]
        assert third.stats.executed == 1


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
        ckpt = _checkpoint(out, spec, (0, 2))

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
                if len(list(ckpt.glob("*.json"))) >= 2:
                    break
                assert proc.poll() is None, "campaign exited before the kill"
                time.sleep(0.05)
            else:
                pytest.fail("checkpoint never gained two entries")
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert ckpt.exists()  # the crash left a durable checkpoint

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
        # success cleaned the checkpoint up
        assert not ckpt.exists()
        # and the merged artifact equals an unsharded run's artifact
        single = tmp_path / "single"
        run_campaign_shard(spec, shard=(0, 1), out_dir=single)
        assert merged.read_bytes() == artifact_path(single, spec).read_bytes()


def _children(pid):
    """The live or unreaped child processes of ``pid`` (Linux ``/proc``)."""
    kids = set()
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as fh:
            kids.update(int(p) for p in fh.read().split())
    return kids


def _running(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            return "\nState:\tZ" not in fh.read()
    except FileNotFoundError:
        return False


class TestCtrlC:
    """SIGINT to a parallel run while one task is held: the CLI exits at
    once with one stderr line and rc 130, takes its workers with it, and
    a campaign's re-run executes only the held scenario."""

    def _cli(self, *args, chaos_spec=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        env.pop("REPRO_CHAOS", None)
        if chaos_spec is not None:
            env["REPRO_CHAOS"] = chaos_spec
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=env,
            start_new_session=True,  # the signal must reach the CLI alone
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _campaign(self, out_dir, *, chaos_spec=None):
        argv = ["campaign", "run", "paper-grid", "--jobs", "2", "--no-cache"]
        return self._cli(*argv, "--out-dir", str(out_dir), chaos_spec=chaos_spec)

    def _interrupt(self, proc, command, ready):
        """Once ``ready()``, SIGINT ``proc``; pin its exit and stderr."""
        try:
            deadline = time.monotonic() + 60
            while not ready():
                assert proc.poll() is None, "the run exited before the signal"
                assert time.monotonic() < deadline, "the run never got ready"
                time.sleep(0.02)
            kids = _children(proc.pid)
            assert len(kids) == 2
            proc.send_signal(signal.SIGINT)
            t0 = time.monotonic()
            _, stderr = proc.communicate(timeout=30)
            assert time.monotonic() - t0 < 5.0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate(timeout=30)
        assert proc.returncode == 130
        assert stderr.splitlines() == [f"{command} interrupted"]
        assert not [kid for kid in kids if _running(kid)]

    def test_interrupted_run_leaves_no_worker_and_resumes(self, tmp_path):
        spec = campaigns.load_campaign("paper-grid")
        out = tmp_path / "interrupted"
        ckpt = _checkpoint(out, spec)
        # the fourth dispatched scenario sleeps 4 s: the other fifteen
        # land first, then the run waits on it
        self._interrupt(
            self._campaign(out, chaos_spec="delay:task=3:ms=4000"),
            "campaign",
            lambda: len(list(ckpt.glob("*.json"))) >= spec.n_scenarios - 1,
        )

        resumed = self._campaign(out)
        stdout, stderr = resumed.communicate(timeout=120)
        assert resumed.returncode == 0, stderr
        assert f"(1 executed, {spec.n_scenarios - 1} cached" in stdout
        clean = tmp_path / "clean"
        run_campaign_shard(spec, shard=(0, 1), out_dir=clean)
        assert (
            artifact_path(out, spec).read_bytes()
            == artifact_path(clean, spec).read_bytes()
        )
        assert not ckpt.exists()

    def test_interrupted_experiment_run_exits_130(self):
        held = "delay:task=0:ms=4000"  # the first experiment sleeps 4 s
        proc = self._cli("run", "e02", "e04", "e06", "--jobs", "2", chaos_spec=held)
        self._interrupt(proc, "run", lambda: len(_children(proc.pid)) == 2)
