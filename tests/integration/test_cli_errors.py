"""CLI error paths: wrong input exits non-zero with one line, no traceback.

Subprocess tests — the contract covers the real entry point
(``python -m repro``), including anything that might escape ``main()``
as an unhandled exception, which in-process tests of ``main`` cannot
pin.  Every case must exit with code 2, write a short message to
stderr, and never print a traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
        timeout=120,
    )


def assert_clean_failure(proc, *, needle=None):
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert "Traceback" not in proc.stdout
    message_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(message_lines) == 1, proc.stderr
    if needle is not None:
        assert needle in message_lines[0]


class TestScheduleErrors:
    def test_unknown_graph_family(self):
        assert_clean_failure(
            run_cli("schedule", "--graph", "bogus:3"), needle="unknown graph spec"
        )

    def test_non_integer_graph_args(self):
        assert_clean_failure(
            run_cli("schedule", "--graph", "hypercube:x"),
            needle="must be integers",
        )

    def test_wrong_graph_arity(self):
        assert_clean_failure(
            run_cli("schedule", "--graph", "hypercube:3:9:9"),
            needle="argument count",
        )

    def test_unknown_scheduler(self):
        assert_clean_failure(
            run_cli("schedule", "--graph", "hypercube:3", "--scheduler", "nope"),
            needle="unknown scheduler",
        )

    def test_missing_graph(self):
        assert_clean_failure(run_cli("schedule"), needle="--graph")

    def test_zero_restarts(self):
        """Not "found: no" with exit 1: no attempt could ever run."""
        assert_clean_failure(
            run_cli("schedule", "--graph", "hypercube:3", "--restarts", "0"),
            needle="[invalid-parameter]: restarts must be >= 1, got 0",
        )

    @pytest.mark.parametrize("scheduler", ["greedy", "search"])
    def test_negative_rounds(self, scheduler):
        assert_clean_failure(
            run_cli(
                "schedule",
                "--graph",
                "hypercube:3",
                "--scheduler",
                scheduler,
                "--rounds",
                "-1",
            ),
            needle="[invalid-parameter]: rounds must be >= 0, got -1",
        )


class TestValidateErrors:
    def test_k_without_thresholds(self):
        assert_clean_failure(
            run_cli("validate", "--n", "6", "--k", "4"), needle="--thresholds"
        )

    def test_thresholds_without_k(self):
        assert_clean_failure(
            run_cli("validate", "--n", "6", "--thresholds", "2,4"),
            needle="requires --k",
        )

    def test_out_of_range_n(self):
        assert_clean_failure(run_cli("validate", "--n", "0"))

    def test_n_over_the_cube_dimension_bound(self):
        assert_clean_failure(
            run_cli("validate", "--n", "40"), needle="dimension 40 exceeds 24"
        )


class TestCampaignErrors:
    def test_unknown_campaign(self):
        assert_clean_failure(
            run_cli("campaign", "run", "nope"), needle="unknown campaign"
        )

    def test_shard_index_out_of_range(self):
        assert_clean_failure(
            run_cli("campaign", "run", "paper-grid", "--shard", "2/2"),
            needle="out of range",
        )

    def test_shard_malformed(self):
        assert_clean_failure(
            run_cli("campaign", "run", "paper-grid", "--shard", "x"),
            needle="shard",
        )

    def test_missing_action(self):
        assert_clean_failure(run_cli("campaign"), needle="needs an action")

    def test_merge_without_chunks(self, tmp_path):
        proc = run_cli("campaign", "merge", "paper-grid", "--out-dir", str(tmp_path))
        assert_clean_failure(proc, needle="no chunks")

    def test_merge_non_utf8_chunk(self, tmp_path):
        (tmp_path / "paper-grid-shard0of2.jsonl").write_text("")
        (tmp_path / "paper-grid-shard1of2.jsonl").write_bytes(b"\xff\xfe\x00garbage")
        proc = run_cli("campaign", "merge", "paper-grid", "--out-dir", str(tmp_path))
        assert_clean_failure(proc, needle="paper-grid-shard1of2.jsonl")

    def test_malformed_json_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        payload = {"name": "x", "graphs": ["bogus:9"], "schedulers": ["greedy"]}
        bad.write_text(json.dumps(payload))
        assert_clean_failure(
            run_cli("campaign", "run", str(bad)), needle="unknown graph spec"
        )

    def test_bad_jobs(self):
        assert_clean_failure(
            run_cli("campaign", "run", "paper-grid", "--jobs", "0"),
            needle="--jobs",
        )


class TestRunErrors:
    def test_unknown_experiment(self):
        assert_clean_failure(run_cli("run", "e99"), needle="unknown experiment")

    def test_bad_jobs(self):
        assert_clean_failure(run_cli("run", "e04", "--jobs", "0"), needle="--jobs")


class TestFailuresOutsideHandlers:
    """Failures raised where no handler caught them: each printed a
    traceback and exited 1 before it reached ``_fail``."""

    @pytest.mark.parametrize(
        "args,needle",
        [
            (("validate", "--n", "4", "--sources-cap", "0"), "cap must be >= 2"),
            (("validate", "--n", "4", "--sources-cap", "1"), "cap must be >= 2"),
            (("validate", "--schedule", "{binary}"), "binary.json is not valid JSON"),
            (("campaign", "run", "{binary}"), "binary.json is not valid JSON"),
            (("export-csv", "{existing}"), "export-csv failed [io-error]"),
        ],
        ids=[
            "sources-cap-0",
            "sources-cap-1",
            "schedule-not-utf8",
            "campaign-spec-not-utf8",
            "export-csv-onto-a-file",
        ],
    )
    def test_one_line_exit_two(self, tmp_path, args, needle):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"RPCORPUS\xff\xfe\x00\x81")  # a corpus header
        existing = tmp_path / "existing.txt"
        existing.write_text("")
        argv = [a.format(binary=binary, existing=existing) for a in args]
        assert_clean_failure(run_cli(*argv), needle=needle)


class TestCampaignHappyPathSubprocess:
    """One end-to-end subprocess pass of the determinism gate (the same
    sequence the CI campaign job runs, at the smallest built-in)."""

    def test_shard_merge_matches_single_shot(self, tmp_path):
        single, sharded = tmp_path / "single", tmp_path / "sharded"
        cache = tmp_path / "cache"
        base = ("campaign", "run", "allsources-validation", "--cache-dir", str(cache))
        assert run_cli(*base, "--out-dir", str(single)).returncode == 0
        shard0 = run_cli(*base, "--shard", "0/2", "--out-dir", str(sharded))
        assert shard0.returncode == 0
        shard1 = run_cli(*base, "--shard", "1/2", "--out-dir", str(sharded))
        assert shard1.returncode == 0
        proc = run_cli(
            "campaign", "merge", "allsources-validation", "--out-dir", str(sharded)
        )
        assert proc.returncode == 0, proc.stderr
        merged = (sharded / "allsources-validation.jsonl").read_bytes()
        direct = (single / "allsources-validation.jsonl").read_bytes()
        assert merged == direct
        manifest = json.loads(
            (single / "allsources-validation-shard0of1.manifest.json").read_text()
        )
        assert manifest["format"] == "repro-campaign-manifest/1"
        assert manifest["n_scenarios_total"] == len(manifest["scenarios"])
        assert all("seed" in s and "digest" in s for s in manifest["scenarios"])


class TestErrorCodeBrackets:
    """Exit-2 one-liners carry the machine-readable ``[code]`` tag.

    The bracketed code is the same string the service puts in HTTP
    error bodies (``error.code``) — one taxonomy, two transports.
    """

    def test_invalid_parameter_code(self):
        proc = run_cli("schedule", "--graph", "bogus:3")
        assert_clean_failure(proc, needle="[invalid-parameter]")
        assert proc.stderr.startswith("schedule failed [invalid-parameter]: ")

    def test_unknown_name_code(self):
        proc = run_cli("schedule", "--graph", "hypercube:3", "--scheduler", "nope")
        assert_clean_failure(proc, needle="[unknown-name]")

    def test_validate_code(self):
        proc = run_cli("validate", "--n", "6", "--k", "4")
        assert_clean_failure(proc, needle="[invalid-parameter]")
        assert proc.stderr.startswith("validate failed [")

    def test_campaign_code(self):
        proc = run_cli("campaign", "run", "nope")
        assert_clean_failure(proc, needle="[invalid-parameter]")

    def test_serve_bad_workers(self):
        proc = run_cli("serve", "--workers", "0")
        assert_clean_failure(proc, needle="[invalid-parameter]")
        assert proc.stderr.startswith("serve failed [")

    def test_search_budget_code(self, monkeypatch, capsys):
        """An exhausted search budget has its own code (the CLI exposes
        no budget knob, so the search is made to run out in process)."""
        from repro import cli
        from repro.schedulers import search

        def exhausted(*_args, **_kwargs):
            raise search.SearchBudgetExceeded("exact search exceeded 1 nodes")

        monkeypatch.setattr(search, "find_minimum_time_schedule", exhausted)
        rc = cli.main(["schedule", "--graph", "hypercube:3", "--scheduler", "search"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "schedule failed [search-budget-exceeded]: "
            "exact search exceeded 1 nodes\n"
        )
