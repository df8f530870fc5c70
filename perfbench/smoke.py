"""The benchmark's own tests, at smoke size.

Run from the repository root (about three minutes)::

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` keeps to its format, that every workload
emits exactly the end-to-end metrics (``--trace 0``) and the per-layer
metrics (``--trace 1``) it lists, with their units, that the traced
replays cover at least 90% of their wall time, that a planted wrong
expected answer is counted as a failure, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = ROOT / "BENCHMARK.json"
SMOKE_SECONDS = "2"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_format(spec: dict) -> None:
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    names: list[str] = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower"), m
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names)), "names must be unique"
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(cwd: Path, *args: str) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if out.returncode:
        sys.stderr.write(out.stderr[-3000:])
    return out.returncode, out.stdout.splitlines()


def result(lines: list[str]) -> dict:
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, sorted(last)
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return last


def check_metrics(last: dict, listed: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == want, f"{label}: emitted {sorted(got)} != listed {sorted(want)}"
    for name, m in last["metrics"].items():
        assert isinstance(m["value"], float), (label, name, m)


def main() -> int:
    spec = json.loads(BENCH.read_text())
    check_format(spec)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            rc, lines = run(ROOT, "--workload", name, "--seed", "7",
                            "--seconds", SMOKE_SECONDS, "--trace", trace)
            assert rc == 0, f"{name} --trace {trace} exited {rc}"
            last = result(lines)
            assert last["correct"] and last["failed"] == 0, (name, trace, last)
            check_metrics(last, listed, f"{name} --trace {trace}")
            if trace == "0":
                assert all(m["value"] > 0 for m in last["metrics"].values()), last
            else:
                coverage = last["metrics"]["trace.coverage"]["value"]
                assert coverage >= 0.9, f"{name}: span coverage {coverage:.3f}"
                assert last["metrics"]["error_rate"]["value"] == 0.0
            print(f"ok  {name} --trace {trace}", flush=True)

    rc, lines = run(ROOT, "--workload", "serve", "--seed", "7",
                    "--seconds", SMOKE_SECONDS, "--trace", "0", "--plant-wrong")
    last = result(lines)
    assert rc == 0 and last["failed"] > 0 and last["correct"] is False, last
    print("ok  a planted wrong answer is counted as failed", flush=True)

    bare = ROOT / ".perfbench-work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(BENCH, bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                        "--seconds", SMOKE_SECONDS, "--trace", "0")
        assert rc != 0, "ran without the program's sources"
        assert not any(line.startswith('{"correct"') for line in lines), lines
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/repro", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
