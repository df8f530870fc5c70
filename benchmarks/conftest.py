"""Shared benchmark configuration.

``bench_experiments.py`` regenerates every paper artifact (``python -m
repro list`` prints the experiment index), printing each table once,
timing each experiment function with pytest-benchmark and checking its
claims.  ``print_once`` avoids reprinting under benchmark's calibration
loops.

Headline measurements (the speedup-floor tests) additionally record
machine-readable rows through the ``bench_json`` fixture; at session end
they are written to ``benchmarks/BENCH_results.json`` (override the path
with ``REPRO_BENCH_JSON``), which CI uploads as an artifact so the bench
trajectory is diffable across runs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.analysis.tables import format_table

_printed: set[str] = set()
_bench_rows: list[dict] = []


@pytest.fixture
def print_once():
    """Print an experiment table exactly once per session."""

    def _print(key: str, rows, title: str) -> None:
        if key not in _printed:
            _printed.add(key)
            print()
            print(format_table(rows, title=title))

    return _print


@pytest.fixture
def bench_json():
    """Record one machine-readable benchmark row for BENCH_results.json."""
    return _record


def _record(suite: str, name: str, **fields) -> None:
    # Per-row config stamp: merged files carry rows from sessions run
    # under different sizes/interpreters, so rows must self-describe.
    row = {
        "suite": suite,
        "name": name,
        "repro_bench_n": int(os.environ.get("REPRO_BENCH_N", "12")),
        "python": sys.version.split()[0],
    }
    row.update(fields)
    _bench_rows.append(row)


def pytest_sessionfinish(session, exitstatus):
    if not _bench_rows:
        return
    path = Path(
        os.environ.get(
            "REPRO_BENCH_JSON", str(Path(__file__).parent / "BENCH_results.json")
        )
    )
    # Merge with rows from earlier sessions (CI runs the suites one pytest
    # invocation at a time); this session's rows win on (suite, name).
    rows: dict[tuple, dict] = {}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
            if previous.get("format") == "repro-bench-results/1":
                for row in previous.get("results", []):
                    rows[(row.get("suite"), row.get("name"))] = row
        except (json.JSONDecodeError, OSError, AttributeError):
            pass  # unreadable file — rewrite from this session alone
    for row in _bench_rows:
        rows[(row["suite"], row["name"])] = row
    payload = {
        "format": "repro-bench-results/1",
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "repro_bench_n": int(os.environ.get("REPRO_BENCH_N", "12")),
        },
        "results": sorted(rows.values(), key=lambda r: (r["suite"], r["name"])),
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
