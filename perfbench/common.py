"""Shared helpers: checkout paths, provenance, statistics, process memory,
and the ``repro serve`` daemon the serve workloads drive."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

# The benchmark runs from the root of a checkout: the program is ./src.
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"


class BenchError(RuntimeError):
    """A failure of the benchmark itself: no result line is printed."""


def require_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run from the repository root"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir() -> Path:
    """A private scratch directory for this run, inside the checkout."""
    path = WORK_ROOT / f"run-{os.getpid()}"
    (path / "tmp").mkdir(parents=True, exist_ok=True)
    return path


def child_env(work: Path) -> dict[str, str]:
    """Environment for the program's processes: ./src importable, temp
    files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(work / "tmp")
    env.pop("REPRO_CHAOS", None)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance(seed: int) -> dict:
    """Seed, code identity and toolchain versions for one run's output."""
    import numpy

    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
    }


# -- statistics ----------------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise BenchError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- process memory --------------------------------------------------------------


def proc_status_kb(pid: int, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 if the process is gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(rf"^{field}:\s+(\d+) kB", text, re.M)
    return int(match.group(1)) if match else 0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (from ``/proc``)."""
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        kids.extend(int(p) for p in text.split())
    return kids


class TreeMemory:
    """High-water RSS of a process and its children, polled."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.hwm_kb: dict[int, int] = {}

    def poll(self) -> None:
        for pid in [self.pid, *child_pids(self.pid)]:
            kb = proc_status_kb(pid, "VmHWM")
            if kb:
                self.hwm_kb[pid] = max(self.hwm_kb.get(pid, 0), kb)

    @property
    def total_mb(self) -> float:
        return sum(self.hwm_kb.values()) / 1024.0


# -- the daemon ------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, work: Path, extra: list[str]) -> None:
        self._log = open(work / "serve.log", "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--workers",
                "2",
                "--max-keepalive",
                "1000000000",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(work),
            cwd=ROOT,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().decode()
        match = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise BenchError(f"repro serve did not start: {line!r}")
        self.host = match.group(1)
        self.port = int(match.group(2))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def rss_mb(self, field: str = "VmRSS") -> float:
        return proc_status_kb(self.proc.pid, field) / 1024.0

    def stop(self) -> None:
        """SIGTERM, wait for the drain; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def wall() -> float:
    return time.perf_counter()
