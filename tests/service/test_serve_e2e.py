"""End-to-end daemon test: real process, real sockets, real signals.

Launches ``python -m repro serve`` on an ephemeral port, speaks HTTP to
all five endpoints, checks that concurrent validates answer byte for
byte what serial ``api.validate`` answers, and that SIGTERM drains
cleanly with no shared-memory segments left behind in ``/dev/shm`` and
no compute worker left running.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path

import pytest

import repro.api as api
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.frame import as_frame
from repro.io import certificate_for, dump_certificate, frame_to_dict
from repro.service import protocol

REPO_ROOT = Path(__file__).resolve().parents[2]
GRAPH_SPEC = "sparse:5:2"
K = 2


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture(scope="module")
def daemon():
    """A live ``repro serve`` on an ephemeral port; yields (proc, port)."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    shm_before = _shm_entries()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    line = proc.stdout.readline().strip()
    assert "repro serve listening on http://" in line, line
    port = int(line.rsplit(":", 1)[1])
    yield proc, port
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=30)
    # clean shutdown: drained, exit 0, no traceback, no shm leak
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert "repro serve: draining" in stdout
    assert "repro serve: shutdown complete" in stdout
    assert "Traceback" not in stderr
    leaked = _shm_entries() - shm_before
    assert not leaked, f"daemon leaked shm segments: {leaked}"


def request(port, method, path, payload=None, timeout=30):
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_healthz(daemon):
    _proc, port = daemon
    status, body = request(port, "GET", "/v1/healthz")
    assert status == 200
    assert json.loads(body) == {
        "format": protocol.SERVICE_FORMAT,
        "status": "ok",
    }


def test_schedule_endpoint(daemon):
    _proc, port = daemon
    status, body = request(
        port,
        "POST",
        "/v1/schedule",
        {"graph": "hypercube:4", "scheduler": "greedy", "k": 2, "seed": 1},
    )
    assert status == 200
    data = json.loads(body)
    assert data["found"] is True and data["valid"] is True


def test_error_body_and_status(daemon):
    _proc, port = daemon
    status, body = request(port, "POST", "/v1/schedule", {"graph": "bogus:1"})
    assert status == 400
    assert json.loads(body)["error"]["code"] == "invalid-parameter"
    status, body = request(port, "GET", "/v1/missing")
    assert status == 404
    assert json.loads(body)["error"]["code"] == "not-found"


def test_concurrent_validates_byte_identical_to_serial(daemon):
    """A burst of concurrent validates over real sockets must produce,
    for every request, exactly the bytes serial ``api.validate``
    produces, and no request is ever coalesced with another.
    """
    _proc, port = daemon
    sh = construct_base(5, 2)
    frames = [
        as_frame(broadcast_schedule(sh, s % sh.n_vertices)) for s in range(8)
    ]
    payloads = [
        {"graph": GRAPH_SPEC, "k": K, "schedules": [frame_to_dict(f)]}
        for f in frames
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        responses = list(
            pool.map(
                lambda p: request(port, "POST", "/v1/validate", p), payloads
            )
        )
    graph = api.build_graph(GRAPH_SPEC)
    for frame, (status, body) in zip(frames, responses):
        assert status == 200, body
        data = json.loads(body)
        assert data["coalesced"] is False
        reference = api.validate(graph, frame, K)
        expected = protocol.ReportV1(
            ok=reference.ok,
            rounds=reference.rounds,
            max_call_length=reference.max_call_length,
            errors=tuple(reference.errors),
        ).to_wire()
        assert protocol.encode_canonical(
            data["reports"][0]
        ) == protocol.encode_canonical(expected)
    status, body = request(port, "GET", "/v1/stats")
    assert status == 200
    stats = json.loads(body)["coalescer"]
    assert stats["requests"] >= 8
    assert stats["passes"] == stats["requests"]
    assert stats["coalesced_passes"] == 0


def test_certificate_bytes_match_local_dump(daemon, tmp_path):
    _proc, port = daemon
    status, body = request(
        port, "POST", "/v1/certificate", {"construction": GRAPH_SPEC}
    )
    assert status == 200
    cert = certificate_for(construct_base(5, 2), sources=None)
    path = tmp_path / "cert.json"
    dump_certificate(cert, str(path))
    assert body == path.read_bytes()


def test_keep_alive_reuses_connection(daemon):
    _proc, port = daemon
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for _ in range(3):
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
    finally:
        conn.close()


def test_malformed_http_gets_400_and_close(daemon):
    _proc, port = daemon
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"NOT A REQUEST\r\n\r\n")
        sock.settimeout(10)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    assert b"400 Bad Request" in raw
    assert b"bad-request" in raw


def test_sigint_also_shuts_down_cleanly():
    """A second daemon instance, killed with SIGINT instead of SIGTERM."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    line = proc.stdout.readline().strip()
    assert "listening" in line, line
    time.sleep(0.1)
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert "shutdown complete" in stdout


def _children(pid):
    """The live or unreaped child processes of ``pid`` (Linux ``/proc``)."""
    kids = set()
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as fh:
            kids.update(int(p) for p in fh.read().split())
    return kids


def test_compute_workers_survive_faults_and_leave_with_the_daemon():
    """Chaos kills the first compute request's worker: it is replaced
    and the request answered.  Terminating that replacement, forked
    after the daemon's signal handlers exist, kills only the worker: the
    daemon does not drain and keeps answering.  SIGTERM to the daemon
    then exits 0 within seconds and leaves no child behind."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CHAOS"] = "kill:task=0"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        line = proc.stdout.readline().strip()
        assert "listening" in line, line
        port = int(line.rsplit(":", 1)[1])
        first = _children(proc.pid)
        assert len(first) == 2
        sh = construct_base(5, 2)
        payloads = [
            {
                "graph": GRAPH_SPEC,
                "k": K,
                "schedules": [frame_to_dict(as_frame(broadcast_schedule(sh, s)))],
            }
            for s in range(4)
        ]
        # the retry forks a replacement while this connection is open; a
        # ``Connection: close`` answer must still end in EOF at once
        body = json.dumps(payloads[0]).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/validate HTTP/1.1\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            sock.settimeout(5)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, answer = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK"), raw
        assert json.loads(answer)["reports"][0]["ok"] is True
        (replacement,) = _children(proc.pid) - first
        os.kill(replacement, signal.SIGTERM)
        time.sleep(0.3)
        assert request(port, "GET", "/v1/healthz")[0] == 200
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(
                pool.map(
                    lambda p: request(port, "POST", "/v1/validate", p), payloads
                )
            )
        assert [status for status, _ in answers] == [200] * 4
        assert proc.poll() is None
        kids = _children(proc.pid)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        t0 = time.monotonic()
        stdout, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 0, (proc.returncode, stderr)
    assert time.monotonic() - t0 < 5.0
    assert stdout.count("repro serve: draining") == 1
    assert "shutdown complete" in stdout
    assert not [kid for kid in kids | first if os.path.exists(f"/proc/{kid}")]


def test_workers_exit_when_the_daemon_is_killed():
    """No worker holds the daemon's end of its pipe, so a SIGKILLed
    daemon's workers see EOF and exit instead of waiting forever."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    line = proc.stdout.readline().strip()
    assert "listening" in line, line
    kids = _children(proc.pid)
    assert len(kids) == 2
    proc.kill()
    proc.communicate(timeout=30)

    def running(pid):
        try:
            with open(f"/proc/{pid}/status") as fh:
                return "\nState:\tZ" not in fh.read()
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 5.0
    while any(running(kid) for kid in kids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [kid for kid in kids if running(kid)]
