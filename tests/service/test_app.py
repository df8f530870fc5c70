"""In-process service tests: routing, verdicts, concurrency, errors."""

import asyncio
import json

import pytest

import repro.api as api
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.frame import as_frame
from repro.io import certificate_for, dump_certificate, frame_from_dict, frame_to_dict
from repro.service import protocol
from repro.service.app import ReproService
from repro.service.http import HttpRequest, read_request, render_response
from repro.types import InvalidParameterError

GRAPH_SPEC = "sparse:5:2"
K = 2


@pytest.fixture()
def service():
    svc = ReproService(workers=2)
    yield svc
    svc.close()


def dispatch(service, method, path, body=b""):
    return asyncio.run(service.dispatch(method, path, body))


def validate_body(frames, **overrides):
    payload = {
        "graph": GRAPH_SPEC,
        "k": K,
        "schedules": [frame_to_dict(f) for f in frames],
    }
    payload.update(overrides)
    return json.dumps(payload).encode()


def broadcast_frames(n):
    sh = construct_base(5, 2)
    return [
        as_frame(broadcast_schedule(sh, s % sh.n_vertices)) for s in range(n)
    ]


def expected_report_wire(frame):
    """Serial api.validate, re-encoded through the same wire codec."""
    report = api.validate(api.build_graph(GRAPH_SPEC), frame, K)
    return protocol.ReportV1(
        ok=report.ok,
        rounds=report.rounds,
        max_call_length=report.max_call_length,
        errors=tuple(report.errors),
    ).to_wire()


class TestRouting:
    def test_healthz(self, service):
        status, body = dispatch(service, "GET", "/v1/healthz")
        assert status == 200
        assert json.loads(body) == {
            "format": protocol.SERVICE_FORMAT,
            "status": "ok",
        }

    def test_unknown_path_is_404(self, service):
        status, body = dispatch(service, "GET", "/v1/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"

    def test_wrong_method_is_405(self, service):
        status, body = dispatch(service, "GET", "/v1/validate")
        assert status == 405
        assert json.loads(body)["error"]["code"] == "method-not-allowed"

    def test_bad_json_is_400(self, service):
        status, body = dispatch(service, "POST", "/v1/validate", b"{nope")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid-parameter"

    def test_workers_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            ReproService(workers=0)


class TestSchedule:
    def test_greedy_round_trip(self, service):
        body = json.dumps(
            {"graph": "hypercube:4", "scheduler": "greedy", "k": 2, "seed": 1}
        ).encode()
        status, payload = dispatch(service, "POST", "/v1/schedule", body)
        assert status == 200
        data = json.loads(payload)
        assert data["format"] == protocol.SERVICE_FORMAT
        assert data["found"] is True
        assert data["valid"] is True
        # the served schedule is an io v2 payload that re-validates locally
        frame = frame_from_dict(data["schedule"])
        assert api.validate("hypercube:4", frame, 2).ok

    def test_unknown_scheduler_is_404(self, service):
        body = json.dumps({"graph": "hypercube:4", "scheduler": "nope"}).encode()
        status, payload = dispatch(service, "POST", "/v1/schedule", body)
        assert status == 404
        assert json.loads(payload)["error"]["code"] == "unknown-name"

    @pytest.mark.parametrize("spec", ["bogus:4", "sparse:40:3"])
    def test_bad_graph_spec_is_400(self, service, spec):
        body = json.dumps({"graph": spec}).encode()
        status, payload = dispatch(service, "POST", "/v1/schedule", body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid-parameter"

    @pytest.mark.parametrize(
        "request_fields, needle",
        [
            ({"params": {"sample_cap": 0}}, "sample_cap must be >= 1, got 0"),
            ({"params": {"sample_cap": -1}}, "sample_cap must be >= 1, got -1"),
            ({"params": {"restarts": 0}}, "restarts must be >= 1, got 0"),
            ({"rounds": -1}, "rounds must be >= 0, got -1"),
            ({"scheduler": "search", "rounds": -1}, "rounds must be >= 0"),
            (
                {"scheduler": "search", "params": {"node_budget": 0}},
                "node_budget must be >= 1, got 0",
            ),
        ],
    )
    def test_unusable_scheduler_parameters_are_400(
        self, service, request_fields, needle
    ):
        """Rejected before any search runs: not a 200 "not found", not a
        crash, not another library's message."""
        body = json.dumps({"graph": "hypercube:3", **request_fields}).encode()
        status, payload = dispatch(service, "POST", "/v1/schedule", body)
        assert status == 400
        error = json.loads(payload)["error"]
        assert error["code"] == "invalid-parameter"
        assert needle in error["message"]

    @pytest.mark.parametrize(
        "scheduler, raw_params, needle",
        [
            ("greedy", '{"restarts": null}', "restarts must be an integer, got None"),
            ("greedy", '{"restarts": [3]}', "restarts must be an integer, got [3]"),
            ("greedy", '{"restarts": 1e400}', "restarts must be an integer, got inf"),
            ("greedy", '{"restarts": "7"}', "restarts must be an integer, got '7'"),
            ("greedy", '{"restarts": 1.5}', "restarts must be an integer, got 1.5"),
            ("greedy", '{"sample_cap": 0.5}', "sample_cap must be an integer"),
            ("search", '{"node_budget": {}}', "node_budget must be an integer"),
            ("search", '{"node_budget": true}', "node_budget must be an integer"),
            ("multimsg_search", '{"n_messages": null}', "n_messages must be an"),
            ("multimsg_search", '{"n_messages": true}', "n_messages must be an"),
            ("multimsg_search", '{"n_messages": 0}', "n_messages must be >= 1"),
        ],
    )
    def test_scheduler_parameters_of_the_wrong_type_are_400(
        self, service, scheduler, raw_params, needle
    ):
        """Neither a 500 nor a run on a coerced value: ``"7"``, ``1.5``
        and ``true`` used to run as 7, 1 and 1."""
        body = (
            f'{{"graph": "hypercube:3", "scheduler": "{scheduler}", '
            f'"params": {raw_params}}}'
        ).encode()
        status, payload = dispatch(service, "POST", "/v1/schedule", body)
        assert status == 400
        error = json.loads(payload)["error"]
        assert error["code"] == "invalid-parameter"
        assert needle in error["message"]

    def test_exhausted_search_budget_is_422(self, service):
        """The request's budget ran out: the request is at fault."""
        body = json.dumps(
            {
                "graph": "hypercube:3",
                "scheduler": "search",
                "source": 0,
                "params": {"node_budget": 1},
            }
        ).encode()
        status, payload = dispatch(service, "POST", "/v1/schedule", body)
        assert status == 422
        assert json.loads(payload)["error"]["code"] == "search-budget-exceeded"


class TestValidate:
    def test_single_matches_serial_api_validate(self, service):
        frame = broadcast_frames(1)[0]
        status, payload = dispatch(
            service, "POST", "/v1/validate", validate_body([frame])
        )
        assert status == 200
        data = json.loads(payload)
        served = protocol.encode_canonical(data["reports"][0])
        assert served == protocol.encode_canonical(expected_report_wire(frame))

    def test_graph_over_the_cube_dimension_bound_is_400(self, service):
        body = validate_body(broadcast_frames(1), graph="sparse:40:3")
        status, payload = dispatch(service, "POST", "/v1/validate", body)
        assert status == 400
        error = json.loads(payload)["error"]
        assert error["code"] == "invalid-parameter"
        assert "dimension 40 exceeds 24" in error["message"]

    def test_unknown_engine_is_400(self, service):
        frame = broadcast_frames(1)[0]
        status, payload = dispatch(
            service,
            "POST",
            "/v1/validate",
            validate_body([frame], engine="warp"),
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid-parameter"

    def test_batch_engine_answers_like_fast(self, service):
        frames = broadcast_frames(3)
        answers = [
            dispatch(service, "POST", "/v1/validate", validate_body(frames, engine=e))
            for e in ("fast", "batch")
        ]
        assert answers[0][0] == 200
        assert answers[0] == answers[1]

    def test_invalid_frame_payload_is_400(self, service):
        status, payload = dispatch(
            service,
            "POST",
            "/v1/validate",
            json.dumps(
                {"graph": GRAPH_SPEC, "k": K, "schedules": [{"bogus": 1}]}
            ).encode(),
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid-parameter"


class TestConcurrentValidates:
    """Each validate is its own api.validate call: no collection window."""

    def burst(self, service, bodies):
        async def go():
            return await asyncio.gather(
                *(service.dispatch("POST", "/v1/validate", b) for b in bodies)
            )

        return asyncio.run(go())

    def test_burst_byte_identical_to_serial(self, service):
        """Reports come back per request, in order, never coalesced."""
        frames = broadcast_frames(6)
        responses = self.burst(service, [validate_body([f, frames[0]]) for f in frames])
        for frame, (status, payload) in zip(frames, responses):
            assert status == 200
            data = json.loads(payload)
            assert data["coalesced"] is False
            served = [protocol.encode_canonical(r) for r in data["reports"]]
            assert served == [
                protocol.encode_canonical(expected_report_wire(f))
                for f in (frame, frames[0])
            ]

    def test_stats_count_one_pass_per_request(self, service):
        frames = broadcast_frames(5)
        self.burst(service, [validate_body([f]) for f in frames])
        dispatch(service, "POST", "/v1/validate", validate_body(frames[:2]))
        _status, payload = dispatch(service, "GET", "/v1/stats")
        assert json.loads(payload)["coalescer"] == {
            "passes": 6,
            "requests": 6,
            "schedules": 7,
            "coalesced_passes": 0,
        }


class TestCertificate:
    def test_bytes_identical_to_dump_certificate(self, service, tmp_path):
        body = json.dumps(
            {"construction": GRAPH_SPEC, "sources": [0, 5]}
        ).encode()
        status, payload = dispatch(service, "POST", "/v1/certificate", body)
        assert status == 200
        cert = certificate_for(construct_base(5, 2), sources=[0, 5])
        path = tmp_path / "cert.json"
        dump_certificate(cert, str(path))
        assert payload == path.read_bytes()

    @pytest.mark.parametrize("spec", ["hypercube:4", "sparse:40"])
    def test_bad_construction_is_400(self, service, spec):
        body = json.dumps({"construction": spec}).encode()
        status, payload = dispatch(service, "POST", "/v1/certificate", body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid-parameter"

    def test_empty_source_list_is_400(self, service):
        """A certificate with no schedules proves nothing."""
        body = json.dumps({"construction": GRAPH_SPEC, "sources": []}).encode()
        status, payload = dispatch(service, "POST", "/v1/certificate", body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid-parameter"

    def test_repeated_sources_are_400(self, service):
        """A repeated source proves nothing new; a small body of repeats
        must not buy an answer thousands of times its size."""
        body = json.dumps(
            {"construction": "sparse:4:2", "sources": [0] * 20_000}
        ).encode()
        status, payload = dispatch(service, "POST", "/v1/certificate", body)
        assert status == 400
        error = json.loads(payload)["error"]
        assert error["code"] == "invalid-parameter"
        assert "source 0 is listed twice" in error["message"]


class TestStats:
    def test_counters_and_caches(self, service):
        frame = broadcast_frames(1)[0]
        dispatch(service, "GET", "/v1/healthz")
        dispatch(service, "POST", "/v1/validate", validate_body([frame]))
        dispatch(service, "GET", "/v1/validate")  # 405 -> error counter
        status, payload = dispatch(service, "GET", "/v1/stats")
        assert status == 200
        data = json.loads(payload)
        assert data["format"] == protocol.SERVICE_FORMAT
        assert data["endpoints"]["healthz"]["count"] == 1
        assert data["endpoints"]["validate"]["count"] == 1
        assert data["endpoints"]["validate"]["errors"] == 1
        assert data["endpoints"]["validate"]["seconds"] > 0
        assert data["coalescer"]["passes"] == 1
        assert data["coalescer"]["requests"] == 1
        assert data["graphs_cached"] == 1
        assert set(data["engine_cache"]) == {"entries", "hits", "misses", "evictions"}

    def test_graph_cache_is_spec_keyed(self, service):
        """The graph is built once per spec in the worker that computes,
        and the second request hits that worker's engine cache."""
        frame = broadcast_frames(1)[0]
        dispatch(service, "POST", "/v1/validate", validate_body([frame]))
        dispatch(service, "POST", "/v1/validate", validate_body([frame]))
        data = json.loads(dispatch(service, "GET", "/v1/stats")[1])
        assert data["graphs_cached"] == 1
        assert data["engine_cache"]["hits"] >= 1
        assert service._graph_for(GRAPH_SPEC) is service._graph_for(GRAPH_SPEC)


class TestLifecycle:
    def test_drain_waits_for_idle(self, service):
        asyncio.run(service.drain())
        assert service._closing is True

    def test_close_is_idempotent_enough(self):
        svc = ReproService(workers=1)
        svc.close()
        svc.close()


class TestHttpLayer:
    def run_reader(self, data):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_request(reader)

        return asyncio.run(go())

    def test_parses_post_with_body(self):
        raw = (
            b"POST /v1/validate HTTP/1.1\r\n"
            b"Content-Length: 4\r\n"
            b"Connection: close\r\n"
            b"\r\nabcd"
        )
        request = self.run_reader(raw)
        assert request == HttpRequest(
            method="POST",
            path="/v1/validate",
            headers={"content-length": "4", "connection": "close"},
            body=b"abcd",
        )
        assert request.keep_alive is False

    def test_get_defaults_to_keep_alive(self):
        request = self.run_reader(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert request.keep_alive is True
        assert request.body == b""

    def test_clean_eof_returns_none(self):
        assert self.run_reader(b"") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /v1/healthz\r\n\r\n",  # no HTTP version
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"GET /x HT",  # truncated mid-request
        ],
    )
    def test_malformed_raises(self, raw):
        with pytest.raises(InvalidParameterError):
            self.run_reader(raw)

    def test_render_response_framing(self):
        data = render_response(200, b'{"x":1}', keep_alive=False)
        head, _, body = data.partition(b"\r\n\r\n")
        assert body == b'{"x":1}'
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 7" in head
        assert b"Connection: close" in head
