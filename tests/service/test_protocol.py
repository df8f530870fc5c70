"""The v1 wire format: codecs, decoders, and the error-code status map."""

import hashlib
import json

import pytest

from repro.core.construct import construct_base
from repro.io import certificate_for, dump_certificate
from repro.service import protocol
from repro.types import InvalidParameterError


class TestStatusMap:
    """The code -> HTTP status mapping is append-only and pinned.

    A published code never changes its status class; new codes may be
    appended.  If one of these assertions moves, that is a wire-format
    break for every deployed client.
    """

    def test_pinned_statuses(self):
        assert protocol.HTTP_STATUS_BY_CODE == {
            "bad-request": 400,
            "invalid-parameter": 400,
            "unknown-name": 404,
            "not-found": 404,
            "method-not-allowed": 405,
            "invalid-schedule": 422,
            "execution-error": 503,
            "worker-crash": 503,
            "task-timeout": 503,
            "shm-attach-error": 503,
            "scenario-error": 500,
            "construction-error": 500,
            "overloaded": 503,
            "corpus-miss": 404,
            "corpus-error": 500,
            "corpus-format-error": 500,
            "corpus-integrity-error": 500,
            "io-error": 500,
            "repro-error": 500,
            "internal-error": 500,
            "search-budget-exceeded": 422,
        }

    def test_unknown_code_is_500(self):
        assert protocol.http_status_for("some-future-code") == 500

    def test_error_v1_status_follows_code(self):
        assert protocol.ErrorV1("invalid-schedule", "x").status == 422
        assert protocol.ErrorV1("worker-crash", "x").status == 503
        assert protocol.ErrorV1("search-budget-exceeded", "x").status == 422

    def test_error_for_exception(self):
        from repro.schedulers.search import SearchBudgetExceeded

        assert protocol.ErrorV1.for_exception(
            SearchBudgetExceeded("exact search exceeded 1 nodes")
        ) == protocol.ErrorV1(
            "search-budget-exceeded", "exact search exceeded 1 nodes"
        )
        assert protocol.ErrorV1.for_exception(
            KeyError("unknown scheduler 'x'")
        ) == protocol.ErrorV1("unknown-name", "unknown scheduler 'x'")
        assert protocol.ErrorV1.for_exception(
            AssertionError("boom")
        ) == protocol.ErrorV1("internal-error", "AssertionError: boom")


class TestGoldenBytes:
    """Canonical response bytes are pinned, like the io v2 writers.

    If one of these hashes moves, bump ``SERVICE_FORMAT`` instead of
    silently rewriting v1.
    """

    def test_error_bytes_pinned(self):
        data = protocol.encode_canonical(
            protocol.ErrorV1("invalid-schedule", "rounds exceed budget").to_wire()
        )
        assert len(data) == 97
        assert (
            hashlib.sha256(data).hexdigest()
            == "da165d2dbd080deae0b2f62a165ffaaf80de8082e8fbf179cccc63a149a22b71"
        )

    def test_validate_response_bytes_pinned(self):
        response = protocol.ValidateResponseV1(
            graph="hypercube:3",
            k=2,
            coalesced=True,
            reports=(
                protocol.ReportV1(ok=True, rounds=3, max_call_length=1, errors=()),
            ),
        )
        data = protocol.encode_canonical(response.to_wire())
        assert len(data) == 140
        assert (
            hashlib.sha256(data).hexdigest()
            == "991cc4bad33f2db9934bf5e45895f0ea3a5c14dd570979b605df4636ee681009"
        )

    def test_schedule_response_bytes_pinned(self):
        response = protocol.ScheduleResponseV1(
            scheduler="greedy",
            graph="hypercube:3",
            source=0,
            k=2,
            found=False,
            rounds=None,
            valid=None,
            n_calls=None,
            schedule=None,
        )
        data = protocol.encode_canonical(response.to_wire())
        assert len(data) == 160
        assert (
            hashlib.sha256(data).hexdigest()
            == "5158ab291ed9de3833ae952facc45c7b7742798356c975e6c08cfadb50a4f856"
        )

    def test_canonical_is_sorted_and_compact(self):
        data = protocol.encode_canonical({"b": 1, "a": [1, 2]})
        assert data == b'{"a":[1,2],"b":1}'

    def test_certificate_payload_matches_dump_certificate(self, tmp_path):
        """Served certificate bytes == the dump_certificate file bytes."""
        cert = certificate_for(construct_base(4, 2), sources=[0, 5])
        path = tmp_path / "cert.json"
        dump_certificate(cert, str(path))
        assert protocol.encode_certificate_payload(cert) == path.read_bytes()


class TestScheduleDecoder:
    def test_defaults(self):
        request = protocol.decode_schedule_request({"graph": "hypercube:4"})
        assert request.graph == "hypercube:4"
        assert request.scheduler == "greedy"
        assert request.source == 0
        assert request.k is None
        assert request.rounds is None
        assert request.seed == 0
        assert dict(request.params) == {}

    def test_full_round_trip(self):
        request = protocol.decode_schedule_request(
            {
                "graph": "sparse:6:2",
                "scheduler": "search",
                "source": 3,
                "k": 2,
                "rounds": 7,
                "seed": 11,
                "params": {"node_budget": 1000},
            }
        )
        assert request.scheduler == "search"
        assert request.source == 3
        assert request.params["node_budget"] == 1000

    @pytest.mark.parametrize(
        "body",
        [
            [],
            {"graph": ""},
            {"graph": 7},
            {"graph": "hypercube:4", "bogus": 1},
            {"graph": "hypercube:4", "source": True},
            {"graph": "hypercube:4", "k": "two"},
            {"graph": "hypercube:4", "params": [1]},
            {"graph": "hypercube:4", "params": {1: 2}},
        ],
    )
    def test_rejects_malformed(self, body):
        with pytest.raises(InvalidParameterError):
            protocol.decode_schedule_request(body)


class TestValidateDecoder:
    def test_defaults(self):
        request = protocol.decode_validate_request(
            {"graph": "hypercube:4", "k": 2, "schedules": [{"format": "x"}]}
        )
        assert request.engine == "auto"
        assert request.require_minimum_time is True
        assert request.vertex_disjoint is False

    @pytest.mark.parametrize(
        "body",
        [
            {"graph": "hypercube:4", "k": 2, "schedules": []},
            {"graph": "hypercube:4", "k": 2, "schedules": [1]},
            {"graph": "hypercube:4", "k": True, "schedules": [{}]},
            {"graph": "hypercube:4", "schedules": [{}]},
            {"graph": "hypercube:4", "k": 2, "schedules": [{}], "engine": 3},
            {
                "graph": "hypercube:4",
                "k": 2,
                "schedules": [{}],
                "require_minimum_time": "yes",
            },
        ],
    )
    def test_rejects_malformed(self, body):
        with pytest.raises(InvalidParameterError):
            protocol.decode_validate_request(body)


class TestCertificateDecoder:
    def test_defaults_and_sources(self):
        request = protocol.decode_certificate_request({"construction": "sparse:5:2"})
        assert request.sources is None
        request = protocol.decode_certificate_request(
            {"construction": "sparse:5:2", "sources": [0, 3]}
        )
        assert request.sources == (0, 3)

    @pytest.mark.parametrize(
        "body",
        [
            {"construction": "sparse:5:2", "sources": [True]},
            {"construction": "sparse:5:2", "sources": 3},
            {"sources": [0]},
            {"construction": "sparse:5:2", "extra": 1},
        ],
    )
    def test_rejects_malformed(self, body):
        with pytest.raises(InvalidParameterError):
            protocol.decode_certificate_request(body)


class TestJsonSafety:
    def test_wire_payloads_are_json_safe(self):
        """Every to_wire() output survives a json round-trip unchanged."""
        payloads = [
            protocol.ErrorV1("not-found", "x").to_wire(),
            protocol.ReportV1(
                ok=False, rounds=4, max_call_length=2, errors=("a", "b")
            ).to_wire(),
        ]
        for payload in payloads:
            assert json.loads(json.dumps(payload)) == payload
