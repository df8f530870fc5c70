"""Tests for JSON serialization and k-mlbg certificates."""

import hashlib

import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.io import (
    certificate_for,
    dump_certificate,
    frame_from_dict,
    frame_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_certificate,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    verify_certificate,
)
from repro.types import InvalidParameterError


class TestGraphRoundtrip:
    def test_roundtrip(self):
        g = construct_base(5, 2).graph
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_malformed_rejected(self):
        with pytest.raises(InvalidParameterError):
            graph_from_dict({"edges": [[0, 1]]})
        with pytest.raises(InvalidParameterError):
            graph_from_dict({"n_vertices": "x", "edges": []})


class TestScheduleRoundtrip:
    def test_roundtrip(self):
        sh = construct_base(5, 2)
        sched = broadcast_schedule(sh, 3)
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.source == sched.source
        assert [
            [c.path for c in r] for r in back.rounds
        ] == [[c.path for c in r] for r in sched.rounds]

    def test_malformed_rejected(self):
        with pytest.raises(InvalidParameterError):
            schedule_from_dict({"rounds": []})

    @pytest.mark.parametrize(
        "rounds",
        [[[[0]]], [[[]]], [[0]], 5, [[["a", 1]]], [[[0, None]]]],
        ids=[
            "one-vertex",
            "empty-path",
            "path-not-a-list",
            "rounds-not-a-list",
            "non-integer",
            "null-vertex",
        ],
    )
    def test_malformed_v1_paths_rejected(self, rounds):
        with pytest.raises(InvalidParameterError, match="malformed schedule"):
            schedule_from_dict({"source": 0, "rounds": rounds})

    def test_v1_loads_as_a_frozen_frame(self):
        sched = broadcast_schedule(construct_base(5, 2), 3)
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back._rounds is None  # a view over the decoded frame
        assert back.to_frame() == sched.to_frame()


class TestColumnarCodecV2:
    def make(self):
        sh = construct_base(5, 2)
        return sh.graph, broadcast_schedule(sh, 3)

    def test_frame_roundtrip(self):
        _g, sched = self.make()
        frame = sched.to_frame()
        assert frame_from_dict(frame_to_dict(frame)) == frame

    def test_v2_sniffed_by_schedule_loader(self):
        _g, sched = self.make()
        loaded = schedule_from_dict(schedule_to_dict(sched, version=2))
        assert loaded == sched

    def test_v1_output_unchanged_by_redesign(self):
        _g, sched = self.make()
        v1 = schedule_to_dict(sched)
        assert set(v1) == {"source", "rounds"}  # no format marker: legacy shape
        assert schedule_to_dict(sched.to_frame(), version=1) == v1

    def test_unknown_version_rejected(self):
        _g, sched = self.make()
        with pytest.raises(InvalidParameterError):
            schedule_to_dict(sched, version=3)

    def test_malformed_v2_rejected(self):
        with pytest.raises(InvalidParameterError):
            frame_from_dict({"format": "repro-schedule/2", "source": 0})
        with pytest.raises(InvalidParameterError):
            frame_from_dict({"format": "bogus"})

    def test_schedule_file_roundtrip(self, tmp_path):
        graph, sched = self.make()
        path = str(tmp_path / "sched.json")
        save_schedule(path, graph, sched, k=2)
        g2, frame, k = load_schedule(path)
        assert g2 == graph
        assert k == 2
        assert frame == sched.to_frame()

    def test_schedule_file_bad_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(InvalidParameterError):
            load_schedule(str(path))


class TestVersionSniffingErrors:
    """Unknown/missing format markers raise taxonomy errors, not KeyError.

    Stable codes and message shapes are part of the io contract: tools
    that read ``schedule failed [invalid-parameter]`` lines (or the
    service's error JSON) match on them.
    """

    def test_unknown_payload_marker_rejected_with_code(self):
        from repro.errors import error_code

        with pytest.raises(InvalidParameterError) as excinfo:
            schedule_from_dict({"format": "repro-schedule/99", "source": 0})
        assert error_code(excinfo.value) == "invalid-parameter"
        message = str(excinfo.value)
        assert "unknown schedule payload format 'repro-schedule/99'" in message
        assert "repro-schedule/2" in message  # says what it does support

    def test_non_string_marker_rejected_not_keyerror(self):
        with pytest.raises(InvalidParameterError):
            schedule_from_dict({"format": 2, "source": 0, "rounds": []})

    def test_markerless_v1_shape_still_loads(self):
        sched = schedule_from_dict({"source": 0, "rounds": [[[0, 1]]]})
        assert sched.source == 0

    def test_load_schedule_missing_marker(self, tmp_path):
        from repro.errors import error_code

        path = tmp_path / "nomarker.json"
        path.write_text('{"graph": {}, "schedule": {}}')
        with pytest.raises(InvalidParameterError) as excinfo:
            load_schedule(str(path))
        assert error_code(excinfo.value) == "invalid-parameter"
        assert "no schedule-file version marker" in str(excinfo.value)
        assert "repro-schedule-file/1" in str(excinfo.value)

    def test_load_schedule_wrong_marker(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"format": "repro-schedule-file/99"}')
        with pytest.raises(InvalidParameterError) as excinfo:
            load_schedule(str(path))
        assert "not a repro-schedule-file/1 file" in str(excinfo.value)
        assert "repro-schedule-file/99" in str(excinfo.value)

    def test_load_schedule_non_object_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InvalidParameterError):
            load_schedule(str(path))


class TestCertificates:
    def test_full_certificate_verifies(self):
        sh = construct_base(4, 2)
        cert = certificate_for(sh)
        assert len(cert["schedules"]) == 16
        assert verify_certificate(cert)

    def test_sampled_certificate(self):
        sh = construct(3, 7, (2, 4))
        cert = certificate_for(sh, sources=[0, 63, 127])
        assert verify_certificate(cert)

    def test_tampered_certificate_fails(self):
        sh = construct_base(4, 2)
        cert = certificate_for(sh, sources=[0])
        # claim a smaller k than the schedule's longest call needs
        cert["k"] = 1
        assert not verify_certificate(cert)

    def test_tampered_graph_fails(self):
        sh = construct_base(4, 2)
        cert = certificate_for(sh, sources=[0])
        cert["graph"]["edges"] = cert["graph"]["edges"][:-4]
        assert not verify_certificate(cert)

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_certificate({"format": "bogus"})

    def test_empty_source_list_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one source"):
            certificate_for(construct_base(4, 2), sources=[])

    def test_certificate_without_schedules_fails(self):
        cert = certificate_for(construct_base(4, 2), sources=[0])
        cert["schedules"] = []
        assert not verify_certificate(cert)

    def test_file_roundtrip(self, tmp_path):
        sh = construct_base(4, 2)
        cert = certificate_for(sh, sources=[0, 5])
        path = str(tmp_path / "cert.json")
        dump_certificate(cert, path)
        assert verify_certificate(load_certificate(path))


class TestGoldenBytes:
    """The v1 on-disk writers are byte-pinned.

    ``save_schedule`` and ``dump_certificate`` keep their deliberate
    insertion-ordered key layout (suppressed RL002 sites in io.py) —
    shipped artifacts must never change bytes under refactors.  If one
    of these hashes moves, that is a format break: bump the format
    string instead of silently rewriting v1.
    """

    def test_schedule_file_bytes_pinned(self, tmp_path):
        sh = construct_base(5, 2)
        sched = broadcast_schedule(sh, 3)
        path = tmp_path / "sched.json"
        save_schedule(str(path), sh.graph, sched, k=2)
        data = path.read_bytes()
        assert len(data) == 877
        assert (
            hashlib.sha256(data).hexdigest()
            == "212493b36803585f159fc3e5110e94cd8a1e0187166c049933df1d4be92cf955"
        )

    def test_certificate_file_bytes_pinned(self, tmp_path):
        sh = construct_base(4, 2)
        cert = certificate_for(sh, sources=[0, 5])
        path = tmp_path / "cert.json"
        dump_certificate(cert, str(path))
        data = path.read_bytes()
        assert len(data) == 553
        assert (
            hashlib.sha256(data).hexdigest()
            == "79e394c6959a57a2f6070661b88456fd7a7b5d2726e63473f92c853b171d197b"
        )

    @pytest.mark.parametrize(
        "n, size, digest",
        [
            (
                6,
                35_527,
                "2f438718395f7f7b55a6308b320e7adb8f664648cdfa2c5abed6d0858b278f0d",
            ),
            (
                8,
                638_760,
                "ad6865c92eda0d3ebe07541865bec94b605dd6d94806326793fdfd9cdd6b55e7",
            ),
        ],
        ids=["sparse:6:3", "sparse:8:3"],
    )
    def test_full_source_certificate_bytes_pinned(self, tmp_path, n, size, digest):
        """Every source's schedule, in the certificate's caller order."""
        cert = certificate_for(construct_base(n, 3))
        path = tmp_path / "cert.json"
        dump_certificate(cert, str(path))
        data = path.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_writes_are_repeatable(self, tmp_path):
        """Two invocations produce identical bytes (no wall-clock, no
        unsorted-set leakage into the payloads)."""
        sh = construct_base(5, 2)
        sched = broadcast_schedule(sh, 3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_schedule(str(a), sh.graph, sched, k=2)
        save_schedule(str(b), sh.graph, sched, k=2)
        assert a.read_bytes() == b.read_bytes()
