"""Tests for the repro.api facade: graph building, scheduling,
engine-selectable validation, certificates, and campaign execution."""

import pytest

from repro import api
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.frame import ScheduleFrame
from repro.types import Call, InvalidParameterError, Round, Schedule


class TestBuildGraph:
    def test_spec(self):
        g = api.build_graph("hypercube:3")
        assert g.n_vertices == 8

    def test_graph_passthrough(self):
        g = api.build_graph("path:5")
        assert api.build_graph(g) is g

    def test_bad_spec(self):
        with pytest.raises(InvalidParameterError):
            api.build_graph("bogus:1")


class TestSchedule:
    def test_result_has_frame_and_frozen_view(self):
        result = api.schedule("hypercube:3", "search", k=1)
        assert result.found and result.valid
        assert isinstance(result.frame, ScheduleFrame)
        assert result.schedule.frozen
        assert result.schedule.to_frame() is result.frame
        assert result.rounds == result.frame.n_rounds == 3

    def test_params_pass_through(self):
        result = api.schedule("path:8", "greedy", seed=1, params={"restarts": 50})
        assert result.stats["restarts"] == 50

    def test_unknown_scheduler(self):
        with pytest.raises(KeyError):
            api.schedule("hypercube:3", "nope")


def _valid_instance():
    sh = construct_base(4, 2)
    return sh.graph, broadcast_schedule(sh, 5), 2


def _corrupt(sched: Schedule) -> Schedule:
    bad = Schedule(source=sched.source, rounds=list(sched.rounds))
    extra = bad.rounds[0].calls[0]
    bad.rounds[1] = Round(bad.rounds[1].calls + (extra,))
    return bad


class TestValidate:
    def test_all_engines_agree_on_valid(self):
        graph, sched, k = _valid_instance()
        reports = [api.validate(graph, sched, k, engine=e) for e in api.ENGINES]
        assert all(r.ok for r in reports)
        for report in reports:
            assert report.informed_per_round == reports[0].informed_per_round

    def test_all_engines_agree_on_corrupt(self):
        graph, sched, k = _valid_instance()
        bad = _corrupt(sched)
        reports = [api.validate(graph, bad, k, engine=e) for e in api.ENGINES]
        assert not any(r.ok for r in reports)
        assert {tuple(r.errors) for r in reports} == {tuple(reports[0].errors)}

    def test_frame_and_schedule_inputs_equivalent(self):
        graph, sched, k = _valid_instance()
        frame = sched.to_frame()
        for engine in api.ENGINES:
            assert api.validate(graph, frame, k, engine=engine).ok

    def test_list_input_returns_reports_in_order(self):
        sh = construct_base(4, 2)
        schedules = [broadcast_schedule(sh, s) for s in (0, 3, 7)]
        schedules[1] = _corrupt(schedules[1])
        reports = api.validate(sh.graph, schedules, 2)
        assert [r.ok for r in reports] == [True, False, True]

    def test_unknown_engine(self):
        graph, sched, k = _valid_instance()
        with pytest.raises(InvalidParameterError):
            api.validate(graph, sched, k, engine="warp")

    def test_out_of_range_path_vertex_raises_like_reference(self):
        """A path vertex ≥ N (or < 0) raises the reference's
        InvalidParameterError from every engine, for a single schedule
        and a list — never a raw numpy IndexError."""
        g = construct_base(3, 1).graph
        for v in (g.n_vertices, -1):
            sched = Schedule(source=0)
            sched.append_round([Call.via((0, v))])
            messages = set()
            for engine in api.ENGINES:
                for schedules in (sched, [sched]):
                    with pytest.raises(InvalidParameterError) as exc:
                        api.validate(g, schedules, 2, engine=engine)
                    messages.add(str(exc.value))
            assert len(messages) == 1

    def test_batch_is_an_alias_of_fast(self):
        sh = construct_base(4, 2)
        schedules = [broadcast_schedule(sh, s) for s in (0, 3)]
        schedules[1] = _corrupt(schedules[1])
        fast = api.validate(sh.graph, schedules, 2, engine="fast")
        batch = api.validate(sh.graph, schedules, 2, engine="batch")
        assert [(r.ok, r.errors, r.informed_per_round) for r in fast] == [
            (r.ok, r.errors, r.informed_per_round) for r in batch
        ]


class TestCertificate:
    def test_roundtrip(self):
        from repro.io import verify_certificate

        sh = construct_base(4, 2)
        cert = api.certificate(sh, sources=[0, 5, 15])
        assert verify_certificate(cert)


class TestRunCampaign:
    def test_rows_come_back(self, tmp_path):
        rows = api.run_campaign(
            "allsources-validation", out_dir=str(tmp_path), cache_dir=None
        )
        assert rows and all(row["valid"] == row["found"] for row in rows)


class TestFramesOf:
    def test_mixed_inputs(self):
        graph, sched, _k = _valid_instance()
        result = api.schedule("hypercube:3", "search", k=1)
        frames = api.frames_of([sched, sched.to_frame(), result])
        assert [f.source for f in frames] == [5, 5, 0]
        assert all(isinstance(f, ScheduleFrame) for f in frames)


class TestConstruction:
    def test_bare_n_uses_theorem5_m_star(self):
        from repro.core.params import theorem5_m_star

        sh = api.construction("sparse:6")
        assert sh.n == 6
        assert sh.thresholds == (theorem5_m_star(6),)

    def test_n_m_is_construct_base(self):
        sh = api.construction("sparse:6:2")
        assert (sh.n, sh.thresholds) == (6, (2,))

    def test_multi_threshold_is_construct_k(self):
        sh = api.construction("sparse:8:2:5")
        assert sh.k == 3
        assert sh.thresholds == (2, 5)

    def test_object_passthrough(self):
        sh = construct_base(5, 2)
        assert api.construction(sh) is sh

    @pytest.mark.parametrize(
        "spec", ["hypercube:4", "sparse", "sparse:x", "sparse:6:y"]
    )
    def test_bad_specs(self, spec):
        with pytest.raises(InvalidParameterError):
            api.construction(spec)


class TestSpecAcceptance:
    """schedule/validate/certificate take textual specs or objects."""

    def test_validate_accepts_spec_string(self):
        graph, sched, k = _valid_instance()
        from_spec = api.validate("sparse:4:2", sched, k)
        from_graph = api.validate(graph, sched, k)
        assert from_spec.ok is from_graph.ok
        assert from_spec.errors == from_graph.errors
        assert from_spec.informed_per_round == from_graph.informed_per_round

    def test_certificate_accepts_spec_string(self):
        from repro.io import verify_certificate

        from_spec = api.certificate("sparse:4:2", sources=[0, 5])
        from_object = api.certificate(construct_base(4, 2), sources=[0, 5])
        assert from_spec == from_object
        assert verify_certificate(from_spec)
