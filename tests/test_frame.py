"""Unit tests for the columnar schedule core (ScheduleFrame/ScheduleBuilder)
and the immutable ``Schedule`` view over it."""

import numpy as np
import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.frame import ScheduleBuilder, ScheduleFrame, as_frame, as_schedule
from repro.types import (
    Call,
    InvalidParameterError,
    InvalidScheduleError,
    Round,
    Schedule,
)


def small_frame():
    b = ScheduleBuilder(0)
    b.add_round([(0, 1)])
    b.add_round([(0, 2), (1, 0, 3)])
    return b.build()


class TestScheduleBuilder:
    def test_shape_and_accessors(self):
        f = small_frame()
        assert (f.n_rounds, f.n_calls, f.n_items) == (2, 3, 7)
        assert f.call_counts().tolist() == [1, 2]
        assert f.call_lengths().tolist() == [1, 1, 2]
        assert f.callers().tolist() == [0, 0, 1]
        assert f.receivers().tolist() == [1, 2, 3]
        assert f.max_call_length() == 2
        assert f.round_paths(0) == [(0, 1)]
        assert f.round_paths(1) == [(0, 2), (1, 0, 3)]
        assert f.call_path(2) == (1, 0, 3)

    def test_empty_rounds_allowed(self):
        b = ScheduleBuilder(5)
        b.add_round([])
        b.add_round([(5, 6)])
        f = b.build()
        assert f.n_rounds == 2
        assert f.round_paths(0) == []
        assert f.call_counts().tolist() == [0, 1]

    def test_single_vertex_path_rejected(self):
        b = ScheduleBuilder(0)
        with pytest.raises(InvalidScheduleError):
            b.add_round([(0,)])


class TestScheduleFrame:
    def test_arrays_are_read_only(self):
        f = small_frame()
        for arr in (f.path_verts, f.call_offsets, f.round_offsets):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_offset_invariants_enforced(self):
        with pytest.raises(InvalidParameterError):
            ScheduleFrame(0, np.array([0, 1]), np.array([0, 2]), np.array([1, 1]))
        with pytest.raises(InvalidParameterError):
            ScheduleFrame(0, np.array([0, 1]), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(InvalidScheduleError):
            # a call spanning a single vertex
            ScheduleFrame(0, np.array([0, 1, 2]), np.array([0, 2, 3]), np.array([0, 2]))

    def test_equality_and_hash(self):
        a, b = small_frame(), small_frame()
        assert a == b and hash(a) == hash(b)
        c = ScheduleBuilder(1)
        c.add_round([(1, 0)])
        assert a != c.build()

    def test_informed_after_matches_object_view(self):
        f = small_frame()
        s = as_schedule(f)
        for t in range(-f.n_rounds - 1, f.n_rounds + 2):
            assert f.informed_after(t) == s.informed_after(t), t
        # and the answer must not depend on whether rounds materialized
        lazy = as_schedule(f)
        before = {t: lazy.informed_after(t) for t in (-1, 0, 1)}
        _ = lazy.rounds  # force materialization
        assert before == {t: lazy.informed_after(t) for t in (-1, 0, 1)}

    def test_validated_frame_stays_picklable(self):
        """Validator caches (layout, per-graph screen state with weakrefs)
        must never leak into serialization."""
        import pickle

        from repro.api import build_graph, schedule

        result = schedule("hypercube:3", "store_forward")
        assert result.valid  # validation attached cached state to the frame
        clone = pickle.loads(pickle.dumps(result.frame))
        assert clone == result.frame
        with pytest.raises(ValueError):
            clone.path_verts[0] = 99  # still frozen after the round-trip
        sched_clone = pickle.loads(pickle.dumps(result.schedule))
        assert sched_clone == result.schedule

    def test_roundtrip_through_schedule(self):
        sh = construct_base(4, 2)
        sched = broadcast_schedule(sh, 3)
        frame = sched.to_frame()
        back = Schedule.from_frame(frame)
        assert back == sched
        assert back.to_frame() == frame
        assert as_frame(back) is frame  # the view wraps that very frame

    def test_lazy_view_counts_without_rounds(self):
        frame = small_frame()
        view = Schedule.from_frame(frame)
        # counters are frame-served before any Round object exists
        assert view.num_rounds == 2
        assert view.num_calls == 3
        assert view.max_call_length() == 2
        assert view._rounds is None
        assert [len(r) for r in view] == [1, 2]  # materializes on demand
        assert view._rounds is not None


class TestFrozenSchedules:
    """Every ``Schedule`` is immutable from construction: it has no
    mutator and no setter, and one frame stands behind it."""

    def test_every_mutation_is_blocked(self):
        s = Schedule(source=0, rounds=[Round((Call.direct(0, 1),))])
        assert isinstance(s.rounds, tuple)
        assert s.to_frame() is s.to_frame()
        with pytest.raises(AttributeError):
            s.rounds = ()
        with pytest.raises(AttributeError):
            s.source = 1
        with pytest.raises(TypeError):
            s.rounds[0] = s.rounds[0]
        for gone in ("append_round", "freeze", "frozen", "frame_or_none"):
            assert not hasattr(s, gone)
        for gone in ("from_schedule", "to_schedule"):
            assert not hasattr(ScheduleFrame, gone)
        assert not hasattr(ScheduleBuilder, "add_call_round")

    def test_source_cannot_drift_from_the_saved_bytes(self):
        """Regression: a frozen schedule's ``source`` used to be writable,
        so every engine validated the new source while the frame and both
        payload versions kept the old one."""
        from repro import io

        sched = broadcast_schedule(construct_base(4, 2), 0)
        with pytest.raises(AttributeError):
            sched.source = 5
        assert sched.source == sched.to_frame().source == 0
        for version in (1, 2):
            assert io.schedule_to_dict(sched, version=version)["source"] == 0

    def test_scheduler_results_are_frozen(self):
        """Regression (satellite): a schedule returned by a scheduler must
        not be silently mutable after validation."""
        from repro.api import build_graph, schedule, validate

        result = schedule("hypercube:3", "search", k=1)
        sched = result.schedule
        assert result.valid
        assert sched.to_frame() is result.frame
        with pytest.raises(AttributeError):
            sched.source = 1
        with pytest.raises(AttributeError):
            sched.rounds = sched.rounds[:-1]
        # the validated verdict still holds because nothing could change
        assert validate(build_graph("hypercube:3"), sched, 1).ok

    def test_batch_engine_schedules_are_frozen(self):
        from repro.engine.batch import all_sources_schedules

        sh = construct_base(4, 2)
        stack = all_sources_schedules(sh, sources=[0, 1])[0]
        sched = stack.to_schedule(0)
        assert isinstance(sched.rounds, tuple)
        assert sched.to_frame() is sched.to_frame()
        with pytest.raises(AttributeError):
            sched.rounds = ()

    def test_greedy_and_legacy_results_frozen(self):
        from repro.graphs.trees import path_graph
        from repro.schedulers.greedy import heuristic_line_broadcast

        sched = heuristic_line_broadcast(path_graph(8), 0, None, restarts=50, seed=0)
        assert sched is not None
        assert isinstance(sched.rounds, tuple)
        assert sched.to_frame() is sched.to_frame()
        with pytest.raises(AttributeError):
            sched.rounds = ()
