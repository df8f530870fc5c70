"""Unit tests for the core datatypes (Call / Round / Schedule)."""

import pytest

from repro.types import (
    Call,
    InvalidScheduleError,
    Round,
    Schedule,
    canonical_edge,
)


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_equal_endpoints_preserved(self):
        assert canonical_edge(3, 3) == (3, 3)


class TestCall:
    def test_direct_call(self):
        c = Call.direct(1, 2)
        assert c.source == 1 and c.receiver == 2
        assert c.length == 1
        assert c.edges() == [(1, 2)]

    def test_via_path(self):
        c = Call.via((0, 2, 10))
        assert c.source == 0 and c.receiver == 10
        assert c.length == 2
        assert c.edges() == [(0, 2), (2, 10)]

    def test_path_must_match_endpoints(self):
        with pytest.raises(InvalidScheduleError):
            Call(source=0, path=(1, 2), receiver=2)
        with pytest.raises(InvalidScheduleError):
            Call(source=1, path=(1, 2), receiver=3)

    def test_single_vertex_path_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Call(source=1, path=(1,), receiver=1)

    def test_edges_are_canonical(self):
        c = Call.via((5, 3, 7))
        assert c.edges() == [(3, 5), (3, 7)]


class TestRound:
    def test_iteration_and_len(self):
        r = Round((Call.direct(0, 1), Call.direct(2, 3)))
        assert len(r) == 2
        assert [c.receiver for c in r] == [1, 3]

    def test_sources_receivers(self):
        r = Round((Call.direct(0, 1), Call.via((2, 3, 4))))
        assert r.sources() == [0, 2]
        assert r.receivers() == [1, 4]
        assert r.max_call_length() == 2

    def test_empty_round(self):
        r = Round(())
        assert len(r) == 0
        assert r.max_call_length() == 0


class TestSchedule:
    def make(self):
        return Schedule(
            source=0,
            rounds=[
                Round((Call.direct(0, 1),)),
                Round((Call.direct(0, 2), Call.via((1, 0, 3)))),
            ],
        )

    def test_counters(self):
        s = self.make()
        assert s.num_rounds == 2
        assert s.num_calls == 3
        assert s.max_call_length() == 2

    def test_informed_after(self):
        s = self.make()
        assert s.informed_after(0) == {0}
        assert s.informed_after(1) == {0, 1}
        assert s.all_informed() == {0, 1, 2, 3}

    def test_iter(self):
        s = self.make()
        assert [len(r) for r in s] == [1, 2]
