"""Unit tests for the k-line simulator (Definition 1 execution semantics)."""

import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.graphs.trees import star
from repro.model.simulator import LineNetworkSimulator
from repro.types import (
    Call,
    InvalidParameterError,
    InvalidScheduleError,
    Round,
    Schedule,
)


class TestExecuteRound:
    def setup_method(self):
        self.g = star(5)
        self.sim = LineNetworkSimulator(self.g, k=2, strict=False)

    def test_accepts_valid(self):
        rnd = Round((Call.via((1, 0, 2)), Call.direct(0, 3)))
        accepted, rejected = self.sim.execute_round(rnd, {0, 1})
        assert len(accepted) == 2 and not rejected

    def test_rejects_in_order(self):
        """Definition 1: a call fails when it conflicts with an earlier
        call of the same round — order matters."""
        first = Call.via((0, 2))
        second = Call.via((1, 0, 2))
        accepted, rejected = self.sim.execute_round(Round((first, second)), {0, 1})
        assert accepted == [first]
        assert rejected[0].call == second

    def test_strict_mode_raises(self):
        sim = LineNetworkSimulator(self.g, k=2, strict=True)
        rnd = Round((Call.via((0, 2)), Call.via((1, 0, 2))))
        with pytest.raises(InvalidScheduleError):
            sim.execute_round(rnd, {0, 1})

    def test_length_rejection(self):
        sim = LineNetworkSimulator(self.g, k=1, strict=False)
        _, rejected = sim.execute_round(Round((Call.via((1, 0, 2)),)), {1})
        assert rejected and "exceeds" in rejected[0].reason

    def test_uninformed_caller_rejected(self):
        _, rejected = self.sim.execute_round(Round((Call.direct(1, 0),)), {0})
        assert rejected and "not informed" in rejected[0].reason


class TestBandwidth:
    """The Section-5 extension: per-edge bandwidth b admits up to b
    simultaneous calls per edge (b = 1 is Definition 1)."""

    def setup_method(self):
        # path 0-1-2-3: calls 0→2 and 1→3?? need a shared edge with distinct
        # receivers: 0→3 (edges 01,12,23) and 1→2 (edge 12) share edge (1,2).
        from repro.graphs.trees import path_graph

        self.g = path_graph(4)
        self.a = Call.via((0, 1, 2, 3))  # 0 calls 3 through 1, 2
        self.b = Call.via((1, 2))        # 1 calls 2 — shares edge (1, 2)

    def test_bandwidth_one_rejects_shared_edge(self):
        sim = LineNetworkSimulator(self.g, k=3, bandwidth=1, strict=False)
        accepted, rejected = sim.execute_round(Round((self.a, self.b)), {0, 1})
        assert accepted == [self.a]
        assert len(rejected) == 1 and "bandwidth" in rejected[0].reason

    def test_bandwidth_two_admits_shared_edge(self):
        sim = LineNetworkSimulator(self.g, k=3, bandwidth=2, strict=False)
        accepted, rejected = sim.execute_round(Round((self.a, self.b)), {0, 1})
        assert len(accepted) == 2 and not rejected

    def test_receiver_constraint_survives_bandwidth(self):
        """Bandwidth relaxes edges only; single reception still holds."""
        c = Call.via((2, 3))
        sim = LineNetworkSimulator(self.g, k=3, bandwidth=4, strict=False)
        accepted, rejected = sim.execute_round(Round((self.a, c)), {0, 2})
        assert len(accepted) == 1
        assert rejected and "receiver" in rejected[0].reason

    def test_bandwidth_validation(self):
        with pytest.raises(InvalidScheduleError):
            LineNetworkSimulator(star(3), k=2, bandwidth=0)
        with pytest.raises(InvalidScheduleError):
            LineNetworkSimulator(star(3), k=0)


class TestFullRun:
    def test_broadcast_completes_on_scheme(self):
        sh = construct_base(5, 2)
        sim = LineNetworkSimulator(sh.graph, k=2)
        assert sim.broadcast_completes(broadcast_schedule(sh, 7))

    def test_statistics(self):
        sh = construct_base(5, 2)
        sched = broadcast_schedule(sh, 0)
        sim = LineNetworkSimulator(sh.graph, k=2)
        result = sim.run(sched)
        assert result.rounds_executed == 5
        assert result.informed_per_round[-1] == 32
        assert sum(result.call_length_histogram.values()) == 31
        assert max(result.max_edge_load_per_round) == 1  # Definition 1
        assert not result.rejected

    def test_doubling_profile_is_two(self):
        sh = construct_base(6, 3)
        sched = broadcast_schedule(sh, 11)
        sim = LineNetworkSimulator(sh.graph, k=2)
        profile = sim.run(sched).doubling_profile()
        assert all(abs(r - 2.0) < 1e-9 for r in profile)

    def test_k3_schedule_fails_at_k2_sim(self):
        sh = construct(3, 7, (2, 4))
        sched = broadcast_schedule(sh, 0)
        assert sched.max_call_length() == 3
        sim = LineNetworkSimulator(sh.graph, k=2, strict=False)
        result = sim.run(sched)
        assert result.rejected  # length-3 calls rejected at k=2

    def test_bad_source_rejected(self):
        sh = construct_base(4, 2)
        sim = LineNetworkSimulator(sh.graph, k=2)
        with pytest.raises(InvalidScheduleError):
            sim.run(Schedule(source=99))

    def test_non_schedule_input_rejected(self):
        """Regression: a ``ScheduleResult`` (whose ``rounds`` is an int)
        was taken for a schedule and crashed with a ``TypeError``."""
        from repro import api

        result = api.schedule("hypercube:3", "search", k=1)
        sim = LineNetworkSimulator(api.build_graph("hypercube:3"), k=1)
        with pytest.raises(InvalidParameterError, match="ScheduleResult"):
            sim.run(result)


class TestFastCompletionPath:
    """``broadcast_completes`` short-circuits through the bitset fast
    validator on bandwidth-1 valid schedules; anything flagged falls
    through to the exact per-call walk."""

    def test_valid_schedule_fast_path(self):
        sh = construct_base(5, 2)
        sim = LineNetworkSimulator(sh.graph, k=2)
        assert sim.broadcast_completes(broadcast_schedule(sh, 3))
        assert sim._fast_validator is not None  # the fast path engaged

    def test_invalid_schedule_still_raises_in_strict_mode(self):
        g = star(4)
        sim = LineNetworkSimulator(g, k=1, strict=True)
        # not a path; rejected
        sched = Schedule(source=0, rounds=[Round((Call.via((0, 1, 0)),))])
        with pytest.raises(InvalidScheduleError):
            sim.broadcast_completes(sched)

    def test_incomplete_schedule_lenient_mode(self):
        g = star(4)
        sim = LineNetworkSimulator(g, k=2, strict=False)
        sched = Schedule(source=0, rounds=[Round((Call.direct(0, 1),))])
        assert not sim.broadcast_completes(sched)

    def test_rejected_calls_can_still_complete(self):
        """A schedule the validator flags (receiver already informed) can
        still complete under lenient simulation — the fall-through must
        preserve that verdict."""
        g = star(4)
        sim = LineNetworkSimulator(g, k=2, strict=False)
        sched = Schedule(
            source=0,
            rounds=[
                Round((Call.direct(0, 1),)),
                Round((Call.direct(0, 2), Call.direct(1, 0))),  # 1->0 invalid
                Round((Call.direct(0, 3),)),
            ],
        )
        assert sim.broadcast_completes(sched)

    def test_bandwidth_two_skips_fast_path(self):
        sh = construct_base(4, 2)
        sim = LineNetworkSimulator(sh.graph, k=2, bandwidth=2)
        assert sim.broadcast_completes(broadcast_schedule(sh, 0))
        assert sim._fast_validator is None
