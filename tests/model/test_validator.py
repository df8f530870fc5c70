"""Unit tests for the Definition-1 validator — the repo's source of truth."""

import pytest

from repro.core.construct import construct_base
from repro.core.broadcast import broadcast_schedule
from repro.graphs.hypercube import hypercube
from repro.graphs.trees import path_graph, star
from repro.model.validator import (
    assert_valid_broadcast,
    minimum_broadcast_rounds,
    validate_broadcast,
    validate_round,
    verify_k_mlbg_via_scheme,
)
from repro.types import Call, InvalidScheduleError, Round, Schedule


class TestMinimumRounds:
    def test_values(self):
        assert minimum_broadcast_rounds(1) == 0
        assert minimum_broadcast_rounds(2) == 1
        assert minimum_broadcast_rounds(3) == 2
        assert minimum_broadcast_rounds(16) == 4
        assert minimum_broadcast_rounds(17) == 5

    def test_rejects_zero(self):
        with pytest.raises(InvalidScheduleError):
            minimum_broadcast_rounds(0)


class TestRoundValidation:
    def setup_method(self):
        self.g = star(5)  # centre 0, leaves 1..4

    def test_valid_relayed_calls(self):
        rnd = Round((Call.via((1, 0, 2)), Call.direct(0, 3)))
        errs = validate_round(self.g, rnd, informed={0, 1}, k=2)
        assert errs == []

    def test_edge_conflict_detected(self):
        # both calls traverse edge (0, 2)
        rnd = Round((Call.via((1, 0, 2)), Call.via((0, 2))))
        errs = validate_round(self.g, rnd, informed={0, 1}, k=2)
        assert any("receiver already targeted" in e or "edge" in e for e in errs)

    def test_receiver_conflict_detected(self):
        rnd = Round((Call.via((1, 0, 3)), Call.via((2, 0, 3))))
        errs = validate_round(self.g, rnd, informed={0, 1, 2}, k=2)
        assert any("receiver already targeted" in e for e in errs)

    def test_caller_must_be_informed(self):
        rnd = Round((Call.direct(1, 0),))
        errs = validate_round(self.g, rnd, informed={0}, k=2)
        assert any("not informed" in e for e in errs)

    def test_double_call_detected(self):
        rnd = Round((Call.direct(0, 1), Call.direct(0, 2)))
        errs = validate_round(self.g, rnd, informed={0}, k=2)
        assert any("second call" in e for e in errs)

    def test_length_bound(self):
        rnd = Round((Call.via((1, 0, 2)),))
        errs = validate_round(self.g, rnd, informed={1}, k=1)
        assert any("exceeds k" in e for e in errs)

    def test_non_path_rejected(self):
        rnd = Round((Call.via((1, 3)),))  # leaves not adjacent
        errs = validate_round(self.g, rnd, informed={1}, k=2)
        assert any("not a path" in e for e in errs)

    def test_already_informed_receiver(self):
        rnd = Round((Call.direct(0, 1),))
        errs = validate_round(self.g, rnd, informed={0, 1}, k=2)
        assert any("already informed" in e for e in errs)


class TestBroadcastValidation:
    def test_valid_binomial_on_q2(self):
        g = hypercube(2)
        sched = Schedule(
            source=0,
            rounds=[
                Round((Call.direct(0, 2),)),
                Round((Call.direct(0, 1), Call.direct(2, 3))),
            ],
        )
        rep = validate_broadcast(g, sched, 1)
        assert rep.ok
        assert rep.informed_per_round == [2, 4]

    def test_incomplete_detected(self):
        g = hypercube(2)
        sched = Schedule(
            source=0,
            rounds=[Round((Call.direct(0, 1),)), Round((Call.direct(0, 2),))],
        )
        rep = validate_broadcast(g, sched, 1)
        assert not rep.ok
        assert any("incomplete" in e for e in rep.errors)

    def test_minimum_time_enforced(self):
        g = path_graph(4)
        sched = Schedule(
            source=0, rounds=[Round((Call.direct(v - 1, v),)) for v in (1, 2, 3)]
        )
        rep = validate_broadcast(g, sched, 1)
        assert not rep.ok  # 3 rounds > ⌈log2 4⌉ = 2
        rep2 = validate_broadcast(g, sched, 1, require_minimum_time=False)
        assert rep2.ok

    def test_bad_source(self):
        g = path_graph(3)
        sched = Schedule(source=7)
        rep = validate_broadcast(g, sched, 1)
        assert not rep.ok

    def test_assert_raises(self):
        g = path_graph(4)
        sched = Schedule(source=0)
        with pytest.raises(InvalidScheduleError):
            assert_valid_broadcast(g, sched, 1)

    def test_max_call_length_reported(self):
        sh = construct_base(4, 2)
        sched = broadcast_schedule(sh, 0)
        rep = validate_broadcast(sh.graph, sched, 2)
        assert rep.max_call_length == 2


class TestKMlbgViaScheme:
    def test_g42_is_2mlbg(self):
        sh = construct_base(4, 2)
        assert verify_k_mlbg_via_scheme(sh)

    def test_sampled_sources(self):
        sh = construct_base(6, 2)
        assert verify_k_mlbg_via_scheme(sh, sources=[0, 21, 63])
