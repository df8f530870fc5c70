"""Tests for Broadcast_2 / Broadcast_k (Theorems 4 and 6, machine-checked)."""

import pytest

from repro.core.broadcast import broadcast_2, broadcast_k, broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.domination.labeling import paper_example_labeling_q2
from repro.model.validator import validate_broadcast
from repro.types import InvalidParameterError


def paper_g42():
    return construct_base(
        4, 2, labeling=paper_example_labeling_q2(), partition=[(3,), (4,)]
    )


class TestFig4Reproduction:
    def test_first_round_matches_paper(self):
        """Example 4: 0000 calls 1010 through 0010."""
        sched = broadcast_schedule(paper_g42(), 0)
        calls = sched.rounds[0].calls
        assert len(calls) == 1
        assert calls[0].path == (0b0000, 0b0010, 0b1010)

    def test_second_round_matches_paper(self):
        """Example 4: 0000→0100 (direct) and 1010→1111 via 1011."""
        sched = broadcast_schedule(paper_g42(), 0)
        calls = sched.rounds[1].calls
        paths = {c.path for c in calls}
        assert (0b0000, 0b0100) in paths
        assert (0b1010, 0b1011, 0b1111) in paths

    def test_phase2_fills_subcubes(self):
        """Final two rounds inform each 2-subcube via direct calls."""
        sched = broadcast_schedule(paper_g42(), 0)
        for rnd in sched.rounds[2:]:
            assert all(c.length == 1 for c in rnd)


class TestTheorem4:
    """Broadcast_2 is a valid minimum-time 2-line scheme, all sources."""

    @pytest.mark.parametrize(
        "n,m", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 4)]
    )
    def test_all_sources_minimum_time(self, n, m):
        sh = construct_base(n, m)
        g = sh.graph
        for s in range(g.n_vertices):
            sched = broadcast_2(sh, s)
            rep = validate_broadcast(g, sched, 2)
            assert rep.ok, (n, m, s, rep.errors[:3])
            assert len(sched.rounds) == n

    def test_exact_doubling(self):
        """N = 2^n: the informed count must exactly double every round."""
        sh = construct_base(6, 2)
        sched = broadcast_schedule(sh, 17)
        rep = validate_broadcast(sh.graph, sched, 2)
        assert rep.informed_per_round == [2, 4, 8, 16, 32, 64]

    def test_broadcast_2_rejects_k3_construction(self):
        sh = construct(3, 7, (2, 4))
        with pytest.raises(InvalidParameterError):
            broadcast_2(sh, 0)

    def test_source_range_check(self):
        with pytest.raises(InvalidParameterError):
            broadcast_schedule(construct_base(4, 2), 16)


class TestTheorem6:
    """Broadcast_k is a valid minimum-time k-line scheme."""

    @pytest.mark.parametrize(
        "k,n,thr",
        [
            (3, 5, (2, 3)),
            (3, 7, (2, 4)),
            (4, 7, (2, 4, 5)),
            (4, 9, (2, 4, 6)),
            (5, 9, (1, 3, 5, 7)),
        ],
    )
    def test_all_sources_minimum_time(self, k, n, thr):
        sh = construct(k, n, thr)
        g = sh.graph
        for s in range(g.n_vertices):
            sched = broadcast_k(sh, s)
            rep = validate_broadcast(g, sched, k)
            assert rep.ok, (k, n, thr, s, rep.errors[:3])
            assert len(sched.rounds) == n

    def test_call_length_profile(self):
        """Rounds for level-t dims may use calls up to length t; core
        rounds are all direct."""
        k, n, thr = 4, 9, (2, 4, 6)
        sh = construct(k, n, thr)
        sched = broadcast_schedule(sh, 0)
        # rounds are dims n..1 in order; dims 1..2 are the last two rounds
        for rnd in sched.rounds[-sh.base_dims :]:
            assert all(c.length == 1 for c in rnd)
        assert sched.max_call_length() <= k

    def test_property1_monotonicity(self):
        """Property 1: a valid k-line scheme is a valid (k+1)-line scheme."""
        sh = construct(3, 7, (2, 4))
        sched = broadcast_schedule(sh, 99)
        for k in (3, 4, 5, 10):
            assert validate_broadcast(sh.graph, sched, k).ok

    def test_schedule_covers_every_vertex_exactly_once(self):
        sh = construct(3, 7, (2, 4))
        sched = broadcast_schedule(sh, 0)
        receivers = [c.receiver for rnd in sched.rounds for c in rnd]
        assert len(receivers) == len(set(receivers)) == sh.n_vertices - 1

    def test_phase1_prefix_doubling_invariant(self):
        """After the round for dimension i, the informed set realizes every
        pattern of bits n..i exactly once (Theorem 4's proof invariant)."""
        sh = construct_base(6, 2)
        sched = broadcast_schedule(sh, 45)
        informed = {45}
        for idx, rnd in enumerate(sched.rounds[: 6 - 2]):
            dim = 6 - idx  # rounds go n down to m+1
            informed |= {c.receiver for c in rnd}
            prefixes = [u >> (dim - 1) for u in informed]
            assert sorted(prefixes) == list(range(1 << (6 - dim + 1)))


class TestCallOrderPinned:
    """broadcast_schedule keeps ``informed`` sorted across rounds instead
    of re-sorting per round; the emitted call order must stay the
    deterministic ascending-caller order of the original implementation."""

    def test_rounds_are_in_ascending_caller_order(self):
        for sh in (construct_base(6, 3), construct(3, 7, (2, 4))):
            for source in (0, 1, sh.n_vertices - 1, 45 % sh.n_vertices):
                sched = broadcast_schedule(sh, source)
                for rnd in sched.rounds:
                    sources = [c.source for c in rnd]
                    assert sources == sorted(sources)

    def test_matches_per_round_resort_reference(self):
        """Recompute the schedule with the pre-fix per-round ``sorted()``
        logic and pin exact equality."""
        from repro.core.routing import reach_and_flip
        from repro.types import Call, Round, Schedule
        from repro.util.bits import flip_dim

        def reference(sh, source):
            rounds = []
            informed = [source]
            for dim in range(sh.n, sh.base_dims, -1):
                calls = [Call.via(reach_and_flip(sh, w, dim)) for w in sorted(informed)]
                rounds.append(Round(tuple(calls)))
                informed.extend(c.receiver for c in calls)
            for dim in range(sh.base_dims, 0, -1):
                calls = [Call.direct(w, flip_dim(w, dim)) for w in sorted(informed)]
                rounds.append(Round(tuple(calls)))
                informed.extend(c.receiver for c in calls)
            return Schedule(source=source, rounds=rounds)

        for sh in (construct_base(5, 2), construct(3, 7, (2, 4))):
            for source in (0, 3, sh.n_vertices - 1):
                assert broadcast_schedule(sh, source) == reference(sh, source)

    def test_phase1_round_calls_iterates_in_given_order(self):
        sh = construct_base(4, 2)
        sched = broadcast_schedule(sh, 0)
        first = sched.rounds[0].calls
        # callers [0] then [0, r] sorted — the function must not re-sort,
        # so a reversed informed list yields reversed call order
        informed = [0, first[0].receiver]
        from repro.core.broadcast import phase1_round_calls

        forward = phase1_round_calls(sh, informed, sh.n - 1)
        backward = phase1_round_calls(sh, list(reversed(informed)), sh.n - 1)
        assert [p[0] for p in forward] == [p[0] for p in reversed(backward)]
