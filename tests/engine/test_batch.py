"""Unit tests for the batch all-sources engine (`repro.engine.batch`)."""

import numpy as np
import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.engine import batch
from repro.engine.batch import (
    all_sources_schedules,
    coset_representatives,
    translation_group,
    validate_all_sources,
)
from repro.model.validator_fast import flatten_frame
from repro.model.validator import validate_broadcast
from repro.types import (
    Call,
    InvalidParameterError,
    InvalidScheduleError,
    Round,
    Schedule,
)


def _instances():
    return [
        construct_base(4, 2),
        construct_base(5, 3),
        construct(3, 7, (2, 4)),
    ]


class TestTranslationGroup:
    def test_contains_identity_and_free_dimensions(self):
        sh = construct_base(5, 2)
        group = set(translation_group(sh).tolist())
        assert 0 in group
        # translations supported above the last threshold are always in T
        for t in range(1 << (sh.n - sh.thresholds[-1])):
            assert (t << sh.thresholds[-1]) in group

    @pytest.mark.parametrize("sh", _instances(), ids=lambda s: f"n{s.n}k{s.k}")
    def test_subgroup_and_edge_preservation(self, sh):
        group = translation_group(sh)
        members = set(group.tolist())
        for a in group[:8]:
            for b in group[:8]:
                assert int(a ^ b) in members
        edges = sh.graph.edge_set()
        for t in group.tolist():
            assert {(min(u ^ t, v ^ t), max(u ^ t, v ^ t)) for u, v in edges} == edges

    @pytest.mark.parametrize("sh", _instances(), ids=lambda s: f"n{s.n}k{s.k}")
    def test_cosets_partition_the_vertices(self, sh):
        group = translation_group(sh)
        reps = coset_representatives(sh.n_vertices, group)
        seen = set()
        for r in reps:
            coset = {int(r ^ t) for t in group.tolist()}
            assert not (coset & seen)
            seen |= coset
        assert seen == set(range(sh.n_vertices))
        assert len(reps) * group.size == sh.n_vertices


class TestAllSourcesSchedules:
    @pytest.mark.parametrize("sh", _instances(), ids=lambda s: f"n{s.n}k{s.k}")
    def test_translated_equals_direct_generation(self, sh):
        stacks = all_sources_schedules(sh)
        assert sum(s.n_schedules for s in stacks) == sh.n_vertices
        for stack in stacks:
            for i in range(stack.n_schedules):
                src = int(stack.sources[i])
                assert stack.to_schedule(i, sort_calls=True) == broadcast_schedule(
                    sh, src
                )

    def test_restricted_sources(self):
        sh = construct_base(6, 3)
        wanted = [0, 7, 63]
        stacks = all_sources_schedules(sh, sources=wanted)
        got = sorted(int(s) for stack in stacks for s in stack.sources)
        assert got == wanted

    def test_row_index_and_missing_source(self):
        sh = construct_base(4, 2)
        (stack, *_rest) = all_sources_schedules(sh, sources=[3])
        assert int(stack.sources[stack.row_index(3)]) == 3
        with pytest.raises(InvalidParameterError):
            stack.row_index(5)

    def test_out_of_range_sources_rejected(self):
        """Same error class and message shape as broadcast_schedule."""
        sh = construct_base(4, 2)
        for bad in ([sh.n_vertices], [-1], [0, 99]):
            with pytest.raises(InvalidParameterError, match="out of range"):
                all_sources_schedules(sh, sources=bad)
            with pytest.raises(InvalidParameterError, match="out of range"):
                validate_all_sources(sh, sources=bad)

    def test_empty_source_list_gives_no_stacks(self):
        sh = construct_base(4, 2)
        assert all_sources_schedules(sh, sources=[]) == []

    def test_generator_sources_accepted(self):
        sh = construct_base(4, 2)
        outcome = validate_all_sources(sh, sources=iter([2, 7]))
        assert outcome.sources == [2, 7]
        assert outcome.all_ok


class TestStackSchedules:
    def test_row_frames_share_the_stack_layout(self):
        sh = construct_base(4, 2)
        (stack, *_rest) = all_sources_schedules(sh)
        for i in (0, stack.n_schedules - 1):
            layout, flat = flatten_frame(stack.to_frame(i))
            assert layout is stack.layout
            assert np.array_equal(flat, stack.flat[i])

    def test_sort_calls_rejects_a_repeated_caller(self):
        """Two calls from one caller in a round: no caller order exists."""
        sched = Schedule(source=0, rounds=[Round((Call.via((0, 1)), Call.via((0, 2))))])
        layout, flat = flatten_frame(sched.to_frame())
        stack = batch.StackedSchedules(
            layout=layout, sources=np.array([0]), flat=flat[None, :]
        )
        assert stack.to_frame(0).n_calls == 2  # stored order is fine
        with pytest.raises(InvalidScheduleError, match="two calls from one caller"):
            stack.to_frame(0, sort_calls=True)

    def test_flatten_layout_key_discriminates(self):
        sh = construct_base(4, 2)
        a = broadcast_schedule(sh, 0)
        b = Schedule(source=0, rounds=a.rounds[:-1])
        la, _ = flatten_frame(a.to_frame())
        lb, _ = flatten_frame(b.to_frame())
        assert la.key() != lb.key()


class TestValidateAllSources:
    @pytest.mark.parametrize("sh", _instances(), ids=lambda s: f"n{s.n}k{s.k}")
    def test_matches_per_source_loop(self, sh):
        outcome = validate_all_sources(sh)
        assert outcome.sources == list(range(sh.n_vertices))
        assert outcome.n_fallback == 0
        for s in range(0, sh.n_vertices, max(1, sh.n_vertices // 8)):
            sched = broadcast_schedule(sh, s)
            ref = validate_broadcast(sh.graph, sched, sh.k)
            i = outcome.sources.index(s)
            assert outcome.ok[i] == ref.ok
            assert outcome.rounds[i] == len(sched.rounds)
            assert outcome.max_call_lengths[i] == ref.max_call_length

    def test_source_order_follows_request(self):
        sh = construct_base(5, 2)
        outcome = validate_all_sources(sh, sources=[9, 0, 4])
        assert outcome.sources == [9, 0, 4]
        assert outcome.all_ok

    @pytest.mark.parametrize(
        "sh", [construct_base(5, 3), construct(3, 7, (2, 4))], ids=["n5k2", "n7k3"]
    )
    def test_failing_translations_fall_back_to_direct_generation(self, sh, monkeypatch):
        """Pretend every XOR translation is an automorphism: the rows it
        derives outside the real group fail, and each must be regenerated
        directly so verdicts still equal the per-source reference loop."""
        assert translation_group(sh).size < sh.n_vertices
        monkeypatch.setattr(
            batch,
            "translation_group",
            lambda s: np.arange(s.n_vertices, dtype=np.int64),
        )
        outcome = validate_all_sources(sh)
        assert outcome.n_cosets == 1
        assert outcome.n_fallback > 0
        for s, ok, rounds, max_len in zip(
            outcome.sources, outcome.ok, outcome.rounds, outcome.max_call_lengths
        ):
            sched = broadcast_schedule(sh, s)
            ref = validate_broadcast(sh.graph, sched, sh.k)
            assert (ok, rounds, max_len) == (
                ref.ok,
                len(sched.rounds),
                ref.max_call_length,
            )

    def test_coset_stats(self):
        sh = construct_base(5, 2)
        outcome = validate_all_sources(sh)
        group = translation_group(sh)
        assert outcome.n_cosets == sh.n_vertices // group.size
        assert outcome.n_stacks >= 1


class TestStackedRepresentation:
    def test_flat_rows_are_xor_translations_within_cosets(self):
        sh = construct_base(4, 2)
        group = set(translation_group(sh).tolist())
        checked = 0
        for stack in all_sources_schedules(sh):
            base = stack.flat[0]
            base_src = int(stack.sources[0])
            for i in range(stack.n_schedules):
                t = int(stack.sources[i]) ^ base_src
                if t in group:  # same coset as row 0 (stacks can merge cosets)
                    assert np.array_equal(stack.flat[i], base ^ t)
                    checked += 1
        assert checked > 1
