"""The bitset fast-path validator against the reference oracle.

Deterministic cases: valid schedules from the real schemes, plus
hand-built corruptions that trigger each Definition-1 violation class
with a known *first* error.  The property tests in
``tests/property/test_validator_fast_property.py`` add randomized
agreement coverage.
"""

import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.graphs.base import Graph
from repro.graphs.hypercube import hypercube
from repro.model.validator import validate_broadcast
from repro.model.validator_fast import (
    ERROR_CLASSES,
    FastValidator,
    classify_error,
    validate_broadcast_fast,
)
from repro.schedulers.store_forward import binomial_hypercube_broadcast
from repro.types import Call, Round, Schedule


def assert_agreement(graph, schedule, k, **kwargs):
    """Both validators: same verdict, same error strings, same stats."""
    ref = validate_broadcast(graph, schedule, k, **kwargs)
    fast = validate_broadcast_fast(graph, schedule, k, **kwargs)
    assert fast.ok == ref.ok
    assert fast.errors == ref.errors
    assert fast.rounds == ref.rounds
    assert fast.informed_per_round == ref.informed_per_round
    assert fast.max_call_length == ref.max_call_length
    return ref, fast


# A 4-vertex diamond: 0-1, 0-2, 2-3, 1-3.  Minimum-time broadcast from 0
# takes 2 rounds; the corruption fixtures below each flip exactly one
# Definition-1 condition first.
def diamond() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (2, 3), (1, 3)])


def sched(rounds: list[list[tuple[int, ...]]], source: int = 0) -> Schedule:
    s = Schedule(source=source)
    for rnd in rounds:
        s.rounds.append(Round(tuple(Call.via(path) for path in rnd)))
    return s


class TestValidSchedules:
    def test_diamond_minimum_time(self):
        ref, fast = assert_agreement(diamond(), sched([[(0, 1)], [(0, 2), (1, 3)]]), 1)
        assert fast.ok
        assert fast.informed_per_round == [2, 4]

    def test_hypercube_binomial(self):
        for n in (1, 2, 4, 6, 8):
            g = hypercube(n)
            s = binomial_hypercube_broadcast(n, 0)
            _, fast = assert_agreement(g, s, 1)
            assert fast.ok

    def test_sparse_hypercube_schemes(self):
        for n, m in ((4, 2), (6, 3), (8, 3)):
            sh = construct_base(n, m)
            validator = FastValidator(sh.graph)
            for src in (0, sh.n_vertices - 1):
                s = broadcast_schedule(sh, src)
                ref = validate_broadcast(sh.graph, s, 2)
                fast = validator.validate(s, 2)
                assert ref.ok and fast.ok
                assert fast.informed_per_round == ref.informed_per_round

    def test_broadcast_k_scheme(self):
        sh = construct(3, 7, (2, 4))
        s = broadcast_schedule(sh, 5)
        _, fast = assert_agreement(sh.graph, s, 3)
        assert fast.ok

    def test_single_vertex_graph(self):
        g = Graph(1)
        _, fast = assert_agreement(g, Schedule(source=0), 1)
        assert fast.ok

    def test_validator_reuse_across_schedules(self):
        sh = construct_base(5, 2)
        validator = FastValidator(sh.graph)
        for src in range(0, 32, 7):
            s = broadcast_schedule(sh, src)
            assert validator.validate(s, 2).ok


class TestFirstErrorClasses:
    """Each corruption triggers its class as the *first* error in both
    validators (the satellite's shared-edge / shared-receiver /
    uninformed-caller / over-length quartet)."""

    def test_shared_edge_first(self):
        # both length-2 calls traverse edge {2,3}
        s = sched([[(0, 1)], [(0, 2, 3), (1, 3, 2)]])
        ref, fast = assert_agreement(diamond(), s, 2)
        assert not fast.ok
        assert classify_error(ref.errors[0]) == "shared-edge"
        assert classify_error(fast.errors[0]) == "shared-edge"

    def test_shared_receiver_first(self):
        s = sched([[(0, 1)], [(0, 2, 3), (1, 3)]])
        ref, fast = assert_agreement(diamond(), s, 2)
        assert not fast.ok
        assert classify_error(fast.errors[0]) == "shared-receiver"

    def test_uninformed_caller_first(self):
        s = sched([[(0, 1)], [(0, 2), (3, 1)]])
        ref, fast = assert_agreement(diamond(), s, 1)
        assert not fast.ok
        assert classify_error(fast.errors[0]) == "uninformed-caller"

    def test_over_length_first(self):
        # valid at k=2, over-length at k=1
        s = sched([[(0, 2, 3)], [(0, 1), (3, 2)]])
        assert validate_broadcast_fast(diamond(), s, 2).ok
        ref, fast = assert_agreement(diamond(), s, 1)
        assert not fast.ok
        assert classify_error(fast.errors[0]) == "over-length"

    def test_duplicate_caller_first(self):
        s = sched([[(0, 1)], [(0, 2), (0, 2)]])
        _, fast = assert_agreement(diamond(), s, 1)
        assert classify_error(fast.errors[0]) == "duplicate-caller"

    def test_receiver_informed_first(self):
        s = sched([[(0, 1)], [(0, 1), (1, 3)]])
        _, fast = assert_agreement(diamond(), s, 1)
        assert classify_error(fast.errors[0]) == "receiver-informed"

    def test_bad_path_first(self):
        s = sched([[(0, 1)], [(0, 3), (1, 3)]])  # 0-3 is not an edge
        _, fast = assert_agreement(diamond(), s, 1)
        assert classify_error(fast.errors[0]) == "bad-path"

    def test_incomplete_first(self):
        s = sched([[(0, 1)], [(0, 2)]])
        _, fast = assert_agreement(diamond(), s, 1)
        assert classify_error(fast.errors[0]) == "incomplete"

    def test_not_minimum_time_first(self):
        s = sched([[(0, 1)], [(0, 2)], [(1, 3)]])
        _, fast = assert_agreement(diamond(), s, 1)
        assert classify_error(fast.errors[0]) == "not-minimum-time"
        # and accepted when minimum time is not required
        relaxed = validate_broadcast_fast(diamond(), s, 1, require_minimum_time=False)
        assert relaxed.ok

    def test_bad_source(self):
        s = Schedule(source=9)
        _, fast = assert_agreement(diamond(), s, 1)
        assert classify_error(fast.errors[0]) == "bad-source"


class TestVertexDisjointMode:
    def test_tree_scheme_disagrees_only_on_strictness(self):
        from repro.core.tree_scheme import ternary_tree_schedule
        from repro.graphs.trees import balanced_ternary_core_tree

        h = 3
        tree = balanced_ternary_core_tree(h)
        s = ternary_tree_schedule(h, 0)
        loose_ref, loose_fast = assert_agreement(tree, s, 2 * h)
        assert loose_fast.ok
        strict_ref, strict_fast = assert_agreement(tree, s, 2 * h, vertex_disjoint=True)
        assert not strict_fast.ok
        assert classify_error(strict_fast.errors[0]) == "shared-vertex"

    def test_sparse_scheme_is_vertex_disjoint(self):
        sh = construct_base(6, 2)
        s = broadcast_schedule(sh, 0)
        _, fast = assert_agreement(sh.graph, s, 2, vertex_disjoint=True)
        assert fast.ok


class TestClassifier:
    def test_all_classes_known(self):
        assert len(set(ERROR_CLASSES)) == len(ERROR_CLASSES)

    def test_unclassifiable_raises(self):
        with pytest.raises(ValueError):
            classify_error("some novel failure")


class TestPerformanceContract:
    def test_fast_beats_reference_on_bench_workload(self):
        """The acceptance bar: ≥5× on the bench_perf_primitives workload
        (construct_base(12, 4) schedule validation, warm validator)."""
        import time

        sh = construct_base(12, 4)
        g = sh.graph
        s = broadcast_schedule(sh, 0)
        validator = FastValidator(g)
        # warm both paths once
        assert validator.validate(s, 2).ok
        assert validate_broadcast(g, s, 2).ok

        def best_of(fn, reps=5):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        t_ref = best_of(lambda: validate_broadcast(g, s, 2))
        t_fast = best_of(lambda: validator.validate(s, 2))
        assert t_ref / t_fast >= 5.0, f"speedup only {t_ref / t_fast:.1f}x"
