"""Property-based agreement: fast-path validator ≡ reference validator.

Strategy: generate *valid* schedules from the real schemes (randomly
drawn construction parameters and sources), then corrupt them with two
or three randomly chosen structural mutations applied in sequence
(shared-edge / duplicate caller, shared-receiver, uninformed-caller,
over-length, bad-path, a call reusing its own edge, a call preceded by
an invalid-path attempt from the same caller, dropped/duplicated
rounds).  Every instance is validated as an object schedule and as a
``ScheduleFrame`` (the form ``/v1/validate`` decodes to), in both the
edge-disjoint and the vertex-disjoint model; the fast validator must
return the reference's verdict, error-string list (hence first error
class) and statistics on each.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.model.validator import validate_broadcast
from repro.model.validator_fast import (
    ERROR_CLASSES,
    FastValidator,
    classify_error,
)
from repro.types import Call, Round, Schedule

COMMON = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def replace_round(sched: Schedule, idx: int, calls: tuple[Call, ...]) -> Schedule:
    """A new schedule: ``sched`` with round ``idx`` holding ``calls``."""
    rounds = list(sched.rounds)
    rounds[idx] = Round(calls)
    return Schedule(source=sched.source, rounds=rounds)


# -- mutations: each returns (schedule, k) ----------------------------------

def mut_identity(g, sched, k, rng):
    return sched, k


def mut_duplicate_call(g, sched, k, rng):
    """Same caller, path and receiver twice → duplicate caller + shared
    edge + shared receiver, all in one round."""
    r = rng.randrange(len(sched.rounds))
    calls = sched.rounds[r].calls
    if not calls:
        return sched, k
    return replace_round(sched, r, calls + (calls[rng.randrange(len(calls))],)), k


def mut_reverse_call(g, sched, k, rng):
    """Reversed path: the new caller is the just-informed receiver."""
    r = rng.randrange(len(sched.rounds))
    calls = list(sched.rounds[r].calls)
    if not calls:
        return sched, k
    i = rng.randrange(len(calls))
    calls[i] = Call.via(tuple(reversed(calls[i].path)))
    return replace_round(sched, r, tuple(calls)), k


def mut_drop_round(g, sched, k, rng):
    """Removing a round breaks completeness and/or minimum time, and can
    leave later callers uninformed."""
    rounds = list(sched.rounds)
    if len(rounds) <= 1:
        return sched, k
    del rounds[rng.randrange(len(rounds))]
    return Schedule(source=sched.source, rounds=rounds), k


def mut_swap_rounds(g, sched, k, rng):
    """Swapping adjacent rounds makes later-phase callers uninformed."""
    rounds = list(sched.rounds)
    if len(rounds) < 2:
        return sched, k
    r = rng.randrange(len(rounds) - 1)
    rounds[r], rounds[r + 1] = rounds[r + 1], rounds[r]
    return Schedule(source=sched.source, rounds=rounds), k


def mut_shrink_k(g, sched, k, rng):
    """Over-length corruption: validate under a smaller call bound."""
    return sched, max(1, k - 1)


def mut_bad_path(g, sched, k, rng):
    """Replace one call's path with a non-edge hop."""
    n = g.n_vertices
    non_edge = None
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                non_edge = (u, v)
                break
        if non_edge:
            break
    if non_edge is None:  # complete graph; nothing to corrupt
        return sched, k
    r = rng.randrange(len(sched.rounds))
    calls = list(sched.rounds[r].calls)
    if not calls:
        return sched, k
    calls[rng.randrange(len(calls))] = Call.via(non_edge)
    return replace_round(sched, r, tuple(calls)), k


def mut_echo_previous_round(g, sched, k, rng):
    """Copy a round-r call into round r+1: its receiver is already
    informed there (and the caller may place a second call)."""
    if len(sched.rounds) < 2:
        return sched, k
    r = rng.randrange(len(sched.rounds) - 1)
    prev = sched.rounds[r].calls
    if not prev:
        return sched, k
    echo = prev[rng.randrange(len(prev))]
    return replace_round(sched, r + 1, sched.rounds[r + 1].calls + (echo,)), k


def mut_reuse_own_edge(g, sched, k, rng):
    """Turn a call ``a -> b -> ...`` into ``(a, b, a)``: it crosses its
    own first edge twice and calls back its own (informed) caller."""
    r = rng.randrange(len(sched.rounds))
    calls = list(sched.rounds[r].calls)
    if not calls:
        return sched, k
    i = rng.randrange(len(calls))
    a, b = calls[i].path[:2]
    calls[i] = Call.via((a, b, a))
    return replace_round(sched, r, tuple(calls)), k


def mut_failed_attempt_first(g, sched, k, rng):
    """Precede a call ``a -> ... -> b`` with ``(a, a, ..., b)``: same
    caller, receiver, edges and vertices, but a self-loop hop makes the
    path invalid, so the reference reports only that and the real call
    after it stays clean."""
    r = rng.randrange(len(sched.rounds))
    calls = list(sched.rounds[r].calls)
    if not calls:
        return sched, k
    i = rng.randrange(len(calls))
    path = calls[i].path
    calls.insert(i, Call.via((path[0], *path)))
    return replace_round(sched, r, tuple(calls)), k


MUTATIONS = [
    mut_identity,
    mut_duplicate_call,
    mut_reverse_call,
    mut_drop_round,
    mut_swap_rounds,
    mut_shrink_k,
    mut_bad_path,
    mut_echo_previous_round,
    mut_reuse_own_edge,
    mut_failed_attempt_first,
]


def mutate(g, sched, mut_idxs, rng):
    """Apply the mutations in order; returns the schedule and its k."""
    k = 2
    for idx in mut_idxs:
        sched, k = MUTATIONS[idx](g, sched, k, rng)
    return sched, k


def assert_agreement(validator, g, sched, k):
    """Fast ≡ reference on the object schedule and on its frame, in both
    models; returns the reference reports (edge-, then vertex-disjoint)."""
    refs = []
    frame = sched.to_frame()
    for vertex_disjoint in (False, True):
        ref = validate_broadcast(g, sched, k, vertex_disjoint=vertex_disjoint)
        for given_as in (sched, frame):
            fast = validator.validate(given_as, k, vertex_disjoint=vertex_disjoint)
            assert fast.ok == ref.ok
            assert fast.errors == ref.errors
            assert fast.rounds == ref.rounds
            assert fast.informed_per_round == ref.informed_per_round
            assert fast.max_call_length == ref.max_call_length
            if not ref.ok:
                # identical error lists ⇒ identical first error class;
                # asserted explicitly since the class is the contract
                assert classify_error(fast.errors[0]) == classify_error(ref.errors[0])
        refs.append(ref)
    return refs


class TestFastValidatorAgreement:
    @COMMON
    @given(
        n=st.integers(3, 6),
        m_seed=st.integers(0, 10**6),
        src_seed=st.integers(0, 10**6),
        mut_idxs=st.lists(st.integers(0, len(MUTATIONS) - 1), min_size=2, max_size=3),
        rng_seed=st.integers(0, 10**6),
    )
    def test_same_verdict_and_errors(self, n, m_seed, src_seed, mut_idxs, rng_seed):
        m = 1 + m_seed % (n - 1)
        sh = construct_base(n, m)
        g = sh.graph
        sched = broadcast_schedule(sh, src_seed % g.n_vertices)
        mutated, k = mutate(g, sched, mut_idxs, random.Random(rng_seed))
        ref, _ref_vd = assert_agreement(FastValidator(g), g, mutated, k)
        if not any(mut_idxs):
            assert ref.ok  # the schemes generate valid schedules

    @COMMON
    @given(
        n=st.integers(3, 6),
        m_seed=st.integers(0, 10**6),
        src_seed=st.integers(0, 10**6),
    )
    def test_vertex_disjoint_agreement(self, n, m_seed, src_seed):
        m = 1 + m_seed % (n - 1)
        sh = construct_base(n, m)
        g = sh.graph
        sched = broadcast_schedule(sh, src_seed % g.n_vertices)
        validator = FastValidator(g)
        for vertex_disjoint in (False, True):
            ref = validate_broadcast(g, sched, 2, vertex_disjoint=vertex_disjoint)
            fast = validator.validate(sched, 2, vertex_disjoint=vertex_disjoint)
            assert fast.ok == ref.ok
            assert fast.errors == ref.errors


# Seeds 0..39, each composing 2-3 mutations, on sparse hypercubes with
# n = 3..6: together they make the reference report every error class
# except bad-source (which has its own unit test).
COVERAGE_SEEDS = range(40)


def test_every_error_class_is_reached_with_agreement():
    seen = set()
    for seed in COVERAGE_SEEDS:
        rng = random.Random(seed)
        n = 3 + seed % 4
        sh = construct_base(n, 1 + rng.randrange(n - 1))
        g = sh.graph
        sched = broadcast_schedule(sh, rng.randrange(g.n_vertices))
        mut_idxs = [rng.randrange(1, len(MUTATIONS)) for _ in range(2 + seed % 2)]
        mutated, k = mutate(g, sched, mut_idxs, rng)
        for ref in assert_agreement(FastValidator(g), g, mutated, k):
            seen.update(classify_error(e) for e in ref.errors)
    assert seen == set(ERROR_CLASSES) - {"bad-source"}

