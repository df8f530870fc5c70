"""Property-based agreement for the batch all-sources engine.

Two pinned equivalences:

1. **Translated ≡ direct**: on randomly drawn ``(n, m)`` / ``(k, n,
   thresholds)`` constructions, every schedule the batch engine derives
   by XOR-translating a coset representative's call arrays materializes
   (caller-sorted) to exactly the schedule ``broadcast_schedule``
   generates for that source directly.

2. **List validation ≡ reference**: on schedules drawn from the real
   schemes and optionally corrupted by a structural mutation,
   ``api.validate`` on the whole list — the path every caller takes —
   returns the same verdict, the same error-string list, and the same
   statistics as the reference validator, for every schedule, with and
   without the vertex-disjoint variant.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.engine.batch import (
    all_sources_schedules,
    translation_group,
    validate_all_sources,
)
from repro.model.validator import validate_broadcast
from repro.types import Call, Round, Schedule

COMMON = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def constructions(draw):
    """A random small sparse hypercube: base (k=2) or recursive (k=3)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=3, max_value=6))
        m = draw(st.integers(min_value=1, max_value=n - 1))
        return construct_base(n, m)
    n = draw(st.integers(min_value=5, max_value=7))
    n1 = draw(st.integers(min_value=1, max_value=n - 3))
    n2 = draw(st.integers(min_value=n1 + 1, max_value=n - 1))
    return construct(3, n, (n1, n2))


# -- 1. translated ≡ direct --------------------------------------------------


@COMMON
@given(sh=constructions(), data=st.data())
def test_translated_schedules_equal_direct_generation(sh, data):
    n_sources = min(sh.n_vertices, 6)
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=sh.n_vertices - 1),
            min_size=1,
            max_size=n_sources,
            unique=True,
        )
    )
    stacks = all_sources_schedules(sh, sources=sources)
    seen = set()
    for stack in stacks:
        for i in range(stack.n_schedules):
            src = int(stack.sources[i])
            seen.add(src)
            assert stack.to_schedule(i, sort_calls=True) == broadcast_schedule(sh, src)
    assert seen == set(sources)


@COMMON
@given(sh=constructions())
def test_translation_group_preserves_edges(sh):
    edges = sh.graph.edge_set()
    for t in translation_group(sh).tolist():
        translated = {(min(u ^ t, v ^ t), max(u ^ t, v ^ t)) for u, v in edges}
        assert translated == edges


@COMMON
@given(sh=constructions())
def test_validate_all_sources_equals_per_source_loop(sh):
    outcome = validate_all_sources(sh)
    for s, ok, rounds, max_len in zip(
        outcome.sources, outcome.ok, outcome.rounds, outcome.max_call_lengths
    ):
        sched = broadcast_schedule(sh, s)
        ref = validate_broadcast(sh.graph, sched, sh.k)
        assert ok == ref.ok
        assert rounds == len(sched.rounds)
        assert max_len == ref.max_call_length


# -- 2. list validation ≡ reference under corruption --------------------------


def _mutate(g, sched, rng):
    """One random structural mutation (or none); returns the schedule."""
    mode = rng.randrange(7)
    if mode == 0:
        return sched  # untouched
    source, rounds = sched.source, list(sched.rounds)
    r = rng.randrange(len(rounds))
    calls = list(rounds[r].calls)
    if mode == 1 and calls:  # duplicate call: dup caller + edge + receiver
        calls.append(calls[rng.randrange(len(calls))])
    elif mode == 2 and calls:  # drop a call → incomplete broadcast
        calls.pop(rng.randrange(len(calls)))
    elif mode == 3 and calls:  # reversed call: uninformed caller
        c = calls[rng.randrange(len(calls))]
        calls.append(Call.via(tuple(reversed(c.path))))
    elif mode == 4:  # long path through the graph (may break V1/V2)
        u = rng.randrange(g.n_vertices)
        walk = [u]
        for _ in range(3):
            nbrs = g.sorted_neighbors(walk[-1])
            if not nbrs:
                break
            walk.append(nbrs[rng.randrange(len(nbrs))])
        if len(walk) > 1:
            calls.append(Call.via(walk))
    elif mode == 5:  # duplicated round
        rounds.append(rounds[r])
    elif mode == 6:  # bad source
        source = g.n_vertices + 1
    rounds[r] = Round(tuple(calls))
    return Schedule(source=source, rounds=rounds)


@COMMON
@given(
    sh=constructions(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertex_disjoint=st.booleans(),
)
def test_list_validation_equals_reference_under_corruption(sh, seed, vertex_disjoint):
    g = sh.graph
    rng = random.Random(seed)
    sources = [rng.randrange(g.n_vertices) for _ in range(4)]
    schedules = [_mutate(g, broadcast_schedule(sh, s), rng) for s in sources]
    reports = api.validate(g, schedules, sh.k, vertex_disjoint=vertex_disjoint)
    for sched, rep in zip(schedules, reports):
        ref = validate_broadcast(g, sched, sh.k, vertex_disjoint=vertex_disjoint)
        assert rep.ok == ref.ok
        assert rep.errors == ref.errors
        assert rep.rounds == ref.rounds
        assert rep.informed_per_round == ref.informed_per_round
        assert rep.max_call_length == ref.max_call_length
