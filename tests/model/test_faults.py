"""Tests for edge-failure injection and broadcast repair (E19)."""

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.core.routing import reach_and_flip
from repro.model.faults import (
    attempt_broadcast_with_failures,
    failed_edge_sample,
    reach_and_flip_avoiding,
    remove_edges,
)
from repro.model.validator import validate_broadcast
from repro.types import canonical_edge


class TestPrimitives:
    def test_remove_edges(self):
        sh = construct_base(4, 2)
        g = sh.graph
        e = next(iter(g.edges()))
        for failed in ({e}, {(e[1], e[0])}):  # either orientation
            g2 = remove_edges(g, failed)
            assert g2.n_edges == g.n_edges - 1
            assert not g2.has_edge(*e)

    def test_failed_sample_deterministic(self):
        g = construct_base(5, 2).graph
        assert failed_edge_sample(g, 4, seed=3) == failed_edge_sample(g, 4, seed=3)
        assert len(failed_edge_sample(g, 4, seed=3)) == 4

    def test_sample_capped_at_edge_count(self):
        g = construct_base(3, 1).graph
        assert len(failed_edge_sample(g, 10_000, seed=0)) == g.n_edges


class TestAvoidingRouter:
    def test_no_failures_matches_plain_routing(self):
        sh = construct_base(6, 2)
        for u in range(0, 64, 5):
            for dim in range(1, 7):
                assert reach_and_flip_avoiding(sh, u, dim, set()) == reach_and_flip(
                    sh, u, dim
                )

    def test_perfect_labeling_has_no_relay_redundancy(self):
        """With the Hamming labeling every label appears *exactly once* in
        each closed neighbourhood, so a failed relay edge cannot be routed
        around at call length 2 — perfection is fragility."""
        sh = construct_base(6, 3)
        for u in range(64):
            for dim in range(4, 7):
                path = reach_and_flip(sh, u, dim)
                if len(path) == 3:
                    first_edge = canonical_edge(path[0], path[1])
                    assert reach_and_flip_avoiding(sh, u, dim, {first_edge}) is None
                    return
        raise AssertionError("no relayed call found")

    def test_lemma2_tiling_repairs_failed_direct_edge(self):
        """The Lemma-2 tiling duplicates each vertex's own label across
        tiles (the tiling dimension keeps the sub-syndrome), so a failed
        *direct* Rule-2 edge reroutes via the tiling dimension."""
        sh = construct_base(7, 4)  # m = 4: lemma2 labeling, m' = 3
        found = 0
        for u in range(128):
            for dim in range(5, 8):
                path = reach_and_flip(sh, u, dim)
                if len(path) == 2:  # direct call
                    e = canonical_edge(*path)
                    alt = reach_and_flip_avoiding(sh, u, dim, {e})
                    if alt is not None:
                        assert len(alt) == 3
                        assert alt[-1] != path[-1] or alt != path
                        found += 1
                        if found >= 3:
                            return
        assert found > 0, "no repairable direct call found"

    def test_redundant_labeling_gives_relay_fallback(self):
        """A deliberately redundant Condition-A labeling (two relay
        candidates per miss) makes failed relay first-edges repairable."""
        import numpy as np

        from repro.domination.labeling import labeling_from_array

        # Q_3 labeled by parity of bits 1 and 2: both bit flips toggle it
        labels = np.array([(u ^ (u >> 1)) & 1 for u in range(8)], dtype=np.int64)
        lab = labeling_from_array(3, labels, name="redundant")
        assert lab.verify()
        sh = construct_base(6, 3, labeling=lab)
        for u in range(64):
            for dim in range(4, 7):
                path = reach_and_flip(sh, u, dim)
                if len(path) == 3:
                    first_edge = canonical_edge(path[0], path[1])
                    alt = reach_and_flip_avoiding(sh, u, dim, {first_edge})
                    if alt is not None:
                        assert first_edge not in [
                            canonical_edge(a, b) for a, b in zip(alt, alt[1:])
                        ]
                        return
        raise AssertionError("no repairable relay found with redundant labeling")

    def test_core_edge_failure_unroutable(self):
        sh = construct_base(5, 2)
        e = canonical_edge(0, 1)  # a dimension-1 (core) edge
        assert reach_and_flip_avoiding(sh, 0, 1, {e}) is None


class TestRepairedBroadcast:
    def test_no_failures_reproduces_scheme(self):
        sh = construct_base(5, 2)
        a = attempt_broadcast_with_failures(sh, 3, set())
        b = broadcast_schedule(sh, 3)
        assert a is not None
        assert [
            [c.path for c in r] for r in a.rounds
        ] == [[c.path for c in r] for r in b.rounds]

    def test_repaired_schedules_validate_on_survivor(self):
        sh = construct_base(8, 3)
        g = sh.graph
        repaired = 0
        for seed in range(30):
            failed = failed_edge_sample(g, 2, seed=seed)
            sched = attempt_broadcast_with_failures(sh, 0, failed)
            if sched is None:
                continue
            repaired += 1
            survivor = remove_edges(g, failed)
            assert validate_broadcast(survivor, sched, 2).ok
        assert repaired > 0  # some trials must be repairable at f = 2

    def test_recursive_construction_repair(self):
        sh = construct(3, 7, (2, 4))
        g = sh.graph
        any_repair = False
        for seed in range(20):
            failed = failed_edge_sample(g, 1, seed=seed)
            sched = attempt_broadcast_with_failures(sh, 0, failed)
            if sched is not None:
                survivor = remove_edges(g, failed)
                assert validate_broadcast(survivor, sched, 3).ok
                any_repair = True
        assert any_repair
