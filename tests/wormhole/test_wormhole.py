"""Tests for the flit-level wormhole substrate (experiment E21)."""

import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.graphs.hypercube import hypercube
from repro.graphs.trees import path_graph, star
from repro.schedulers.store_forward import binomial_hypercube_broadcast
from repro.types import InvalidParameterError, Round, Schedule
from repro.wormhole import WormholeNetwork, schedule_latency


class TestSingleWorm:
    @pytest.mark.parametrize("links,flits", [(1, 1), (1, 5), (3, 1), (3, 4), (5, 16)])
    def test_uncontended_pipelined_latency(self, links, flits):
        g = path_graph(links + 1)
        net = WormholeNetwork(g)
        worm = net.add_worm(tuple(range(links + 1)), flits)
        total = net.run()
        assert total == links + flits - 1
        assert worm.tail_arrival == WormholeNetwork.uncontended_latency(links, flits)

    def test_head_arrival_before_tail(self):
        g = path_graph(4)
        net = WormholeNetwork(g)
        worm = net.add_worm((0, 1, 2, 3), 5)
        net.run()
        assert worm.head_arrival == 3
        assert worm.tail_arrival == 7

    def test_rejects_bad_worm(self):
        g = path_graph(3)
        net = WormholeNetwork(g)
        with pytest.raises(InvalidParameterError):
            net.add_worm((0, 2), 1)  # not an edge
        with pytest.raises(InvalidParameterError):
            net.add_worm((0, 1), 0)  # no flits


class TestContention:
    def test_shared_edge_serializes(self):
        """Two worms contending for one link serialize: worm b (adjacent
        to the shared link) grabs it in cycle 1 while a crosses its first
        link; a then blocks until b's tail releases the channel."""
        g = star(3)
        net = WormholeNetwork(g)
        a = net.add_worm((1, 0, 2), 4)
        b = net.add_worm((0, 2), 4)
        net.run()
        assert b.tail_arrival == 1 + 4 - 1  # uncontended
        # a: first link cycle 1, blocked on (0,2) until b drains at 4,
        # crosses at 5, drains 3 more flits → 8
        assert a.tail_arrival == 8
        assert a.tail_arrival > WormholeNetwork.uncontended_latency(2, 4)

    def test_disjoint_worms_run_in_parallel(self):
        g = hypercube(3)
        net = WormholeNetwork(g)
        net.add_worm((0, 1), 8)
        net.add_worm((6, 7), 8)
        total = net.run()
        assert total == 8  # both finish together: 1 link + 8 flits − 1

    def test_staggered_start(self):
        g = path_graph(2)
        net = WormholeNetwork(g)
        worm = net.add_worm((0, 1), 2, start_cycle=5)
        net.run()
        assert worm.tail_arrival == 5 + 2


class TestScheduleLatency:
    def test_binomial_q4_flit1(self):
        g = hypercube(4)
        sched = binomial_hypercube_broadcast(4, 0)
        lat = schedule_latency(g, sched, 1)
        assert lat.total_cycles == 4  # 4 rounds × (1 + 1 − 1)

    def test_sparse_round_cost_is_k_plus_flits(self):
        sh = construct_base(6, 2)
        sched = broadcast_schedule(sh, 0)
        lat = schedule_latency(sh.graph, sched, 4)
        for r in lat.rounds:
            assert r.cycles == r.longest_call + 4 - 1

    def test_valid_schedules_match_analytic_total(self):
        """Cycle-accurate simulation equals the closed form — the
        schedules really are contention-free."""
        for k, n, thr in [(2, 6, (2,)), (3, 7, (2, 4))]:
            sh = construct(k, n, thr)
            sched = broadcast_schedule(sh, 0)
            for flits in (1, 3, 9):
                lat = schedule_latency(sh.graph, sched, flits)
                expected = sum(
                    max(c.length for c in rnd) + flits - 1 for rnd in sched.rounds
                )
                assert lat.total_cycles == expected

    def test_conflicting_round_costs_more(self):
        """An (invalid) round with an edge shared by two calls takes longer
        than the analytic contention-free cost — wormhole blocking."""
        from repro.types import Call

        g = path_graph(4)
        sched = Schedule(
            source=0, rounds=[Round((Call.via((0, 1, 2, 3)), Call.via((1, 2))))]
        )
        lat = schedule_latency(g, sched, 4)
        assert lat.rounds[0].cycles > 3 + 4 - 1

    def test_empty_round(self):
        g = path_graph(2)
        sched = Schedule(source=0, rounds=[Round(())])
        lat = schedule_latency(g, sched, 4)
        assert lat.total_cycles == 0
