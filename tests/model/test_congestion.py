"""Unit tests for congestion accounting (Section 5 / E15)."""

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.model.congestion import congestion_profile, min_feasible_bandwidth
from repro.types import Round, Schedule


class TestProfile:
    def setup_method(self):
        self.sh = construct_base(6, 2)
        self.g = self.sh.graph
        self.sched = broadcast_schedule(self.sh, 0)

    def test_valid_schedule_peak_is_one(self):
        prof = congestion_profile(self.g, self.sched)
        assert prof.peak_concurrency == 1

    def test_used_edges_at_most_graph_edges(self):
        prof = congestion_profile(self.g, self.sched)
        assert 0 < prof.used_edges <= prof.graph_edges
        assert 0 < prof.edge_utilization <= 1

    def test_occupancy_counts_path_edges(self):
        prof = congestion_profile(self.g, self.sched)
        expected = sum(c.length for rnd in self.sched.rounds for c in rnd)
        assert prof.total_edge_occupancy == expected

    def test_load_histogram_sums_to_used_edges(self):
        prof = congestion_profile(self.g, self.sched)
        assert sum(prof.load_histogram().values()) == prof.used_edges

    def test_total_load_at_least_calls(self):
        """N−1 calls each use ≥1 edge."""
        prof = congestion_profile(self.g, self.sched)
        assert sum(prof.total_load.values()) >= self.g.n_vertices - 1


class TestMinBandwidth:
    def test_valid_schedule_needs_one(self):
        sh = construct_base(5, 2)
        sched = broadcast_schedule(sh, 0)
        assert min_feasible_bandwidth(sh.graph, sched) == 1

    def test_merged_schedules_need_more(self):
        sh = construct_base(6, 2)
        a = broadcast_schedule(sh, 0)
        b = broadcast_schedule(sh, sh.n_vertices - 1)
        merged = Schedule(
            source=0,
            rounds=[Round(r1.calls + r2.calls) for r1, r2 in zip(a.rounds, b.rounds)],
        )
        assert min_feasible_bandwidth(sh.graph, merged) >= 2

    def test_empty_schedule(self):
        sh = construct_base(4, 2)
        assert min_feasible_bandwidth(sh.graph, Schedule(source=0)) == 1
