"""Integration tests: every experiment regenerates its paper artifact.

These are the executable form of the experiment registry (``python -m
repro list``) — each test asserts the "match" column of its experiment,
i.e. that our measurement agrees with what the paper states (or draws in
a figure).
"""

import pytest

from repro.analysis import (
    experiment_e01_theorem1,
    experiment_e02_lower_bounds,
    experiment_e04_labelings,
    experiment_e05_lambda_m,
    experiment_e06_g42,
    experiment_e07_g153,
    experiment_e08_fig4,
    experiment_e09_broadcast2,
    experiment_e10_theorem5,
    experiment_e11_rec742,
    experiment_e12_broadcastk,
    experiment_e13_theorem7,
    experiment_e14_topology_compare,
    experiment_e15_congestion,
    experiment_e16_baseline_k1,
)


class TestE01Theorem1:
    def test_structure_and_schedules(self):
        rows = experiment_e01_theorem1(max_h=4, schedule_h=4, sources_cap=6)
        for row in rows:
            assert row["Δ (≤3)"] <= 3
            assert row["diam (≤2h)"] <= 2 * row["h"]
            assert row["N=3·2^h−2"] == 3 * 2 ** row["h"] - 2
            assert row["min-time verified"]

    def test_threshold_matches_family(self):
        rows = experiment_e01_theorem1(max_h=5, schedule_h=0)
        for row in rows:
            assert row["thm1 min k for N"] == row["k=2h"]


class TestE02LowerBounds:
    def test_monotone_in_k(self):
        rows = experiment_e02_lower_bounds(n_values=(16, 36, 64))
        for row in rows:
            assert row["k=1 (Δ≥n)"] >= row["k=2 thm2"]
            assert row["k=2 thm2"] >= row["k=3 thm2"] >= row["k=4 thm2"]

    def test_ball_dominates_closed_form(self):
        rows = experiment_e02_lower_bounds(n_values=(25, 49))
        for row in rows:
            for k in (2, 3, 4):
                assert row[f"k={k} ball"] >= row[f"k={k} thm2"]


class TestE04E05Labelings:
    def test_example1_rows_all_match(self):
        for row in experiment_e04_labelings():
            assert row["Condition A"]
        rows = experiment_e04_labelings()
        assert rows[0]["labels"] == 2 and rows[0]["optimal λ_m"] == 2
        assert rows[1]["labels"] == 4 and rows[1]["optimal λ_m"] == 4

    def test_lemma2_sandwich(self):
        for row in experiment_e05_lambda_m(max_m=8, exact_max_m=4):
            assert row["Lemma2 lower ⌊m/2⌋+1"] <= row["constructed labels"]
            assert row["constructed labels"] <= row["upper m+1"]

    def test_exact_matches_constructed_when_hamming(self):
        rows = experiment_e05_lambda_m(max_m=4, exact_max_m=4)
        by_m = {r["m"]: r for r in rows}
        assert by_m[3]["exact λ_m"] == 4 == by_m[3]["constructed labels"]
        assert by_m[2]["exact λ_m"] == 2 == by_m[2]["constructed labels"]
        # m=4: tiling is optimal
        assert by_m[4]["exact λ_m"] == 4 == by_m[4]["constructed labels"]


@pytest.mark.parametrize(
    "experiment",
    [
        experiment_e06_g42,
        experiment_e07_g153,
        experiment_e08_fig4,
        experiment_e11_rec742,
    ],
)
def test_match_column_experiments(experiment):
    """E06, E07, E08, E11 all carry an explicit paper-vs-measured match."""
    for row in experiment():
        assert row["match"], row


class TestE09E12Schemes:
    def test_broadcast2_sweep_valid(self):
        rows = experiment_e09_broadcast2(n_values=(3, 4, 5, 6), sources_cap=8)
        assert rows
        for row in rows:
            assert row["valid (≤2)"]
            assert row["max call len"] <= 2

    def test_broadcastk_sweep_valid(self):
        rows = experiment_e12_broadcastk(
            cases=((3, 7, (2, 4)), (4, 9, (2, 4, 6))), sources_cap=6
        )
        for row in rows:
            assert row["valid (≤k)"]
            assert row["max call len"] <= row["k"]


class TestE10E13Bounds:
    def test_theorem5_rows(self):
        for row in experiment_e10_theorem5(n_values=tuple(range(2, 40, 3))):
            assert row["Δ ≤ bound"]
            assert row["Δ measured"] >= row["lower ⌈√n⌉"]
            assert row["Δ measured"] <= row["Δ(Q_n)"]

    def test_theorem7_rows(self):
        rows = experiment_e13_theorem7(ks=(3, 4), n_values=(8, 16, 24))
        for row in rows:
            assert row["Δ ≤ bound"]
            if isinstance(row["Δ optimized"], int):
                assert row["Δ optimized"] <= row["Δ analytic"]


class TestE14E15E16Context:
    def test_topology_table_has_sparse_winner(self):
        rows = experiment_e14_topology_compare(n=9)
        by_name = {r["topology"]: r for r in rows}
        q = by_name["Q_9 (1-mlbg)"]
        sparse = next(r for name, r in by_name.items() if name.startswith("sparse k=2"))
        assert sparse["Δ"] < q["Δ"]
        assert sparse["N"] == q["N"]

    def test_congestion_rows(self):
        rows = experiment_e15_congestion(cases=((8, 3),))
        row = rows[0]
        assert row["peak edge load (valid sched)"] == 1
        assert row["solo rejections @b=1"] == 0
        assert row["merged 2-src min bandwidth"] >= 2
        assert row["merged conflicting edge-slots @b=1"] > 0

    def test_baseline_rows(self):
        for row in experiment_e16_baseline_k1(n_values=(4, 6)):
            assert row["Q_n binomial valid @k=1"]
            assert not row["sparse sched valid @k=1"]
            assert row["sparse sched valid @k=2"]
            assert row["sparse Δ"] <= row["Δ(Q_n)"]


class TestExtensionExperiments:
    """E17–E22: the beyond-the-paper experiments (§5 directions)."""

    def test_e17_gossip_rows(self):
        from repro.analysis import experiment_e17_gossip

        rows = experiment_e17_gossip(cases=((4, 2), (6, 3)))
        for row in rows:
            assert row["Q_n valid+complete"] and row["sparse valid+complete"]
            assert row["sparse rounds (k=3)"] >= row["Q_n rounds (k=1)"]

    def test_e18_diameter_rows(self):
        from repro.analysis import experiment_e18_diameter

        rows = experiment_e18_diameter(cases=((2, 8, (3,)), (3, 8, (2, 5))))
        for row in rows:
            assert row["within bound"]
            assert row["diam(G)"] >= row["diam(Q_n)=n"]

    def test_e19_fault_rows(self):
        from repro.analysis import experiment_e19_faults

        rows = experiment_e19_faults(failure_counts=(1, 4, 16), trials=15)
        rates = [r["repair rate"] for r in rows]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        for row in rows:
            assert row["repaired & valid"] == row["repaired"]

    def test_e20_vertex_disjoint_rows(self):
        from repro.analysis import experiment_e20_vertex_disjoint

        rows = experiment_e20_vertex_disjoint(cases=((2, 6, (2,)),), sources_cap=4)
        assert rows[0]["minimum time"]
        assert not rows[-1]["minimum time"]  # the tree contrast row

    def test_e21_wormhole_rows(self):
        from repro.analysis import experiment_e21_wormhole

        rows = experiment_e21_wormhole(n=8, flit_sizes=(1, 16))
        q_key = "Q_n cycles (Δ=10)"
        # column label carries n=10 in the default; with n=8 find dynamically
        q_key = next(k for k in rows[0] if k.startswith("Q_n cycles"))
        s_key = next(k for k in rows[0] if k.startswith("sparse k=2"))
        small, large = rows[0], rows[-1]
        assert small[s_key] / small[q_key] > large[s_key] / large[q_key]

    def test_e22_multimessage_rows(self):
        from repro.analysis import experiment_e22_multimessage

        rows = experiment_e22_multimessage()
        q3 = next(r for r in rows if r["instance"].startswith("Q_3"))
        assert q3["rounds"].startswith("5")
        assert q3["lower bound"] == 5
