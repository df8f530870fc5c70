"""E01 — Fig. 1 + Theorem 1: Δ ≤ 3 trees for large k.

Regenerates the Theorem-1 family table (structure for h ≤ 6, machine-
checked minimum-time schedules for h ≤ 4 here to keep the benchmark
budget sane; the test-suite covers h ≤ 6 with full source sweeps).
"""

from repro.analysis import experiment_e01_theorem1


def test_e01_theorem1_tree(benchmark, print_once):
    rows = benchmark.pedantic(
        lambda: experiment_e01_theorem1(max_h=6, schedule_h=4, sources_cap=8),
        rounds=1,
        iterations=1,
    )
    print_once("e01", rows, "[E01] Fig. 1 + Theorem 1: ternary-core trees")
    for row in rows:
        assert row["Δ (≤3)"] <= 3
        assert row["diam (≤2h)"] <= 2 * row["h"]
        assert row["thm1 min k for N"] == row["k=2h"]
    assert all(r["min-time verified"] for r in rows if r["h"] <= 4)
