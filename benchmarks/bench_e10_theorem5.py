"""E10 — Theorem 5: Δ ≤ 2⌈√(2 log₂N + 4)⌉ − 4 for the k = 2 family."""

from repro.analysis import experiment_e10_theorem5


def test_e10_theorem5(benchmark, print_once):
    rows = benchmark(experiment_e10_theorem5)
    print_once("e10", rows, "[E10] Theorem 5: Construct_BASE(n, m*) degree vs bound")
    for row in rows:
        assert row["Δ ≤ bound"], row
        assert row["lower ⌈√n⌉"] <= row["Δ measured"] <= row["Δ(Q_n)"]
    # the remark rows really achieve Δ = 2m
    remark = [r for r in rows if str(r["case"]).startswith("remark")]
    assert remark and all(r["Δ measured"] == 2 * r["m*"] for r in remark)
