"""E13 — Theorem 7 + Corollaries 1–2: general-k degree bounds, plus the
optimized-thresholds ablation (how much the analytic n_i* leaves behind).
"""

from repro.analysis import experiment_e13_theorem7


def test_e13_theorem7(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e13_theorem7, rounds=1, iterations=1)
    print_once("e13", rows, "[E13] Theorem 7: Δ vs (2k−1)⌈ᵏ√(n−k)⌉ (+ Cor. 1 rows)")
    for row in rows:
        assert row["Δ ≤ bound"], row
        assert row["lower bound"] <= row["Δ analytic"]
        if isinstance(row["Δ optimized"], int):
            assert row["Δ optimized"] <= row["Δ analytic"]
