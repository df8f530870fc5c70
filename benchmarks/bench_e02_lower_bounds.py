"""E02/E03 — Theorems 2 and 3: degree lower bounds for k-mlbgs."""

from repro.analysis import experiment_e02_lower_bounds


def test_e02_lower_bounds(benchmark, print_once):
    rows = benchmark(experiment_e02_lower_bounds)
    print_once("e02", rows, "[E02/E03] Theorems 2–3: Δ lower bounds (N = 2^n)")
    for row in rows:
        n = row["n (N=2^n)"]
        # k=1 dominates all: the store-and-forward model needs Δ ≥ n
        for k in (2, 3, 4):
            assert row[f"k={k} thm2"] <= row["k=1 (Δ≥n)"]
            assert row[f"k={k} ball"] >= row[f"k={k} thm2"]
        if isinstance(row["k=5 thm3"], int):
            assert row["k=5 thm3"] >= 3
        assert n >= 1
