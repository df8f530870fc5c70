"""E04/E05 — Example 1 labelings and Lemma 2's λ_m bounds."""

from repro.analysis import (
    experiment_e04_labelings,
    experiment_e05_lambda_m,
)


def test_e04_example1_labelings(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e04_labelings, rounds=1, iterations=1)
    print_once("e04", rows, "[E04] Example 1: optimal labelings of Q₂ / Q₃")
    for row in rows:
        assert row["Condition A"]
    assert rows[0]["labels"] == rows[0]["optimal λ_m"] == 2
    assert rows[1]["labels"] == rows[1]["optimal λ_m"] == 4


def test_e05_lambda_m_bounds(benchmark, print_once):
    rows = benchmark.pedantic(
        lambda: experiment_e05_lambda_m(max_m=9, exact_max_m=4),
        rounds=1,
        iterations=1,
    )
    print_once("e05", rows, "[E05] Lemma 2: ⌊m/2⌋+1 ≤ λ_m ≤ m+1")
    for row in rows:
        lo, built, hi = (
            row["Lemma2 lower ⌊m/2⌋+1"],
            row["constructed labels"],
            row["upper m+1"],
        )
        assert lo <= built <= hi
        if isinstance(row["exact λ_m"], int):
            assert built <= row["exact λ_m"] <= hi
