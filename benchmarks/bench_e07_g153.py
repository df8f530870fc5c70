"""E07 — Example 3: G_{15,3}, Δ = 6 versus Δ(Q₁₅) = 15."""

from repro.analysis import experiment_e07_g153


def test_e07_g153(benchmark, print_once):
    # formula-only inside the timing loop; the graph build is timed once
    rows = benchmark.pedantic(
        lambda: experiment_e07_g153(build_graph=True), rounds=1, iterations=1
    )
    print_once("e07", rows, "[E07] Example 3: G_{15,3} (N = 32768)")
    for row in rows:
        assert row["match"], row
