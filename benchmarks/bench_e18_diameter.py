"""E18 — footnote 1: diameters of the constructions vs the k·log₂N bound."""

from repro.analysis import experiment_e18_diameter


def test_e18_diameter(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e18_diameter, rounds=1, iterations=1)
    print_once("e18", rows, "[E18] Footnote 1: diam(G) ≤ k·log₂N")
    for row in rows:
        assert row["within bound"]
        # sparse graphs have diameter ≥ Q_n's (they are subgraphs)
        assert row["diam(G)"] >= row["diam(Q_n)=n"]
