"""E06 — Example 2 / Figs. 2–3: the G_{4,2} instance, edge for edge."""

from repro.analysis import experiment_e06_g42


def test_e06_g42_structure(benchmark, print_once):
    rows = benchmark(experiment_e06_g42)
    print_once("e06", rows, "[E06] Example 2 / Figs. 2–3: G_{4,2}")
    for row in rows:
        assert row["match"], row
