"""E11 — Examples 5–6 / Fig. 5: LABEL(7,4,2) and Construct_REC(7,4,2)."""

from repro.analysis import experiment_e11_rec742


def test_e11_rec742(benchmark, print_once):
    rows = benchmark(experiment_e11_rec742)
    print_once("e11", rows, "[E11] Examples 5–6 / Fig. 5: Construct_REC(7,4,2)")
    for row in rows:
        assert row["match"], row
