"""E16 — the k = 1 store-and-forward baseline and the k-crossover."""

from repro.analysis import experiment_e16_baseline_k1


def test_e16_baseline_k1(benchmark, print_once):
    rows = benchmark(experiment_e16_baseline_k1)
    print_once("e16", rows, "[E16] k=1 baseline: Q_n binomial vs sparse hypercube")
    for row in rows:
        assert row["Q_n binomial valid @k=1"]
        assert not row["sparse sched valid @k=1"]  # needs k = 2
        assert row["sparse sched valid @k=2"]
        assert row["sparse Δ"] <= row["Δ(Q_n)"]
