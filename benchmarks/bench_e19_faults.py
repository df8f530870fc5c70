"""E19 — robustness ablation: random edge failures + schedule repair."""

from repro.analysis import experiment_e19_faults


def test_e19_faults(benchmark, print_once):
    rows = benchmark.pedantic(
        lambda: experiment_e19_faults(trials=25), rounds=1, iterations=1
    )
    print_once("e19", rows, "[E19] Edge failures: repair rate of Broadcast_2")
    rates = [row["repair rate"] for row in rows]
    # monotone (non-increasing) decay with failure count
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    # soundness: every repaired schedule validated on the surviving graph
    for row in rows:
        assert row["repaired & valid"] == row["repaired"]
