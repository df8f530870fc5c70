"""E12 — Theorem 6: Broadcast_k validity sweep over k = 3, 4, 5."""

from repro.analysis import experiment_e12_broadcastk


def test_e12_broadcastk_sweep(benchmark, print_once):
    rows = benchmark.pedantic(
        lambda: experiment_e12_broadcastk(sources_cap=10), rounds=1, iterations=1
    )
    print_once(
        "e12", rows, "[E12] Theorem 6: Broadcast_k sweep (valid ⇔ Definition 1 at k)"
    )
    assert rows
    for row in rows:
        assert row["valid (≤k)"], row
        assert row["max call len"] <= row["k"]
