"""E09 — Theorem 4: Broadcast_2 validity/minimum-time sweep over (n, m)."""

from repro.analysis import experiment_e09_broadcast2


def test_e09_broadcast2_sweep(benchmark, print_once):
    rows = benchmark.pedantic(
        lambda: experiment_e09_broadcast2(
            n_values=(3, 4, 5, 6, 7, 8, 10), sources_cap=12
        ),
        rounds=1,
        iterations=1,
    )
    print_once(
        "e09", rows, "[E09] Theorem 4: Broadcast_2 sweep (valid ⇔ Definition 1 at k=2)"
    )
    assert rows
    for row in rows:
        assert row["valid (≤2)"], row
        assert row["max call len"] <= 2
        assert row["rounds"] == row["n"]
