"""E21 — wormhole cycle cost: degree savings vs latency overhead."""

from repro.analysis import experiment_e21_wormhole


def test_e21_wormhole(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e21_wormhole, rounds=1, iterations=1)
    print_once(
        "e21",
        rows,
        "[E21] Wormhole cycles: Q_n (k=1) vs sparse (k=2,3), by message size",
    )
    q_key = "Q_n cycles (Δ=10)"
    sparse_keys = [k for k in rows[0] if k.startswith("sparse k=2")]
    assert sparse_keys
    overheads = []
    for row in rows:
        sparse = row[sparse_keys[0]]
        assert sparse >= row[q_key]  # k>1 rounds cost extra cycles …
        overheads.append(sparse / row[q_key])
    # … but the overhead ratio shrinks monotonically with message size
    assert all(a >= b for a, b in zip(overheads, overheads[1:]))
    assert overheads[-1] < 1.05  # ≤5% at 64-flit messages
