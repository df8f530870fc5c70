"""E17 — §5 future work: gossip under the k-line model."""

from repro.analysis import experiment_e17_gossip


def test_e17_gossip(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e17_gossip, rounds=1, iterations=1)
    print_once("e17", rows, "[E17] §5: gossip — Q_n sweep vs sparse relayed sweep")
    for row in rows:
        assert row["Q_n valid+complete"]
        assert row["sparse valid+complete"]
        # Q_n's sweep is optimal; the sparse graph pays for its sparseness
        assert row["Q_n rounds (k=1)"] == row["min rounds ⌈log₂N⌉"]
        assert row["sparse rounds (k=3)"] >= row["Q_n rounds (k=1)"]
