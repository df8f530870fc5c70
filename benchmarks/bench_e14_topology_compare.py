"""E14 — the Section-1/3 context table: degree/diameter across topologies."""

from repro.analysis import experiment_e14_topology_compare


def test_e14_topology_compare(benchmark, print_once):
    rows = benchmark.pedantic(
        lambda: experiment_e14_topology_compare(n=9), rounds=1, iterations=1
    )
    print_once("e14", rows, "[E14] Topology comparison at N ≈ 2^9")
    by_name = {r["topology"]: r for r in rows}
    q = by_name["Q_9 (1-mlbg)"]
    sparse2 = next(r for name, r in by_name.items() if name.startswith("sparse k=2"))
    sparse3 = by_name["sparse k=3"]
    # the headline trade: same order, strictly smaller degree
    assert sparse2["Δ"] < q["Δ"] and sparse2["N"] == q["N"]
    assert sparse3["Δ"] <= sparse2["Δ"]
    # CCC gets constant degree but is not a minimum-time broadcast graph
    assert by_name["CCC(6)"]["Δ"] == 3
