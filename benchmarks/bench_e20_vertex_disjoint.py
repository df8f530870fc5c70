"""E20 — §5: the vertex-disjoint call model (stronger than Definition 1)."""

from repro.analysis import experiment_e20_vertex_disjoint


def test_e20_vertex_disjoint(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e20_vertex_disjoint, rounds=1, iterations=1)
    print_once("e20", rows, "[E20] §5: vertex-disjoint k-line model")
    construct_rows = [r for r in rows if r["instance"].startswith("Construct")]
    tree_rows = [r for r in rows if r["instance"].startswith("Theorem-1")]
    # the sparse hypercube schemes satisfy the stricter model outright
    assert construct_rows and all(r["minimum time"] for r in construct_rows)
    # the tree pump scheme does not — an honest negative result
    assert tree_rows and not tree_rows[0]["minimum time"]
