"""E15 — Section 5 future work: congestion profile + bandwidth ablation."""

from repro.analysis import experiment_e15_congestion


def test_e15_congestion(benchmark, print_once):
    rows = benchmark.pedantic(experiment_e15_congestion, rounds=1, iterations=1)
    print_once("e15", rows, "[E15] §5: edge congestion and the bandwidth-m extension")
    for row in rows:
        # Definition 1 honoured by valid schedules: peak concurrency 1
        assert row["peak edge load (valid sched)"] == 1
        assert row["solo rejections @b=1"] == 0
        # two broadcasts sharing rounds need dilation ≥ 2 (the §5 question)
        assert row["merged 2-src min bandwidth"] >= 2
        assert row["merged conflicting edge-slots @b=1"] > 0
        assert 0 < row["utilization"] <= 1
