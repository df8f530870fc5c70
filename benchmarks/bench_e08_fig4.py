"""E08 — Example 4 / Fig. 4: the broadcast from 0000, call for call."""

from repro.analysis import experiment_e08_fig4


def test_e08_fig4_reproduction(benchmark, print_once):
    rows = benchmark(experiment_e08_fig4)
    print_once(
        "e08", rows, "[E08] Example 4 / Fig. 4: Broadcast_2 in G_{4,2} from 0000"
    )
    for row in rows:
        assert row["match"], row
