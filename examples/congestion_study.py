#!/usr/bin/env python
"""Section-5 congestion study: the price of sparseness.

The paper closes by noting that deleting edges and lengthening calls
concentrates traffic, and proposes per-edge bandwidth (dilated networks /
fat-trees) as future work.  This example quantifies that trade on real
schedules:

* edge utilization and per-edge load of a single Broadcast_k run,
* the bandwidth needed when two broadcasts share the same rounds,
* how the simulator's bandwidth knob (the §5 extension) absorbs it.

Run:  python examples/congestion_study.py
"""

from repro.analysis.tables import print_table
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct
from repro.core.params import default_thresholds
from repro.model.congestion import congestion_profile, min_feasible_bandwidth
from repro.model.simulator import LineNetworkSimulator
from repro.types import Round, Schedule


def merged_schedule(sh, sources):
    """Force several broadcasts into shared rounds (conflicts intended)."""
    schedules = [broadcast_schedule(sh, s) for s in sources]
    merged = [
        Round(tuple(c for rnd in rounds for c in rnd))
        for rounds in zip(*(s.rounds for s in schedules))
    ]
    return Schedule(sources[0], merged)


def main() -> None:
    rows = []
    for k, n in ((2, 10), (3, 10), (4, 12)):
        thr = default_thresholds(k, n)
        sh = construct(k, n, thr)
        g = sh.graph
        solo = broadcast_schedule(sh, 0)
        prof = congestion_profile(g, solo)

        two = merged_schedule(sh, [0, g.n_vertices - 1])
        needed = min_feasible_bandwidth(g, two)

        # how many calls per round actually go through at each bandwidth?
        admitted = {}
        for b in (1, 2, 4):
            sim = LineNetworkSimulator(g, k=k, bandwidth=b, strict=False)
            res = sim.run(two)
            admitted[b] = sum(res.informed_per_round[-1:]) and len(res.informed)
        rows.append(
            {
                "construction": f"k={k}, n={n}, thr={thr}",
                "Δ": g.max_degree(),
                "|E| used (solo)": f"{prof.used_edges}/{prof.graph_edges}",
                "max load/edge (solo)": prof.max_total_load,
                "2-src min bandwidth": needed,
                "informed @b=1": admitted[1],
                "informed @b=2": admitted[2],
                "informed @b=4": admitted[4],
            }
        )
    print_table(rows, title="Congestion and the bandwidth extension (§5)")
    print(
        "\nReading: a single schedule always fits bandwidth 1 (Definition 1);"
        "\ntwo simultaneous broadcasts need dilation ≥ 2 on shared edges, and"
        "\nthe bandwidth-b simulator admits correspondingly more calls."
    )


if __name__ == "__main__":
    main()
