#!/usr/bin/env python
"""Reproduce Fig. 4 of the paper as an ASCII round-by-round trace.

Builds the exact G_{4,2} of Example 2 (the paper's labeling of Q₂ and the
partition S₁ = {3}, S₂ = {4}), runs ``Broadcast_2`` from vertex 0000, and
prints each round's calls in the paper's bit-string notation — the first
two rounds match the figure call for call (0000→1010 through 0010; then
0000→0100 and 1010→1111 through 1011).

Run:  python examples/fig4_broadcast_trace.py
"""

from repro.analysis import paper_g42
from repro.core.broadcast import broadcast_schedule
from repro.model.validator import assert_valid_broadcast
from repro.util.bits import to_bitstring


def main() -> None:
    sh = paper_g42()
    g = sh.graph
    print("G_{4,2} (Example 2):", sh.describe(), sep="\n")
    print(f"\n|E| = {g.n_edges} (16 Rule-1 + 8 Rule-2), Δ = {g.max_degree()}\n")

    sched = broadcast_schedule(sh, 0b0000)
    assert_valid_broadcast(g, sched, k=2)

    informed = {0b0000}
    print("Broadcast_2 from 0000 (Fig. 4):")
    for idx, rnd in enumerate(sched.rounds, start=1):
        phase = "Phase 1" if idx <= 2 else "Phase 2"
        print(f"\n  round {idx} ({phase}):")
        for call in rnd:
            arrow = " -> ".join(to_bitstring(v, 4) for v in call.path)
            via = "" if call.length == 1 else f"   (length-{call.length} call)"
            print(f"    {arrow}{via}")
        informed |= {c.receiver for c in rnd}
        bits = " ".join(to_bitstring(v, 4) for v in sorted(informed))
        print(f"    informed ({len(informed)}): {bits}")

    print("\nAll 16 vertices informed in 4 = log2(16) rounds — minimum time.")


if __name__ == "__main__":
    main()
