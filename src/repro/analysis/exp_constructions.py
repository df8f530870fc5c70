"""Construction experiments: the paper's worked examples and structural
comparisons (E06–E08, E11, E14, E18).

Every function registers itself with the experiment registry, together
with the check of its paper claims.
"""

from __future__ import annotations

import math

from repro.analysis.registry import experiment
from repro.core.bounds import lower_bound_theorem2
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base, construct_rec
from repro.core.params import theorem5_m_star, theorem7_params
from repro.domination.labeling import paper_example_labeling_q2
from repro.graphs.hypercube import hypercube
from repro.graphs.properties import graph_stats
from repro.model.validator import validate_broadcast
from repro.util.bits import to_bitstring

__all__ = [
    "paper_g42",
    "experiment_e06_g42",
    "experiment_e07_g153",
    "experiment_e08_fig4",
    "experiment_e11_rec742",
    "experiment_e14_topology_compare",
    "experiment_e18_diameter",
]


def _match_claims(rows: list[dict], params: dict) -> list[str]:
    """Every measured quantity equals the paper's (E06–E08, E11)."""
    return [
        f"{next(iter(row.values()))}: measured {row['measured']}, "
        f"paper {row['paper']}"
        for row in rows
        if not row["match"]
    ]


# ---------------------------------------------------------------------------
# E06  Example 2 / Figs. 2–3 (G_{4,2})
# ---------------------------------------------------------------------------

def paper_g42():
    """The exact G_{4,2} instance of Example 2 / Fig. 3 (paper labeling of
    Q₂, partition S₁={3}, S₂={4})."""
    return construct_base(
        4, 2, labeling=paper_example_labeling_q2(), partition=[(3,), (4,)]
    )


@experiment("e06", "Example 2 / Figs. 2–3: G_{4,2}", claims=_match_claims)
def experiment_e06_g42() -> list[dict]:
    """G_{4,2}: structure versus the values stated/drawable from Figs 2–3."""
    sh = paper_g42()
    g = sh.graph
    rule1_edges = sum(1 for (u, v) in g.edges() if (u ^ v) in (1, 2))
    rule2_edges = g.n_edges - rule1_edges
    # Fig. 3 spot checks (paper coordinates, u_4u_3u_2u_1)
    fig3_pairs = [
        ("0011", "0111", True),   # dim 3 on label c1 (suffix 11)
        ("0000", "0100", True),   # dim 3 on label c1 (suffix 00)
        ("0001", "1001", True),   # dim 4 on label c2 (suffix 01)
        ("0000", "1000", False),  # dim 4 absent at label c1
        ("0011", "1011", False),  # dim 4 absent at label c1
    ]
    checks = all(
        g.has_edge(int(a, 2), int(b, 2)) == expected for a, b, expected in fig3_pairs
    )
    return [
        {
            "quantity": "N",
            "measured": g.n_vertices,
            "paper": 16,
            "match": g.n_vertices == 16,
        },
        {
            "quantity": "Rule-1 edges (Fig. 2)",
            "measured": rule1_edges,
            "paper": 16,
            "match": rule1_edges == 16,
        },
        {
            "quantity": "Rule-2 edges",
            "measured": rule2_edges,
            "paper": 8,
            "match": rule2_edges == 8,
        },
        {
            "quantity": "Δ(G_{4,2})",
            "measured": g.max_degree(),
            "paper": 3,
            "match": g.max_degree() == 3,
        },
        {
            "quantity": "Fig. 3 edge spot-checks",
            "measured": checks,
            "paper": True,
            "match": checks,
        },
    ]


# ---------------------------------------------------------------------------
# E07  Example 3 (G_{15,3})
# ---------------------------------------------------------------------------

@experiment("e07", "Example 3: G_{15,3}", claims=_match_claims)
def experiment_e07_g153(*, build_graph: bool = True) -> list[dict]:
    """G_{15,3}: Δ = 6 = 3 + 3, less than half of Δ(Q₁₅) = 15."""
    sh = construct_base(15, 3)
    rows = [
        {
            "quantity": "Δ(G_{15,3}) by formula",
            "measured": sh.degree_formula(),
            "paper": 6,
            "match": sh.degree_formula() == 6,
        },
        {
            "quantity": "Δ(Q_15)",
            "measured": 15,
            "paper": 15,
            "match": True,
        },
        {
            "quantity": "Δ(G)/Δ(Q) < 1/2",
            "measured": sh.degree_formula() / 15,
            "paper": "< 0.5",
            "match": sh.degree_formula() / 15 < 0.5,
        },
        {
            "quantity": "labels (λ₃)",
            "measured": sh.levels[0].num_labels,
            "paper": 4,
            "match": sh.levels[0].num_labels == 4,
        },
        {
            "quantity": "partition sizes",
            "measured": str([len(p) for p in sh.levels[0].partition]),
            "paper": "[3, 3, 3, 3]",
            "match": [len(p) for p in sh.levels[0].partition] == [3, 3, 3, 3],
        },
    ]
    if build_graph:
        g = sh.graph
        rows.append(
            {
                "quantity": "Δ(G_{15,3}) by graph",
                "measured": g.max_degree(),
                "paper": 6,
                "match": g.max_degree() == 6,
            }
        )
        rows.append(
            {
                "quantity": "|E| (vs n·2^{n-1} of Q_15)",
                "measured": g.n_edges,
                "paper": f"< {15 * (1 << 14)}",
                "match": g.n_edges < 15 * (1 << 14),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E08  Example 4 / Fig. 4
# ---------------------------------------------------------------------------

@experiment("e08", "Example 4 / Fig. 4: broadcast from 0000", claims=_match_claims)
def experiment_e08_fig4() -> list[dict]:
    """Broadcast_2 in G_{4,2} from 0000: the paper's first two rounds,
    reproduced call for call."""
    sh = paper_g42()
    sched = broadcast_schedule(sh, 0)
    rep = validate_broadcast(sh.graph, sched, 2)

    def call_strs(idx: int) -> list[str]:
        return [
            "->".join(to_bitstring(v, 4) for v in c.path)
            for c in sched.rounds[idx]
        ]

    round1 = call_strs(0)
    round2 = call_strs(1)
    expected1 = ["0000->0010->1010"]
    expected2 = ["0000->0100", "1010->1011->1111"]
    return [
        {
            "artifact": "round 1 calls",
            "measured": "; ".join(round1),
            "paper": "0000 calls 1010 through 0010",
            "match": round1 == expected1,
        },
        {
            "artifact": "round 2 calls",
            "measured": "; ".join(round2),
            "paper": "0000→0100 ; 1010→1111 via 1011",
            "match": round2 == expected2,
        },
        {
            "artifact": "total rounds",
            "measured": len(sched.rounds),
            "paper": 4,
            "match": len(sched.rounds) == 4,
        },
        {
            "artifact": "valid 2-line schedule",
            "measured": rep.ok,
            "paper": True,
            "match": rep.ok,
        },
    ]


# ---------------------------------------------------------------------------
# E11  Examples 5–6 / Fig. 5 (LABEL and Construct_REC(7,4,2))
# ---------------------------------------------------------------------------

@experiment("e11", "Examples 5–6 / Fig. 5: Construct_REC(7,4,2)", claims=_match_claims)
def experiment_e11_rec742() -> list[dict]:
    """Construct_REC(7,4,2) with the paper's labeling and partition:
    Example 5's labeling pattern and Example 6's incident edges of 0⁷."""
    sh = construct_rec(
        7,
        4,
        2,
        labelings=[paper_example_labeling_q2(), paper_example_labeling_q2()],
        partitions=[[(3,), (4,)], [(7, 6), (5,)]],
    )
    level3 = sh.levels[1]
    # Example 5: g(x00y) = g(x11y) = c1 and g(x01y) = g(x10y) = c2
    pattern_ok = True
    for x in range(8):
        for y in range(4):
            v00 = (x << 4) | (0b00 << 2) | y
            v11 = (x << 4) | (0b11 << 2) | y
            v01 = (x << 4) | (0b01 << 2) | y
            v10 = (x << 4) | (0b10 << 2) | y
            pattern_ok &= level3.label_of(v00) == level3.label_of(v11) == 0
            pattern_ok &= level3.label_of(v01) == level3.label_of(v10) == 1
    # Example 6: 0000000 connects to 0000100, 0000010, 0000001 (Rule 1)
    # and to 1000000, 0100000 (Rule 2, S1={7,6}, label c1)
    g = sh.graph
    expected_nbrs = {0b0000100, 0b0000010, 0b0000001, 0b1000000, 0b0100000}
    zero_nbrs = set(g.neighbors(0))
    return [
        {
            "artifact": "Example 5 labeling pattern",
            "measured": pattern_ok,
            "paper": True,
            "match": pattern_ok,
        },
        {
            "artifact": "S partition (Fig. 5 shape)",
            "measured": str([list(p) for p in level3.partition]),
            "paper": "[[7, 6], [5]]",
            "match": [list(p) for p in level3.partition] == [[7, 6], [5]],
        },
        {
            "artifact": "neighbours of 0000000",
            "measured": str(sorted(to_bitstring(v, 7) for v in zero_nbrs)),
            "paper": str(sorted(to_bitstring(v, 7) for v in expected_nbrs)),
            "match": zero_nbrs == expected_nbrs,
        },
        {
            "artifact": "Δ(G) (Lemma-1 analogue)",
            "measured": g.max_degree(),
            "paper": sh.degree_formula(),
            "match": g.max_degree() == sh.degree_formula(),
        },
    ]


# ---------------------------------------------------------------------------
# E14  Topology comparison (Section 1/3 context)
# ---------------------------------------------------------------------------

def _e14_claims(rows: list[dict], params: dict) -> list[str]:
    """Sparse k=2 keeps Q_n's order with a smaller Δ; k=3 ≤ k=2; CCC Δ = 3."""
    by_name = {row["topology"]: row for row in rows}
    q = next(row for row in rows if row["topology"].startswith("Q_"))
    sparse2 = next(row for row in rows if row["topology"].startswith("sparse k=2"))
    sparse3 = by_name["sparse k=3"]
    fails = []
    if not sparse2["Δ"] < q["Δ"]:
        fails.append(f"sparse k=2 Δ = {sparse2['Δ']} not below Q_n's {q['Δ']}")
    if sparse2["N"] != q["N"]:
        fails.append(f"sparse k=2 N = {sparse2['N']} ≠ Q_n's {q['N']}")
    if sparse3["Δ"] > sparse2["Δ"]:
        fails.append(f"sparse k=3 Δ = {sparse3['Δ']} > k=2's {sparse2['Δ']}")
    if by_name["CCC(6)"]["Δ"] != 3:
        fails.append(f"CCC(6) Δ = {by_name['CCC(6)']['Δ']} ≠ 3")
    return fails


@experiment("e14", "Topology comparison (context)", claims=_e14_claims)
def experiment_e14_topology_compare(*, n: int = 9) -> list[dict]:
    """Degree/diameter/edges across classic topologies at comparable order."""
    from repro.graphs.knodel import knodel_graph
    from repro.graphs.trees import balanced_ternary_core_tree, star
    from repro.graphs.variants import (
        crossed_cube,
        cube_connected_cycles,
        de_bruijn,
        folded_hypercube,
        mobius_cube,
    )

    entries: list[tuple[str, object]] = [
        (f"Q_{n} (1-mlbg)", hypercube(n)),
        (
            f"sparse k=2 (m*={theorem5_m_star(n)})",
            construct_base(n, theorem5_m_star(n)).graph,
        ),
        ("sparse k=3", construct(3, n, theorem7_params(3, n)).graph),
        (f"folded Q_{n}", folded_hypercube(n)),
        (f"crossed CQ_{n}", crossed_cube(n)),
        (f"Möbius MQ_{n}", mobius_cube(n)),
        (f"Knödel W_{{{n},2^{n}}} (min 1-mlbg)", knodel_graph(n, 1 << n)),
        ("CCC(6)", cube_connected_cycles(6)),
        ("de Bruijn(2,9)", de_bruijn(2, 9)),
        ("star K_{1,N-1}", star(1 << n)),
        ("Theorem-1 tree h=8", balanced_ternary_core_tree(8)),
    ]
    rows = []
    for name, g in entries:
        st = graph_stats(g, with_diameter=g.n_vertices <= (1 << 10))
        rows.append(
            {
                "topology": name,
                "N": st.n_vertices,
                "|E|": st.n_edges,
                "Δ": st.max_degree,
                "diam": st.diameter if st.diameter is not None else "-",
                "lower bound Δ (k=2)": lower_bound_theorem2(
                    max(1, math.ceil(math.log2(st.n_vertices))), 2
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E18  footnote 1: diameters of the constructions vs k·log₂N
# ---------------------------------------------------------------------------

def _e18_claims(rows: list[dict], params: dict) -> list[str]:
    """Footnote 1: n ≤ diameter ≤ k·log₂N for every construction."""
    fails = []
    for row in rows:
        case = f"k={row['k']}, n={row['n']}"
        if not row["within bound"]:
            fails.append(f"{case}: diameter {row['diam(G)']} beyond k·n")
        if row["diam(G)"] < row["diam(Q_n)=n"]:
            fails.append(f"{case}: diameter {row['diam(G)']} < n")
    return fails


@experiment("e18", "Footnote 1: diameters vs k·log2 N", claims=_e18_claims)
def experiment_e18_diameter(
    *,
    cases: tuple[tuple[int, int, tuple[int, ...]], ...] = (
        (2, 8, (3,)),
        (2, 10, (3,)),
        (3, 8, (2, 5)),
        (3, 10, (2, 5)),
        (4, 10, (2, 4, 7)),
    ),
) -> list[dict]:
    """Footnote 1: any k-mlbg has diameter ≤ k·log₂N.  Measured diameters
    of the constructions sit far below the bound (and modestly above
    Q_n's n), locating the open problem the footnote raises."""
    rows = []
    for k, n, thr in cases:
        sh = construct(k, n, thr)
        g = sh.graph
        diam = g.diameter()
        rows.append(
            {
                "k": k,
                "n": n,
                "thresholds": str(thr),
                "Δ": g.max_degree(),
                "diam(G)": diam,
                "diam(Q_n)=n": n,
                "footnote bound k·n": k * n,
                "within bound": diam <= k * n,
            }
        )
    return rows
