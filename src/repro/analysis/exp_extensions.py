"""Extension experiments: the Section-5 directions beyond the paper
(E15, E17, E19–E22).

Every function registers itself with the experiment registry, together
with the check of its claims.
"""

from __future__ import annotations

from repro.analysis.common import sample_sources
from repro.analysis.registry import experiment
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.core.params import theorem5_m_star, theorem7_params
from repro.engine.batch import validate_all_sources
from repro.graphs.hypercube import hypercube
from repro.model.congestion import congestion_profile, min_feasible_bandwidth
from repro.model.simulator import LineNetworkSimulator
from repro.model.validator import validate_broadcast

__all__ = [
    "experiment_e15_congestion",
    "experiment_e17_gossip",
    "experiment_e19_faults",
    "experiment_e20_vertex_disjoint",
    "experiment_e21_wormhole",
    "experiment_e22_multimessage",
]


# ---------------------------------------------------------------------------
# E15  Congestion / bandwidth ablation (Section 5)
# ---------------------------------------------------------------------------

def _e15_claims(rows: list[dict], params: dict) -> list[str]:
    """One broadcast loads an edge once a round; two merged ones conflict."""
    fails = []
    for row in rows:
        graph = row["graph"]
        if row["peak edge load (valid sched)"] != 1:
            fails.append(f"{graph}: peak edge load ≠ 1")
        if row["solo rejections @b=1"] != 0:
            fails.append(f"{graph}: the simulator rejects a valid broadcast")
        if row["merged 2-src min bandwidth"] < 2:
            fails.append(f"{graph}: merged broadcasts fit bandwidth 1")
        if row["merged conflicting edge-slots @b=1"] <= 0:
            fails.append(f"{graph}: merged broadcasts never conflict")
        if not 0 < row["utilization"] <= 1:
            fails.append(f"{graph}: utilization {row['utilization']} ∉ (0, 1]")
    return fails


@experiment("e15", "Section 5: congestion / bandwidth", claims=_e15_claims)
def experiment_e15_congestion(
    *, cases: tuple[tuple[int, int], ...] = ((8, 3), (10, 3), (12, 4))
) -> list[dict]:
    """Edge-load profile of Broadcast_2/k schedules and the bandwidth
    needed when two broadcasts are forced to share rounds."""
    rows = []
    for n, m in cases:
        sh = construct_base(n, m)
        g = sh.graph
        sched = broadcast_schedule(sh, 0)
        prof = congestion_profile(g, sched)
        # merge two broadcasts from different sources into shared rounds:
        # round i = calls of both schedules (conflicts intended)
        other = broadcast_schedule(sh, g.n_vertices - 1)
        from repro.types import Round, Schedule

        pairs = zip(sched.rounds, other.rounds)
        merged = Schedule(0, [Round(r1.calls + r2.calls) for r1, r2 in pairs])
        needed = min_feasible_bandwidth(g, merged)
        # static conflict count: (round, edge) slots that exceed bandwidth 1
        # when the two broadcasts share rounds — the dilation Section 5 asks
        # about, measured without the confound of receiver collisions
        from collections import Counter

        conflicting_slots = 0
        for rnd in merged.rounds:
            load: Counter = Counter()
            for call in rnd:
                for e in call.edges():
                    load[e] += 1
            conflicting_slots += sum(1 for v in load.values() if v > 1)
        # a single valid broadcast never conflicts (the simulator confirms)
        sim = LineNetworkSimulator(g, k=sh.k, bandwidth=1, strict=False)
        solo_rejections = len(sim.run(sched).rejected)
        rows.append(
            {
                "graph": f"G_{{{n},{m}}}",
                "edges used": prof.used_edges,
                "|E|": prof.graph_edges,
                "utilization": round(prof.edge_utilization, 3),
                "peak edge load (valid sched)": prof.peak_concurrency,
                "max total load/edge": prof.max_total_load,
                "solo rejections @b=1": solo_rejections,
                "merged 2-src min bandwidth": needed,
                "merged conflicting edge-slots @b=1": conflicting_slots,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E17  §5 future work: gossip under the k-line model
# ---------------------------------------------------------------------------

def _e17_claims(rows: list[dict], params: dict) -> list[str]:
    """Both gossips valid; Q_n's takes ⌈log₂N⌉ rounds, sparse no fewer."""
    fails = []
    for row in rows:
        case = f"n={row['n']}, m={row['m']}"
        q_rounds = row["Q_n rounds (k=1)"]
        if not row["Q_n valid+complete"]:
            fails.append(f"{case}: Q_n's gossip invalid or incomplete")
        if not row["sparse valid+complete"]:
            fails.append(f"{case}: the sparse gossip invalid or incomplete")
        if q_rounds != row["min rounds ⌈log₂N⌉"]:
            fails.append(f"{case}: Q_n's gossip takes {q_rounds} rounds ≠ ⌈log₂N⌉")
        if row["sparse rounds (k=3)"] < q_rounds:
            fails.append(f"{case}: the sparse gossip beats Q_n's optimum")
    return fails


@experiment("e17", "Section 5: gossip under the k-line model", claims=_e17_claims)
def experiment_e17_gossip(
    *, cases: tuple[tuple[int, int], ...] = ((4, 2), (6, 2), (8, 3), (10, 3))
) -> list[dict]:
    """Gossip round counts: Q_n dimension sweep (optimal) vs the sparse
    hypercube's relayed sweep — quantifying why §5 flags gossip as a
    separate problem."""
    from repro.gossip import (
        hypercube_gossip,
        minimum_gossip_rounds,
        sparse_hypercube_gossip,
        validate_gossip,
    )

    rows = []
    for n, m in cases:
        q = hypercube(n)
        q_sched = hypercube_gossip(n)
        q_rep = validate_gossip(q, q_sched, 1)

        sh = construct_base(n, m)
        s_sched = sparse_hypercube_gossip(sh)
        s_rep = validate_gossip(sh.graph, s_sched, 3)
        lam = sh.levels[0].num_labels
        rows.append(
            {
                "n": n,
                "m": m,
                "min rounds ⌈log₂N⌉": minimum_gossip_rounds(1 << n),
                "Q_n rounds (k=1)": q_sched.num_rounds,
                "Q_n valid+complete": q_rep.ok and q_rep.complete,
                "sparse rounds (k=3)": s_sched.num_rounds,
                "sparse valid+complete": s_rep.ok and s_rep.complete,
                "sparse slowdown": round(s_sched.num_rounds / n, 2),
                "λ (relay groups+1)": lam,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E19  robustness ablation: random edge failures + repair
# ---------------------------------------------------------------------------

def _e19_claims(rows: list[dict], params: dict) -> list[str]:
    """Repair rate non-increasing in failures; every repair is valid."""
    rates = [row["repair rate"] for row in rows]
    fails = []
    if any(a < b for a, b in zip(rates, rates[1:])):
        fails.append(f"repair rates rise with the failure count: {rates}")
    for row in rows:
        if row["repaired & valid"] != row["repaired"]:
            fails.append(
                f"f={row['failures f']}: {row['repaired & valid']} of "
                f"{row['repaired']} repaired schedules valid"
            )
    return fails


@experiment("e19", "Robustness: edge failures + repair", claims=_e19_claims)
def experiment_e19_faults(
    *,
    n: int = 8,
    m: int = 3,
    failure_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    trials: int = 40,
) -> list[dict]:
    """Repair rate of Broadcast_2 under random edge failures (E19).

    For each failure count f: sample f edges, delete them, re-route with
    the failure-aware scheme, and validate against the surviving graph.
    Expected shape: monotone decay in f; repairs fail fast once core-cube
    edges start dying (they cannot be rerouted within call length 2).
    """
    from repro.model.faults import (
        attempt_broadcast_with_failures,
        failed_edge_sample,
        remove_edges,
    )

    sh = construct_base(n, m)
    g = sh.graph
    rows = []
    for f in failure_counts:
        repaired = 0
        valid = 0
        for trial in range(trials):
            failed = failed_edge_sample(g, f, seed=1000 * f + trial)
            sched = attempt_broadcast_with_failures(sh, 0, failed)
            if sched is None:
                continue
            repaired += 1
            survivor = remove_edges(g, failed)
            if validate_broadcast(survivor, sched, sh.k).ok:
                valid += 1
        sound = "1.0" if repaired == valid else f"{valid}/{repaired}"
        rows.append(
            {
                "graph": f"G_{{{n},{m}}}",
                "|E|": g.n_edges,
                "failures f": f,
                "trials": trials,
                "repaired": repaired,
                "repair rate": round(repaired / trials, 3),
                "repaired & valid": valid,
                "soundness (valid/repaired)": sound,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E20  §5 extension: the vertex-disjoint call model
# ---------------------------------------------------------------------------

def _e20_claims(rows: list[dict], params: dict) -> list[str]:
    """Constructions are minimum-time with vertex-disjoint calls; B_3 is not."""
    construct = [row for row in rows if row["instance"].startswith("Construct")]
    tree = [row for row in rows if row["instance"].startswith("Theorem-1")]
    fails = [] if construct else ["no Construct rows"]
    for row in construct:
        if not row["minimum time"]:
            fails.append(f"{row['instance']}: not minimum time")
    if not tree or tree[0]["minimum time"]:
        fails.append("no Theorem-1 tree row, or its scheme is minimum time")
    return fails


@experiment("e20", "Section 5: vertex-disjoint calls", claims=_e20_claims)
def experiment_e20_vertex_disjoint(
    *,
    cases: tuple[tuple[int, int, tuple[int, ...]], ...] = (
        (2, 6, (2,)),
        (2, 8, (3,)),
        (3, 8, (2, 5)),
        (4, 9, (2, 4, 6)),
    ),
    sources_cap: int = 8,
) -> list[dict]:
    """§5 proposes extending the model to vertex-disjoint calls.  Result:
    the sparse-hypercube schemes *already* satisfy it (Phase-1 calls live
    in disjoint subcubes), so every construction is a k-mlbg under the
    stricter model too; the Theorem-1 tree scheme is not (its pump relays
    share intermediate vertices)."""
    from repro.core.tree_scheme import ternary_tree_schedule
    from repro.graphs.trees import balanced_ternary_core_tree

    rows = []
    for k, n, thr in cases:
        sh = construct(k, n, thr)
        g = sh.graph
        srcs = sample_sources(g.n_vertices, sources_cap)
        ok = validate_all_sources(sh, k=k, sources=srcs, vertex_disjoint=True).all_ok
        rows.append(
            {
                "instance": f"Construct({k}, n={n})",
                "model": "vertex-disjoint k-line",
                "minimum time": ok,
                "note": "subcube-disjoint Phase 1 ⇒ vertex-disjoint",
            }
        )
    # contrast: the B_3 tree scheme shares relay vertices
    h = 3
    tree = balanced_ternary_core_tree(h)
    sched = ternary_tree_schedule(h, 0)
    strict = validate_broadcast(tree, sched, 2 * h, vertex_disjoint=True)
    loose = validate_broadcast(tree, sched, 2 * h)
    rows.append(
        {
            "instance": f"Theorem-1 tree h={h}",
            "model": "vertex-disjoint k-line",
            "minimum time": strict.ok,
            "note": f"edge-disjoint model: {loose.ok}; pump relays share vertices",
        }
    )
    return rows


# ---------------------------------------------------------------------------
# E21  wormhole cycle cost: degree savings vs latency overhead
# ---------------------------------------------------------------------------

def _e21_claims(rows: list[dict], params: dict) -> list[str]:
    """k=2 costs more cycles, by a ratio that shrinks to < 5% with size."""
    q_key = next(key for key in rows[0] if key.startswith("Q_n cycles"))
    s_keys = [key for key in rows[0] if key.startswith("sparse k=2")]
    if not s_keys:
        return ["no sparse k=2 column"]
    fails = []
    for row in rows:
        if row[s_keys[0]] < row[q_key]:
            fails.append(f"{row['message flits']} flits: k=2 beats Q_n")
    ratios = [row[s_keys[0]] / row[q_key] for row in rows]
    if any(a < b for a, b in zip(ratios, ratios[1:])):
        fails.append(f"k=2 overhead ratios rise with message size: {ratios}")
    if not ratios[0] > ratios[-1]:
        fails.append("k=2 overhead does not shrink from the smallest message")
    if not ratios[-1] < 1.05:
        fails.append(f"k=2 overhead {ratios[-1]:.3f}× at the largest message")
    return fails


@experiment("e21", "Wormhole cycle cost: degree vs latency", claims=_e21_claims)
def experiment_e21_wormhole(
    *,
    n: int = 10,
    flit_sizes: tuple[int, ...] = (1, 4, 16, 64),
) -> list[dict]:
    """Cycle-accurate wormhole cost of broadcast: Q_n (k=1) vs sparse
    hypercubes (k=2, 3) across message sizes.

    The k-line model abstracts wormhole routing [7]; here we map the
    schedules back onto a flit-level simulator.  Expected shape: the
    sparse graphs pay (k−1) extra cycles per round — an overhead fraction
    that *vanishes* as messages grow, while the degree saving is constant.
    """
    from repro.schedulers.registry import ScheduleRequest, run_scheduler
    from repro.wormhole import schedule_latency

    q = hypercube(n)
    q_sched = run_scheduler(
        "store_forward", ScheduleRequest(graph=q, source=0), validate=False
    ).schedule
    sh2 = construct_base(n, theorem5_m_star(n))
    sh2_sched = broadcast_schedule(sh2, 0)
    sh3 = construct(3, n, theorem7_params(3, n))
    sh3_sched = broadcast_schedule(sh3, 0)

    rows = []
    for flits in flit_sizes:
        lat_q = schedule_latency(q, q_sched, flits)
        lat_2 = schedule_latency(sh2.graph, sh2_sched, flits)
        lat_3 = schedule_latency(sh3.graph, sh3_sched, flits)
        base = lat_q.total_cycles
        rows.append(
            {
                "message flits": flits,
                f"Q_n cycles (Δ={n})": lat_q.total_cycles,
                f"sparse k=2 cycles (Δ={sh2.degree_formula()})": lat_2.total_cycles,
                f"sparse k=3 cycles (Δ={sh3.degree_formula()})": lat_3.total_cycles,
                "k=2 overhead": f"{100 * (lat_2.total_cycles / base - 1):.0f}%",
                "k=3 overhead": f"{100 * (lat_3.total_cycles / base - 1):.0f}%",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E22  multi-message broadcast (the [24] extension)
# ---------------------------------------------------------------------------

def _e22_claims(rows: list[dict], params: dict) -> list[str]:
    """Two messages: Q_3 (k=1) meets its bound of 5 rounds; G_{3,1} (k=2) too."""
    by_instance = {row["instance"]: row for row in rows}
    q3 = by_instance["Q_3, M=2, k=1 (exact search)"]
    sparse = by_instance["G_{3,1}, M=2, k=2 (exact search)"]
    fails = []
    if not q3["rounds"].startswith("5"):
        fails.append(f"Q_3: {q3['rounds']} rounds, not 5")
    if q3["lower bound"] != 5:
        fails.append(f"Q_3: lower bound {q3['lower bound']} ≠ 5")
    if sparse["rounds"] != "5":
        fails.append(f"G_{{3,1}}: {sparse['rounds']} rounds, not 5")
    return fails


@experiment("e22", "Multiple messages broadcasting ([24])", claims=_e22_claims)
def experiment_e22_multimessage() -> list[dict]:
    """Multiple messages from one source: pipelining the paper's scheme is
    impossible (saturated callers), but genuine multi-message schedules
    beat serial — exact results on small instances."""
    from repro.multimsg import minimal_valid_stagger
    from repro.schedulers import (
        find_multimessage_schedule,
        multimessage_lower_bound,
        validate_multimessage,
    )

    rows = []
    # (a) scheme pipelining: d* always equals n (fully serial)
    for n, m in ((4, 2), (6, 3)):
        sh = construct_base(n, m)
        rows.append(
            {
                "instance": f"G_{{{n},{m}}} scheme pipeline (M=2)",
                "rounds": f"d*={minimal_valid_stagger(sh, 0)} → serial {2 * n}",
                "lower bound": multimessage_lower_bound(1 << n, 2),
                "note": "every vertex calls every round — no slack",
            }
        )
    # (b) exact multi-message schedules on small instances
    g3 = hypercube(3)
    assert find_multimessage_schedule(g3, 0, 1, 2, 4) is None
    found = find_multimessage_schedule(g3, 0, 1, 2, 5)
    assert found is not None and validate_multimessage(g3, found, 1) == []
    rows.append(
        {
            "instance": "Q_3, M=2, k=1 (exact search)",
            "rounds": "5 (4 refuted)",
            "lower bound": multimessage_lower_bound(8, 2),
            "note": "tight: bound = search; serial = 6",
        }
    )
    sh31 = construct_base(3, 1)
    found_sparse = find_multimessage_schedule(sh31.graph, 0, 2, 2, 5)
    ok = (
        found_sparse is not None
        and validate_multimessage(sh31.graph, found_sparse, 2) == []
    )
    rows.append(
        {
            "instance": "G_{3,1}, M=2, k=2 (exact search)",
            "rounds": "5" if ok else "not found",
            "lower bound": multimessage_lower_bound(8, 2),
            "note": "sparse graph matches Q_3's multi-message time",
        }
    )
    return rows
