"""Theorem-checking experiments: the machine-checked sweeps behind
Theorems 4–7 and the k = 1 baseline (E09, E10, E12, E13, E16).

These are the validation-bound hot paths, so the source sweeps (E09,
E12) run the batch all-sources engine (:mod:`repro.engine.batch`):
schedules are generated once per coset of the construction's translation
group and XOR-translated to the sampled sources, then checked by the
fast validator — per-source verdicts are identical to the per-source
``broadcast_schedule`` + fast-validator loop by construction (and pinned
by the property tests); the reference validator stays the oracle in the
test suite.  Single-schedule checks (E16) share per-graph validators
through the process-wide kernel cache (:mod:`repro.engine.cache`).
"""

from __future__ import annotations

import math

from repro.analysis.common import sample_sources
from repro.analysis.registry import experiment
from repro.core.bounds import (
    degree_lower_bound,
    lower_bound_theorem2,
    upper_bound_corollary1,
    upper_bound_theorem5,
    upper_bound_theorem7,
)
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.core.params import (
    degree_formula_for_thresholds,
    improved_params_k3,
    optimized_params,
    theorem5_m_star,
    theorem7_params,
)
from repro.engine.batch import validate_all_sources
from repro.engine.cache import fast_validator_for
from repro.graphs.hypercube import hypercube
from repro.schedulers.registry import ScheduleRequest, run_scheduler

__all__ = [
    "experiment_e09_broadcast2",
    "experiment_e10_theorem5",
    "experiment_e12_broadcastk",
    "experiment_e13_theorem7",
    "experiment_e16_baseline_k1",
]


# ---------------------------------------------------------------------------
# E09  Theorem 4 (Broadcast_2 sweep)
# ---------------------------------------------------------------------------

def _e09_claims(rows: list[dict], params: dict) -> list[str]:
    """Theorem 4: Broadcast_2 is a valid n-round 2-line broadcast."""
    fails = [] if rows else ["no (n, m) swept"]
    for row in rows:
        case = f"G_{{{row['n']},{row['m']}}}"
        if not row["valid (≤2)"]:
            fails.append(f"{case}: not a valid minimum-time 2-line broadcast")
        if row["max call len"] > 2:
            fails.append(f"{case}: a call of length {row['max call len']} > 2")
        if row["rounds"] != row["n"]:
            fails.append(f"{case}: {row['rounds']} rounds ≠ n")
    return fails


@experiment("e09", "Theorem 4: Broadcast_2 sweep", claims=_e09_claims)
def experiment_e09_broadcast2(
    *, n_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 10, 12), sources_cap: int = 16
) -> list[dict]:
    """Broadcast_2 validity sweep: all (n, m) with m < n ≤ 8 exhaustive in
    sources for small n, sampled above."""
    rows = []
    for n in n_values:
        for m in range(1, n):
            sh = construct_base(n, m)
            g = sh.graph
            srcs = sample_sources(g.n_vertices, sources_cap)
            outcome = validate_all_sources(sh, k=2, sources=srcs)
            ok = outcome.all_ok and all(r == n for r in outcome.rounds)
            max_len = outcome.max_call_length
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "N": g.n_vertices,
                    "Δ": sh.degree_formula(),
                    "sources": len(srcs),
                    "rounds": n,
                    "max call len": max_len,
                    "valid (≤2)": ok,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E10  Theorem 5
# ---------------------------------------------------------------------------

def _e10_claims(rows: list[dict], params: dict) -> list[str]:
    """Theorem 5: ⌈√n⌉ ≤ Δ ≤ min(bound, n); the remark rows reach Δ = 2m."""
    fails = []
    for row in rows:
        n, delta = row["n"], row["Δ measured"]
        if not row["Δ ≤ bound"]:
            fails.append(f"n={n}: Δ = {delta} above Theorem 5's bound")
        if not row["lower ⌈√n⌉"] <= delta <= row["Δ(Q_n)"]:
            fails.append(f"n={n}: Δ = {delta} outside [⌈√n⌉, n]")
    remark = [row for row in rows if str(row["case"]).startswith("remark")]
    if not remark:
        fails.append("no n = m(m+2) remark rows")
    for row in remark:
        if row["Δ measured"] != 2 * row["m*"]:
            fails.append(f"n={row['n']}: remark Δ = {row['Δ measured']} ≠ 2m")
    return fails


@experiment("e10", "Theorem 5: k=2 degree bound", claims=_e10_claims)
def experiment_e10_theorem5(
    *, n_values: tuple[int, ...] = tuple(range(2, 65, 4))
) -> list[dict]:
    """Δ of Construct_BASE(n, m*) vs Theorem 5's bound and the Theorem 2
    lower bound; plus the n = m(m+2) remark rows (Δ = 2m < 2√n)."""
    rows = []
    for n in n_values:
        m = theorem5_m_star(n)
        delta = degree_formula_for_thresholds(n, (m,))
        bound = upper_bound_theorem5(n)
        rows.append(
            {
                "n": n,
                "m*": m,
                "Δ measured": delta,
                "thm5 bound": bound,
                "Δ ≤ bound": delta <= bound,
                "lower ⌈√n⌉": lower_bound_theorem2(n, 2),
                "Δ(Q_n)": n,
                "case": "m*",
            }
        )
    # the remark: λ_m = m+1 (m = 2^p − 1) and n = m(m+2) give Δ = 2m < 2√n
    for m in (3, 7):
        n = m * (m + 2)
        delta = degree_formula_for_thresholds(n, (m,))
        rows.append(
            {
                "n": n,
                "m*": m,
                "Δ measured": delta,
                "thm5 bound": upper_bound_theorem5(n),
                "Δ ≤ bound": delta <= upper_bound_theorem5(n),
                "lower ⌈√n⌉": lower_bound_theorem2(n, 2),
                "Δ(Q_n)": n,
                "case": f"remark n=m(m+2), 2m={2*m} < 2√n={2*math.sqrt(n):.2f}",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E12  Theorem 6 (Broadcast_k sweep)
# ---------------------------------------------------------------------------

def _e12_claims(rows: list[dict], params: dict) -> list[str]:
    """Theorem 6: Broadcast_k is a valid minimum-time k-line broadcast."""
    fails = [] if rows else ["no construction swept"]
    for row in rows:
        case = f"k={row['k']}, n={row['n']}"
        if not row["valid (≤k)"]:
            fails.append(f"{case}: not a valid minimum-time k-line broadcast")
        if row["max call len"] > row["k"]:
            fails.append(f"{case}: a call of length {row['max call len']} > k")
    return fails


@experiment("e12", "Theorem 6: Broadcast_k sweep", claims=_e12_claims)
def experiment_e12_broadcastk(
    *,
    cases: tuple[tuple[int, int, tuple[int, ...]], ...] = (
        (3, 7, (2, 4)),
        (3, 9, (2, 5)),
        (3, 11, (3, 6)),
        (4, 9, (2, 4, 6)),
        (4, 12, (2, 5, 8)),
        (5, 12, (2, 4, 7, 9)),
    ),
    sources_cap: int = 12,
) -> list[dict]:
    """Broadcast_k validity across k = 3, 4, 5 constructions."""
    rows = []
    for k, n, thresholds in cases:
        sh = construct(k, n, thresholds)
        g = sh.graph
        srcs = sample_sources(g.n_vertices, sources_cap)
        outcome = validate_all_sources(sh, k=k, sources=srcs)
        ok = outcome.all_ok and all(r == n for r in outcome.rounds)
        max_len = outcome.max_call_length
        rows.append(
            {
                "k": k,
                "n": n,
                "thresholds": str(thresholds),
                "N": g.n_vertices,
                "Δ": sh.degree_formula(),
                "sources": len(srcs),
                "max call len": max_len,
                "valid (≤k)": ok,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E13  Theorem 7 + Corollaries
# ---------------------------------------------------------------------------

def _e13_claims(rows: list[dict], params: dict) -> list[str]:
    """Theorem 7: lower bound ≤ analytic Δ ≤ bound; optimized ≤ analytic."""
    fails = []
    for row in rows:
        case, analytic = f"k={row['k']}, n={row['n']}", row["Δ analytic"]
        if not row["Δ ≤ bound"]:
            fails.append(f"{case}: Δ = {analytic} above the bound")
        if row["lower bound"] > analytic:
            fails.append(f"{case}: Δ = {analytic} below the lower bound")
        if isinstance(row["Δ optimized"], int) and row["Δ optimized"] > analytic:
            fails.append(f"{case}: optimized Δ = {row['Δ optimized']} > analytic")
    return fails


@experiment("e13", "Theorem 7 + corollaries: general k", claims=_e13_claims)
def experiment_e13_theorem7(
    *,
    ks: tuple[int, ...] = (3, 4, 5),
    n_values: tuple[int, ...] = (8, 16, 24, 32, 48, 64),
) -> list[dict]:
    """Δ with Theorem 7's analytic parameters vs the bound, the improved
    k = 3 parameters, and the exhaustively optimized thresholds."""
    rows = []
    for k in ks:
        for n in n_values:
            if n <= k:
                continue
            analytic = theorem7_params(k, n)
            d_analytic = degree_formula_for_thresholds(n, analytic)
            bound = upper_bound_theorem7(n, k)
            opt = optimized_params(k, n, exhaustive_limit=60_000)
            d_opt = degree_formula_for_thresholds(n, opt)
            row = {
                "k": k,
                "n": n,
                "analytic n_i*": str(analytic),
                "Δ analytic": d_analytic,
                "thm7 bound": bound,
                "Δ ≤ bound": d_analytic <= bound,
                "Δ optimized": d_opt,
                "lower bound": degree_lower_bound(n, k),
            }
            if k == 3 and n >= 8:
                imp = improved_params_k3(n)
                row["Δ improved-k3"] = degree_formula_for_thresholds(n, imp)
            rows.append(row)
    # Corollary 1 row: k = ⌈log2 n⌉
    for n in (16, 32, 64):
        k = math.ceil(math.log2(n))
        if n > k >= 3:
            params = theorem7_params(k, n)
            rows.append(
                {
                    "k": k,
                    "n": n,
                    "analytic n_i*": str(params),
                    "Δ analytic": degree_formula_for_thresholds(n, params),
                    "thm7 bound": upper_bound_corollary1(n),
                    "Δ ≤ bound": degree_formula_for_thresholds(n, params)
                    <= upper_bound_corollary1(n),
                    "Δ optimized": "-",
                    "lower bound": degree_lower_bound(n, k),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E16  k = 1 baseline
# ---------------------------------------------------------------------------

def _e16_claims(rows: list[dict], params: dict) -> list[str]:
    """Q_n broadcasts at k=1; the sparse scheme needs k=2; sparse Δ ≤ n."""
    fails = []
    for row in rows:
        n = row["n"]
        if not row["Q_n binomial valid @k=1"]:
            fails.append(f"n={n}: Q_n's binomial broadcast invalid at k=1")
        if row["sparse sched valid @k=1"]:
            fails.append(f"n={n}: the sparse scheme is valid at k=1")
        if not row["sparse sched valid @k=2"]:
            fails.append(f"n={n}: the sparse scheme is invalid at k=2")
        if row["sparse Δ"] > row["Δ(Q_n)"]:
            fails.append(f"n={n}: sparse Δ = {row['sparse Δ']} > n")
    return fails


@experiment("e16", "k=1 store-and-forward baseline", claims=_e16_claims)
def experiment_e16_baseline_k1(
    *, n_values: tuple[int, ...] = (4, 6, 8, 10)
) -> list[dict]:
    """Store-and-forward baseline: Q_n broadcasts in n rounds at k = 1;
    the sparse hypercube needs k = 2 (its schedule contains length-2
    calls, and at k = 1 the validator rejects it)."""
    rows = []
    for n in n_values:
        g = hypercube(n)
        sched = run_scheduler(
            "store_forward",
            ScheduleRequest(graph=g, source=0),
            validate=False,
        ).schedule
        rep1 = fast_validator_for(g).validate(sched, 1)
        m = theorem5_m_star(n)
        sh = construct_base(n, m)
        sparse_sched = broadcast_schedule(sh, 0)
        sparse_validator = fast_validator_for(sh.graph)
        rep_sparse_k1 = sparse_validator.validate(sparse_sched, 1)
        rep_sparse_k2 = sparse_validator.validate(sparse_sched, 2)
        rows.append(
            {
                "n": n,
                "Q_n binomial valid @k=1": rep1.ok,
                "Δ(Q_n)": n,
                "sparse Δ": sh.degree_formula(),
                "sparse sched valid @k=1": rep_sparse_k1.ok,
                "sparse sched valid @k=2": rep_sparse_k2.ok,
                "degree saving": f"{n}→{sh.degree_formula()}",
            }
        )
    return rows
