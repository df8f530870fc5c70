"""Foundations experiments: trees, lower bounds, labelings (E01–E05).

Every function registers itself with the experiment registry, together
with the check of its paper claims, and returns plain ``list[dict]``
rows.
"""

from __future__ import annotations

import math

from repro.analysis.common import sample_sources
from repro.analysis.registry import experiment
from repro.core.bounds import (
    lower_bound_theorem2,
    lower_bound_theorem3,
    moore_degree_lower_bound,
    theorem1_minimum_k,
)
from repro.core.tree_mlbg import theorem1_k, theorem1_tree, verify_theorem1_instance
from repro.domination.domatic import condition_a_max_labels
from repro.domination.labeling import (
    best_available_labeling,
    hamming_labeling,
    lemma2_lower_bound,
    paper_example_labeling_q2,
    paper_example_labeling_q3,
)

__all__ = [
    "experiment_e01_theorem1",
    "experiment_e02_lower_bounds",
    "experiment_e04_labelings",
    "experiment_e05_lambda_m",
]


# ---------------------------------------------------------------------------
# E01  Fig. 1 + Theorem 1
# ---------------------------------------------------------------------------

def _e01_claims(rows: list[dict], params: dict) -> list[str]:
    """Theorem 1 on each B_h; minimum time checked for h ≤ schedule_h."""
    fails = []
    for row in rows:
        h = row["h"]
        if row["Δ (≤3)"] > 3:
            fails.append(f"h={h}: Δ = {row['Δ (≤3)']} > 3")
        if row["diam (≤2h)"] > 2 * h:
            fails.append(f"h={h}: diameter {row['diam (≤2h)']} > 2h")
        if row["N=3·2^h−2"] != 3 * 2**h - 2:
            fails.append(f"h={h}: N = {row['N=3·2^h−2']} ≠ 3·2^h − 2")
        if row["thm1 min k for N"] != row["k=2h"]:
            fails.append(f"h={h}: minimum k {row['thm1 min k for N']} ≠ 2h")
        if h <= params["schedule_h"] and not row["min-time verified"]:
            fails.append(f"h={h}: minimum time not verified")
    return fails


@experiment("e01", "Fig. 1 + Theorem 1: Δ≤3 trees", claims=_e01_claims)
def experiment_e01_theorem1(
    *, max_h: int = 6, schedule_h: int = 5, sources_cap: int = 12
) -> list[dict]:
    """Theorem 1: B_h structure for h ≤ max_h; minimum-time schedules
    machine-checked for h ≤ schedule_h (sampled sources above a cap)."""
    rows = []
    for h in range(1, max_h + 1):
        tree = theorem1_tree(h)
        n = tree.n_vertices
        row = {
            "h": h,
            "N=3·2^h−2": n,
            "Δ (≤3)": tree.max_degree(),
            "diam (≤2h)": tree.diameter(),
            "k=2h": theorem1_k(h),
            "thm1 min k for N": theorem1_minimum_k(n),
        }
        if h <= schedule_h:
            srcs = sample_sources(n, sources_cap)
            rep = verify_theorem1_instance(h, sources=srcs)
            row["rounds=⌈log₂N⌉"] = rep["rounds"]
            row["sources checked"] = rep["sources_checked"]
            row["min-time verified"] = True
        else:
            row["rounds=⌈log₂N⌉"] = math.ceil(math.log2(n))
            row["sources checked"] = 0
            row["min-time verified"] = False
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E02/E03  Theorems 2 and 3 (lower bounds)
# ---------------------------------------------------------------------------

def _e02_claims(rows: list[dict], params: dict) -> list[str]:
    """Theorems 2–3: bounds fall with k; ball ≥ Theorem 2; Theorem 3 ≥ 3."""
    fails = []
    for row in rows:
        n = row["n (N=2^n)"]
        if n < 1:
            fails.append(f"n={n}: n < 1")
        bounds = [row["k=1 (Δ≥n)"]] + [row[f"k={k} thm2"] for k in (2, 3, 4)]
        if any(a < b for a, b in zip(bounds, bounds[1:])):
            fails.append(f"n={n}: the bounds for k = 1..4 rise with k: {bounds}")
        for k in (2, 3, 4):
            if row[f"k={k} ball"] < row[f"k={k} thm2"]:
                fails.append(f"n={n}: k={k} ball bound below Theorem 2's")
        if isinstance(row["k=5 thm3"], int) and row["k=5 thm3"] < 3:
            fails.append(f"n={n}: Theorem 3's k=5 bound {row['k=5 thm3']} < 3")
    return fails


@experiment("e02", "Theorems 2–3: degree lower bounds", claims=_e02_claims)
def experiment_e02_lower_bounds(
    *, n_values: tuple[int, ...] = (4, 9, 16, 25, 36, 49, 64)
) -> list[dict]:
    """Degree lower bounds: paper closed forms vs the exact ball bound."""
    rows = []
    for n in n_values:
        row: dict = {"n (N=2^n)": n, "k=1 (Δ≥n)": n}
        for k in (2, 3, 4):
            row[f"k={k} thm2"] = lower_bound_theorem2(n, k)
            row[f"k={k} ball"] = moore_degree_lower_bound(n, k)
        for k in (5, 6):
            if n > k:
                row[f"k={k} thm3"] = lower_bound_theorem3(n, k)
            else:
                row[f"k={k} thm3"] = "-"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E04  Example 1 labelings
# ---------------------------------------------------------------------------

def _e04_claims(rows: list[dict], params: dict) -> list[str]:
    """Example 1: Condition A holds; Q₂ and Q₃ use the optimal 2 and 4 labels."""
    fails = [
        f"{row['labeling']}: Condition A fails"
        for row in rows
        if not row["Condition A"]
    ]
    for row, optimum in ((rows[0], 2), (rows[1], 4)):
        if not row["labels"] == row["optimal λ_m"] == optimum:
            fails.append(
                f"{row['labeling']}: {row['labels']} labels, optimum "
                f"{row['optimal λ_m']}, paper {optimum}"
            )
    return fails


@experiment("e04", "Example 1: optimal labelings of Q2/Q3", claims=_e04_claims)
def experiment_e04_labelings() -> list[dict]:
    """Example 1: the paper's labelings of Q₂ and Q₃ satisfy Condition A
    and are optimal (λ₂ = 2, λ₃ = 4, by exhaustive search)."""
    q2 = paper_example_labeling_q2()
    q3 = paper_example_labeling_q3()
    ham3 = hamming_labeling(3)
    # paper's Q3 labeling equals the Hamming syndrome labeling up to label renaming
    renaming_consistent = len(
        {(q3.label_of(u), ham3.label_of(u)) for u in range(8)}
    ) == 4
    rows = [
        {
            "labeling": "Example 1 Q₂ (parity)",
            "labels": q2.num_labels,
            "Condition A": q2.verify(),
            "optimal λ_m": condition_a_max_labels(2),
        },
        {
            "labeling": "Example 1 Q₃ (complement pairs)",
            "labels": q3.num_labels,
            "Condition A": q3.verify(),
            "optimal λ_m": condition_a_max_labels(3),
        },
        {
            "labeling": "Hamming syndrome Q₃",
            "labels": ham3.num_labels,
            "Condition A": ham3.verify(),
            "optimal λ_m": 4 if renaming_consistent else -1,
        },
    ]
    return rows


# ---------------------------------------------------------------------------
# E05  Lemma 2 (λ_m bounds)
# ---------------------------------------------------------------------------

def _e05_claims(rows: list[dict], params: dict) -> list[str]:
    """Lemma 2: ⌊m/2⌋+1 ≤ constructed ≤ exact λ_m ≤ m+1; λ₂, λ₃, λ₄ = 2, 4, 4."""
    fails = []
    for row in rows:
        m, built, exact = row["m"], row["constructed labels"], row["exact λ_m"]
        if not row["Lemma2 lower ⌊m/2⌋+1"] <= built <= row["upper m+1"]:
            fails.append(f"m={m}: {built} labels outside Lemma 2's bounds")
        if isinstance(exact, int) and not built <= exact <= row["upper m+1"]:
            fails.append(f"m={m}: exact λ_m = {exact} outside [{built}, m+1]")
    by_m = {row["m"]: row for row in rows}
    for m, lam in ((2, 2), (3, 4), (4, 4)):
        row = by_m.get(m, {})
        found = (row.get("exact λ_m"), row.get("constructed labels"))
        if found != (lam, lam):
            fails.append(f"m={m}: (exact λ_m, constructed) = {found}, not {lam}")
    return fails


@experiment("e05", "Lemma 2: λ_m bounds", claims=_e05_claims)
def experiment_e05_lambda_m(*, max_m: int = 9, exact_max_m: int = 4) -> list[dict]:
    """λ_m: Lemma 2's bounds vs the library's constructed label counts,
    with exact values (domatic search) for small m."""
    rows = []
    for m in range(1, max_m + 1):
        lab = best_available_labeling(m)
        assert lab.verify()
        row = {
            "m": m,
            "Lemma2 lower ⌊m/2⌋+1": lemma2_lower_bound(m),
            "constructed labels": lab.num_labels,
            "upper m+1": m + 1,
            "labeling": lab.name,
            "exact λ_m": condition_a_max_labels(m) if m <= exact_max_m else "-",
        }
        rows.append(row)
    return rows
