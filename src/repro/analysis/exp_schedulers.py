"""E23: scheduler-registry cross-check.

Runs every requested registry scheduler on a shared set of small
(graph, k) instances and reports round counts, validity, and agreement —
the machine check that the engine-backed strategies are interchangeable
where their domains overlap: whenever the greedy heuristic finds a
schedule, the exact search must find one of the same (minimum) length,
and every returned schedule must pass the reference validator.

Schedulers are selected **by registry name** (the ``schedulers``
parameter), so the experiment doubles as an integration test of the
registry plumbing used by ``repro schedule``.
"""

from __future__ import annotations

from repro.analysis.registry import experiment
from repro.graphs.specs import graph_from_spec
from repro.schedulers.registry import ScheduleRequest, run_scheduler

__all__ = ["experiment_e23_scheduler_registry"]

# (graph spec, k or None=unbounded) — small enough for the exact search.
_DEFAULT_CASES = (
    ("path:8", 2),
    ("path:8", None),
    ("star:8", 2),
    ("theorem1:2", 4),
    ("hypercube:2", 1),
    ("hypercube:3", 1),
    ("hypercube:3", 2),
)


def _e23_claims(rows: list[dict], params: dict) -> list[str]:
    """Every found schedule is valid, and the schedulers agree on rounds."""
    fails = []
    for row in rows:
        case = f"{row['graph']} (k={row['k']})"
        if not row["valid"]:
            fails.append(f"{case}: invalid schedule")
        if not row["agree"]:
            fails.append(f"{case}: round counts disagree")
    return fails


@experiment("e23", "Scheduler registry cross-check", claims=_e23_claims)
def experiment_e23_scheduler_registry(
    *,
    cases: tuple = _DEFAULT_CASES,
    schedulers: tuple[str, ...] = ("greedy", "search"),
    seed: int = 0,
    restarts: int = 100,
) -> list[dict]:
    rows: list[dict] = []
    for spec, k in cases:
        graph = graph_from_spec(spec)
        row: dict = {
            "graph": spec,
            "n": graph.n_vertices,
            "k": "inf" if k is None else k,
        }
        found_rounds: list[int] = []
        all_valid = True
        for name in schedulers:
            params = {"restarts": restarts} if name == "greedy" else {}
            result = run_scheduler(
                name,
                ScheduleRequest(graph=graph, source=0, k=k, seed=seed, params=params),
            )
            row[f"rounds_{name}"] = (
                result.rounds if result.schedule is not None else -1
            )
            if result.schedule is not None:
                found_rounds.append(result.rounds)
                if result.valid is not True:
                    all_valid = False
        row["valid"] = all_valid
        row["agree"] = len(set(found_rounds)) <= 1
        rows.append(row)
    return rows
