"""One scenario of a campaign: graph × scheduler × k × sources × condition.

A :class:`Scenario` is a single point of a campaign grid
(:mod:`repro.analysis.campaigns`): a textual graph spec
(:mod:`repro.graphs.specs`), a scheduler — any registry name from
:mod:`repro.schedulers.registry` plus the pseudo-scheduler ``scheme``
(the paper's own ``Broadcast_k`` construction scheme, executed through
the batch all-sources engine) — a call-length bound ``k``, a
source-sampling policy, and an injected *condition*:

``none``
    run on the intact graph;
``edge-faults:F``
    delete ``F`` seeded-random edges first (:mod:`repro.model.faults`);
    for ``scheme`` scenarios the failure-aware re-router
    (:func:`attempt_broadcast_with_failures`) measures the repair rate,
    for registry schedulers the strategy simply faces the survivor graph;
``congestion:B``
    schedule on the intact graph, then account edge congestion
    (:mod:`repro.model.congestion`) and re-execute under per-edge
    bandwidth ``B`` with the simulator, recording rejections.

:func:`run_scenario` returns **one deterministic row** of JSON scalars —
no wall-clock, no environment — which is what lets sharded campaign runs
merge byte-identically (timing lives in the campaign manifest instead).
Every found schedule is reference-validated: registry schedulers via
``run_scheduler(validate=True)``, scheme scenarios via the fast
validator (reference-equal by construction) or
:func:`validate_broadcast` directly on the survivor graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.specs import parse_spec, validate_spec
from repro.types import InvalidParameterError, ReproError

__all__ = [
    "Scenario",
    "SCHEME_SCHEDULER",
    "parse_condition",
    "parse_sources_policy",
    "sources_for",
    "scenario_id",
    "validate_scenario",
    "run_scenario",
    "cached_graph",
    "cached_construct",
    "scenario_cache_info",
    "clear_scenario_caches",
    "warm_scenario_caches",
]

SCHEME_SCHEDULER = "scheme"

_CONDITION_KINDS = ("none", "edge-faults", "congestion")


@dataclass(frozen=True)
class Scenario:
    """One grid point, fully determined by its fields (plus the seed the
    campaign derived from them)."""

    campaign: str
    index: int
    graph: str
    scheduler: str
    k: int | None
    sources: str
    condition: str
    seed: int

    @property
    def scenario_id(self) -> str:
        return scenario_id(
            self.graph, self.scheduler, self.k, self.sources, self.condition
        )


def scenario_id(
    graph: str, scheduler: str, k: int | None, sources: str, condition: str
) -> str:
    """Stable human-readable identity of a grid point (no campaign name,
    no index) — the unit both seeds and cache keys derive from."""
    k_part = "inf" if k is None else str(k)
    return f"g={graph};s={scheduler};k={k_part};src={sources};cond={condition}"


def parse_condition(condition: str) -> tuple[str, int]:
    """Split ``condition`` into ``(kind, argument)``.

    ``none`` has argument 0; ``edge-faults:F`` needs F >= 1; and
    ``congestion:B`` needs bandwidth B >= 1 (default 1).
    """
    kind, _, rest = condition.partition(":")
    kind = kind.strip().lower()
    if kind not in _CONDITION_KINDS:
        raise InvalidParameterError(
            f"unknown condition {condition!r}; known kinds: "
            + ", ".join(_CONDITION_KINDS)
        )
    if kind == "none":
        if rest:
            raise InvalidParameterError(
                f"condition 'none' takes no argument, got {condition!r}"
            )
        return kind, 0
    if not rest:
        if kind == "congestion":
            return kind, 1
        raise InvalidParameterError(
            f"condition {condition!r} needs an argument (e.g. 'edge-faults:2')"
        )
    try:
        arg = int(rest)
    except ValueError:
        raise InvalidParameterError(
            f"condition argument must be an integer: {condition!r}"
        ) from None
    if arg < 1:
        raise InvalidParameterError(f"condition argument must be >= 1: {condition!r}")
    return kind, arg


def parse_sources_policy(policy: str) -> tuple[str, int]:
    """Split a sources policy into ``(kind, argument)``.

    ``first`` (source 0 only), ``sample:CAP`` (deterministic spread via
    :func:`repro.analysis.common.sample_sources`), ``all`` (every
    vertex).
    """
    kind, _, rest = policy.partition(":")
    kind = kind.strip().lower()
    if kind == "first":
        if rest:
            raise InvalidParameterError(
                f"sources policy 'first' takes no argument, got {policy!r}"
            )
        return kind, 0
    if kind == "all":
        if rest:
            raise InvalidParameterError(
                f"sources policy 'all' takes no argument, got {policy!r}"
            )
        return kind, 0
    if kind == "sample":
        try:
            cap = int(rest) if rest else 16
        except ValueError:
            raise InvalidParameterError(
                f"sample cap must be an integer: {policy!r}"
            ) from None
        if cap < 2:
            raise InvalidParameterError(f"sample cap must be >= 2: {policy!r}")
        return kind, cap
    raise InvalidParameterError(
        f"unknown sources policy {policy!r}; known: first, sample:CAP, all"
    )


def sources_for(policy: str, n_vertices: int) -> list[int]:
    """The concrete source list a policy selects on an N-vertex graph."""
    from repro.analysis.common import sample_sources

    kind, arg = parse_sources_policy(policy)
    if kind == "first":
        return [0]
    if kind == "all":
        return list(range(n_vertices))
    return sample_sources(n_vertices, arg)


def validate_scenario(sc: Scenario) -> None:
    """Reject malformed scenarios without running anything.

    Checks the graph spec (family + arity), the scheduler name against
    the registry (plus ``scheme``, which additionally requires a
    ``sparse:N:M`` graph), and the sources/condition grammars.  Campaign
    expansion calls this for the whole grid upfront so a bad axis value
    fails the run before the first scenario executes.
    """
    validate_spec(sc.graph)
    parse_sources_policy(sc.sources)
    parse_condition(sc.condition)
    if sc.scheduler == SCHEME_SCHEDULER:
        family, _args = parse_spec(sc.graph)
        if family != "sparse":
            raise InvalidParameterError(
                f"scheduler 'scheme' needs a sparse:N:M graph spec, "
                f"got {sc.graph!r}"
            )
    else:
        from repro.schedulers import registry as sched_registry

        if sc.scheduler not in sched_registry.scheduler_names():
            raise InvalidParameterError(
                f"unknown scheduler {sc.scheduler!r}; known: "
                + ", ".join([*sched_registry.scheduler_names(), SCHEME_SCHEDULER])
            )
    if sc.k is not None and (isinstance(sc.k, bool) or sc.k < 1):
        raise InvalidParameterError(f"k must be an integer >= 1 or None, got {sc.k!r}")


# -- per-process instance caches ---------------------------------------------
#
# A campaign grid reuses a handful of graph specs across many scenarios,
# but scenarios execute independently (possibly in pool workers), so
# without memoization every scenario rebuilds its graph/construction from
# scratch — and, because the engine cache (repro.engine.cache) is
# identity-keyed on the graph object, it misses every time too.  These
# spec-keyed caches make repeated scenarios on one graph share a single
# frozen instance per process; warm_scenario_caches is the pool
# initializer that pays the build cost once per worker, before the first
# task lands.

_GRAPH_CACHE: dict[str, object] = {}
_CONSTRUCT_CACHE: dict[str, object] = {}
_CACHE_HITS = {"graph": 0, "construct": 0}
_CACHE_MISSES = {"graph": 0, "construct": 0}


def cached_graph(spec: str):
    """The graph for ``spec``, built at most once per process."""
    from repro.graphs.specs import graph_from_spec

    graph = _GRAPH_CACHE.get(spec)
    if graph is None:
        _CACHE_MISSES["graph"] += 1
        graph = graph_from_spec(spec)
        _GRAPH_CACHE[spec] = graph
    else:
        _CACHE_HITS["graph"] += 1
    return graph


def cached_construct(spec: str):
    """The ``construct_base`` instance for ``spec`` (scheme scenarios),
    built at most once per process."""
    from repro.core.construct import construct_base

    sh = _CONSTRUCT_CACHE.get(spec)
    if sh is None:
        _CACHE_MISSES["construct"] += 1
        _family, args = parse_spec(spec)
        sh = construct_base(*args)
        _ = sh.graph  # materialize (and freeze) eagerly
        _CONSTRUCT_CACHE[spec] = sh
    else:
        _CACHE_HITS["construct"] += 1
    return sh


def scenario_cache_info() -> dict:
    """Hit/miss counters of this process's scenario instance caches."""
    return {
        "graph_entries": len(_GRAPH_CACHE),
        "construct_entries": len(_CONSTRUCT_CACHE),
        "graph_hits": _CACHE_HITS["graph"],
        "graph_misses": _CACHE_MISSES["graph"],
        "construct_hits": _CACHE_HITS["construct"],
        "construct_misses": _CACHE_MISSES["construct"],
    }


def clear_scenario_caches() -> None:
    """Drop the caches and zero the counters (tests)."""
    _GRAPH_CACHE.clear()
    _CONSTRUCT_CACHE.clear()
    for key in _CACHE_HITS:
        _CACHE_HITS[key] = 0
        _CACHE_MISSES[key] = 0


def warm_scenario_caches(pairs: tuple[tuple[str, bool], ...]) -> None:
    """Pool initializer: pre-build instances + kernels once per worker.

    ``pairs`` is a sorted tuple of ``(graph_spec, is_scheme)`` — small
    and picklable, per the pool policy.  For each pair the graph (or
    construction) is built into the spec-keyed cache and the per-graph
    validators are built into the engine cache, so the worker's first
    scenario starts hot instead of paying the whole build cost inside
    its task.  Runs in-process for ``jobs == 1``, keeping serial and
    parallel campaign executions on the same warm path.
    """
    from repro.engine.cache import fast_validator_for

    for spec, is_scheme in pairs:
        graph = cached_construct(spec).graph if is_scheme else cached_graph(spec)
        fast_validator_for(graph)


# -- execution ---------------------------------------------------------------


def _scheme_rows(sc: Scenario, cond_kind: str, cond_arg: int) -> dict:
    """Execute a ``scheme`` scenario: the paper's Broadcast_k scheme on a
    sparse hypercube, through the batch engine where possible."""
    sh = cached_construct(sc.graph)
    graph = sh.graph
    k_eff = sc.k if sc.k is not None else sh.k
    srcs = sources_for(sc.sources, graph.n_vertices)
    agg = _Aggregate()

    if cond_kind == "edge-faults":
        from repro.api import validate as api_validate
        from repro.model.faults import attempt_broadcast_with_failures, faulted_graph

        survivor, failed = faulted_graph(graph, cond_arg, sc.seed)
        for s in srcs:
            sched = attempt_broadcast_with_failures(sh, s, set(failed))
            if sched is None:
                continue
            # The repaired schedule is frame-backed; engine "auto" routes
            # to the fast validator (reference-identical verdicts) so the
            # row derives from columnar arrays, never per-call objects.
            report = api_validate(survivor, sched.to_frame(), k_eff)
            agg.record(
                sched.num_rounds,
                sched.num_calls,
                sched.max_call_length(),
                report.ok,
            )
        row = agg.row(sc, graph, srcs)
        row["failed_edges"] = len(failed)
        row["survivor_edges"] = survivor.n_edges
        row["survivor_connected"] = survivor.is_connected()
        return row

    if cond_kind == "congestion":
        from repro.core.broadcast import broadcast_schedule
        from repro.engine.cache import fast_validator_for

        validator = fast_validator_for(graph)
        congestion = _CongestionAggregate(graph, bandwidth=cond_arg, k=k_eff)
        for s in srcs:
            sched = broadcast_schedule(sh, s)
            ok = validator.validate(sched, k_eff).ok
            agg.record(
                sched.num_rounds,
                sched.num_calls,
                sched.max_call_length(),
                ok,
            )
            congestion.record(sched)
        row = agg.row(sc, graph, srcs)
        row.update(congestion.row())
        return row

    # condition 'none': the batch all-sources pipeline end-to-end
    from repro.engine.batch import validate_all_sources

    outcome = validate_all_sources(sh, k=k_eff, sources=srcs)
    zipped = zip(outcome.ok, outcome.rounds, outcome.max_call_lengths)
    for ok, rounds, max_len in zipped:
        agg.record(rounds, None, max_len, ok)
    row = agg.row(sc, graph, srcs)
    row["calls"] = -1  # the all-sources pipeline does not count calls
    row["n_cosets"] = outcome.n_cosets
    return row


def _registry_rows(sc: Scenario, cond_kind: str, cond_arg: int) -> dict:
    """Execute a registry-scheduler scenario through ``run_scheduler``."""
    from repro.schedulers.registry import ScheduleRequest, run_scheduler

    graph = cached_graph(sc.graph)
    run_graph = graph
    failed: tuple = ()
    if cond_kind == "edge-faults":
        from repro.model.faults import faulted_graph

        run_graph, failed = faulted_graph(graph, cond_arg, sc.seed)
    srcs = sources_for(sc.sources, graph.n_vertices)
    params = {"restarts": 100} if sc.scheduler == "greedy" else {}
    agg = _Aggregate()
    congestion = (
        _CongestionAggregate(run_graph, bandwidth=cond_arg, k=sc.k)
        if cond_kind == "congestion"
        else None
    )
    for s in srcs:
        request = ScheduleRequest(
            graph=run_graph,
            source=s,
            k=sc.k,
            seed=sc.seed + s,
            params=params,
        )
        try:
            result = run_scheduler(sc.scheduler, request)
        except ReproError:
            agg.errors += 1
            continue
        if result.schedule is None:
            continue
        agg.record(
            result.rounds,
            result.schedule.num_calls,
            result.schedule.max_call_length(),
            result.valid is True,
        )
        if congestion is not None:
            congestion.record(result.schedule)
    row = agg.row(sc, graph, srcs)
    if cond_kind == "edge-faults":
        row["failed_edges"] = len(failed)
        row["survivor_edges"] = run_graph.n_edges
        row["survivor_connected"] = run_graph.is_connected()
    if congestion is not None:
        row.update(congestion.row())
    return row


class _Aggregate:
    """Accumulates per-source outcomes into one deterministic row."""

    def __init__(self) -> None:
        self.found = 0
        self.valid = 0
        self.errors = 0
        self.rounds: list[int] = []
        self.calls = 0
        self.calls_known = False
        self.max_call_length = 0

    def record(self, rounds: int, calls: int | None, max_len: int, ok: bool) -> None:
        self.found += 1
        if ok:
            self.valid += 1
        self.rounds.append(rounds)
        if calls is not None:
            self.calls += calls
            self.calls_known = True
        self.max_call_length = max(self.max_call_length, max_len)

    def row(self, sc: Scenario, graph, srcs: list[int]) -> dict:
        return {
            "index": sc.index,
            "campaign": sc.campaign,
            "scenario": sc.scenario_id,
            "graph": sc.graph,
            "scheduler": sc.scheduler,
            "k": sc.k,
            "sources_policy": sc.sources,
            "condition": sc.condition,
            "seed": sc.seed,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
            "n_sources": len(srcs),
            "found": self.found,
            "valid": self.valid,
            "errors": self.errors,
            "rounds_min": min(self.rounds, default=-1),
            "rounds_max": max(self.rounds, default=-1),
            "calls": self.calls if self.calls_known else -1,
            "max_call_length": self.max_call_length,
        }


class _CongestionAggregate:
    """Congestion metrics across a scenario's found schedules."""

    def __init__(self, graph, *, bandwidth: int, k: int | None) -> None:
        self.graph = graph
        self.bandwidth = bandwidth
        self.k = k
        self.peak_concurrency = 0
        self.min_bandwidth = 0
        self.utilization: list[float] = []
        self.rejected = 0

    def record(self, sched) -> None:
        from repro.model.congestion import congestion_profile, min_feasible_bandwidth
        from repro.model.simulator import LineNetworkSimulator

        profile = congestion_profile(self.graph, sched).as_row()
        peak = profile["peak_concurrency"]
        self.peak_concurrency = max(self.peak_concurrency, peak)
        needed = min_feasible_bandwidth(self.graph, sched)
        self.min_bandwidth = max(self.min_bandwidth, needed)
        self.utilization.append(profile["edge_utilization"])
        if self.k is not None:
            k_eff = self.k
        else:
            k_eff = max(1, self.graph.n_vertices - 1)
        sim = LineNetworkSimulator(
            self.graph, k=k_eff, bandwidth=self.bandwidth, strict=False
        )
        self.rejected += len(sim.run(sched).rejected)

    def row(self) -> dict:
        if self.utilization:
            mean_util = sum(self.utilization) / len(self.utilization)
        else:
            mean_util = 0.0
        return {
            "bandwidth": self.bandwidth,
            "peak_concurrency": self.peak_concurrency,
            "min_bandwidth": self.min_bandwidth,
            "edge_utilization": round(mean_util, 4),
            "rejected_calls": self.rejected,
        }


def run_scenario(sc: Scenario) -> dict:
    """Execute one scenario and return its deterministic result row.

    The row contains only JSON scalars derived from the scenario fields
    (graph structure, schedule outcomes, validator verdicts) — never
    wall-clock time or host state — so re-running the same scenario in a
    different shard, process, or machine reproduces the bytes exactly.
    """
    validate_scenario(sc)
    cond_kind, cond_arg = parse_condition(sc.condition)
    if sc.scheduler == SCHEME_SCHEDULER:
        return _scheme_rows(sc, cond_kind, cond_arg)
    return _registry_rows(sc, cond_kind, cond_arg)
