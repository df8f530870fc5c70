"""Declarative scenario campaigns: sharded sweeps that merge byte-identically.

A *campaign* is a cartesian grid over five axes — graph specs, scheduler
names, call-length bounds ``k``, source-sampling policies, and injected
conditions (:mod:`repro.analysis.scenarios`) — expanded into an indexed
scenario list with per-scenario seeds derived deterministically from the
campaign name and scenario identity.  Execution follows the experiment
runner's architecture (:mod:`repro.analysis.runner`): scenarios fan out
over the same crash-safe pool (:class:`~repro.util.pool.WorkerPool`) and
each finished scenario is written at once as one entry of a
:class:`~repro.analysis.store.ResultStore` — the result cache, or a
checkpoint directory beside the shard's chunk when the cache is off — so
a failed or killed run resumes instead of restarting.  The entry digest
folds in the scenario definition **and** a code digest of the scenarios
module, so editing scenario semantics invalidates stale entries.

Sharding is deterministic: shard ``i`` of ``m`` owns the scenarios with
``index % m == i``, so independent invocations (CI matrix jobs, separate
machines) produce disjoint JSONL chunks.  :func:`merge_chunks` recombines
chunks into one artifact that is **byte-identical** to an unsharded run —
possible because scenario rows contain only values derived from the
scenario definition (never wall-clock or host state; timing lives in each
shard's provenance manifest).

Four built-in campaigns ship in :data:`BUILTIN_CAMPAIGNS`; custom grids
load from JSON files (:func:`load_campaign`).  The CLI surface is
``repro campaign run|merge|list`` (:mod:`repro.cli`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from repro.analysis.scenarios import (
    SCHEME_SCHEDULER,
    Scenario,
    parse_sources_policy,
    run_scenario,
    scenario_id,
    validate_scenario,
    warm_scenario_caches,
)
from repro.analysis import store
from repro.errors import ScenarioError, captured_call, format_cause
from repro.graphs.specs import spec_vertices
from repro.types import InvalidParameterError, ReproError
from repro.util.pool import TaskFault, WorkerPool
from repro.util.retry import RetryPolicy

__all__ = [
    "CampaignExecutionError",
    "CampaignSpec",
    "ScenarioOutcome",
    "CampaignRunner",
    "BUILTIN_CAMPAIGNS",
    "builtin_campaign_names",
    "load_campaign",
    "expand_campaign",
    "parse_shard",
    "shard_scenarios",
    "campaign_digest",
    "scenarios_code_digest",
    "chunk_path",
    "manifest_path",
    "artifact_path",
    "write_chunk",
    "read_chunk_rows",
    "merge_chunks",
    "run_campaign_shard",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
_CHUNK_RE_TEMPLATE = r"^{name}-shard(\d+)of(\d+)\.jsonl$"

MANIFEST_FORMAT = "repro-campaign-manifest/1"


class CampaignExecutionError(ReproError):
    """One or more scenarios failed during campaign execution.

    Raised *after* every completed scenario of the batch has been
    stored, so fixing the cause and re-running resumes instead of
    restarting.  ``failures`` carries the scenarios whose own
    code raised (:class:`~repro.errors.ScenarioError` — deterministic,
    never retried); ``quarantined`` carries the poison-task reports
    (:class:`~repro.util.pool.TaskFault`) for scenarios that exhausted
    the retry budget on infrastructure faults.  Its ``code`` is that of
    the first cause its message lists: ``scenario-error``, else the first
    quarantined fault's (``task-timeout`` or ``worker-crash``).
    """

    def __init__(
        self,
        message: str,
        *,
        failures: tuple[ScenarioError, ...] = (),
        quarantined: tuple[TaskFault, ...] = (),
    ) -> None:
        super().__init__(message)
        self.failures = failures
        self.quarantined = quarantined
        if failures:
            self.code = failures[0].code
        elif quarantined:
            self.code = quarantined[0].as_error().code


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: name, title, and the five grid axes."""

    name: str
    title: str
    graphs: tuple[str, ...]
    schedulers: tuple[str, ...]
    k_values: tuple[int | None, ...] = (None,)
    sources: tuple[str, ...] = ("sample:16",)
    conditions: tuple[str, ...] = ("none",)
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise InvalidParameterError(
                f"campaign name must match {_NAME_RE.pattern}: {self.name!r}"
            )
        for axis, values in (
            ("graphs", self.graphs),
            ("schedulers", self.schedulers),
            ("k_values", self.k_values),
            ("sources", self.sources),
            ("conditions", self.conditions),
        ):
            if not values:
                raise InvalidParameterError(
                    f"campaign {self.name!r}: axis {axis!r} must be non-empty"
                )

    @property
    def n_scenarios(self) -> int:
        return (
            len(self.graphs)
            * len(self.schedulers)
            * len(self.k_values)
            * len(self.sources)
            * len(self.conditions)
        )

    def axes(self) -> dict:
        """The grid axes as a JSON-encodable mapping (manifest payload)."""
        return {
            "graphs": list(self.graphs),
            "schedulers": list(self.schedulers),
            "k_values": list(self.k_values),
            "sources": list(self.sources),
            "conditions": list(self.conditions),
            "base_seed": self.base_seed,
        }


# -- built-in campaigns ------------------------------------------------------

BUILTIN_CAMPAIGNS: dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        CampaignSpec(
            name="paper-grid",
            title="Paper-regression grid: Theorem-1 trees, hypercubes, "
            "Knödel and sparse graphs x greedy/search x k",
            graphs=("theorem1:2", "hypercube:3", "knodel:3:8", "sparse:4:2"),
            schedulers=("greedy", "search"),
            # k = 1 rows double as the "not a 1-mlbg" check (found = 0 on
            # trees and sparse hypercubes); k >= 4 would blow the exact
            # searcher's node budget on the cyclic sparse graph.
            k_values=(1, 2),
            sources=("sample:3",),
            conditions=("none",),
        ),
        CampaignSpec(
            name="fault-robustness",
            title="Scheduler robustness under edge faults on sparse "
            "hypercubes (scheme repair vs greedy re-scheduling)",
            graphs=("sparse:5:2", "sparse:6:3"),
            schedulers=("scheme", "greedy"),
            k_values=(None,),
            sources=("sample:4",),
            conditions=("none", "edge-faults:1", "edge-faults:3"),
        ),
        CampaignSpec(
            name="congestion-sweep",
            title="Edge-congestion sweep: load profiles and bandwidth-B "
            "simulation across graph families",
            graphs=("hypercube:3", "theorem1:2", "knodel:3:8"),
            schedulers=("greedy",),
            k_values=(None,),
            sources=("sample:3",),
            conditions=("congestion:1", "congestion:2"),
        ),
        CampaignSpec(
            name="allsources-validation",
            title="All-sources validation grid: Broadcast_2 through the "
            "batch engine on every source of each sparse hypercube",
            graphs=("sparse:4:2", "sparse:5:2", "sparse:6:3"),
            schedulers=("scheme",),
            k_values=(None,),
            sources=("all",),
            conditions=("none",),
        ),
    )
}


def builtin_campaign_names() -> list[str]:
    return sorted(BUILTIN_CAMPAIGNS)


def load_campaign(ref: str) -> CampaignSpec:
    """Resolve ``ref`` to a campaign: a built-in name or a JSON spec file.

    The JSON format mirrors :class:`CampaignSpec`::

        {"name": "my-sweep", "title": "...",
         "graphs": ["hypercube:3"], "schedulers": ["greedy"],
         "k_values": [2, null], "sources": ["sample:4"],
         "conditions": ["none", "edge-faults:2"], "base_seed": 0}

    Axis values are validated upfront (graph specs, scheduler names,
    condition/sources grammars) so a bad grid fails before anything runs.
    """
    if ref in BUILTIN_CAMPAIGNS:
        return BUILTIN_CAMPAIGNS[ref]
    path = Path(ref)
    if path.suffix == ".json":
        if not path.exists():
            raise InvalidParameterError(f"campaign spec file not found: {ref}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(
                f"campaign spec {ref} is not valid JSON: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise InvalidParameterError(f"campaign spec {ref} must be a JSON object")
        return _spec_from_payload(payload, origin=ref)
    raise InvalidParameterError(
        f"unknown campaign {ref!r}; built-ins: "
        + ", ".join(builtin_campaign_names())
        + " (or a path to a .json spec file)"
    )


def _spec_from_payload(payload: dict, *, origin: str) -> CampaignSpec:
    known = {
        "name",
        "title",
        "graphs",
        "schedulers",
        "k_values",
        "sources",
        "conditions",
        "base_seed",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise InvalidParameterError(f"campaign spec {origin}: unknown keys {unknown}")
    for req in ("name", "graphs", "schedulers"):
        if req not in payload:
            raise InvalidParameterError(
                f"campaign spec {origin}: missing required key {req!r}"
            )
    for key in ("name", "title"):
        if key in payload and not isinstance(payload[key], str):
            raise InvalidParameterError(
                f"campaign spec {origin}: {key!r} must be a string"
            )

    def str_tuple(key: str, default: tuple | None = None) -> tuple:
        if key not in payload:
            return default
        values = payload[key]
        ok = isinstance(values, list) and all(isinstance(v, str) for v in values)
        if not ok:
            raise InvalidParameterError(
                f"campaign spec {origin}: {key!r} must be a list of strings"
            )
        return tuple(values)

    def is_int(value: object) -> bool:
        # bool is an int subclass, but true/false are not call-length
        # bounds or seeds: "k": true would run as k = 1 under another id
        return isinstance(value, int) and not isinstance(value, bool)

    k_values = payload.get("k_values", [None])
    if not isinstance(k_values, list) or not all(
        v is None or is_int(v) for v in k_values
    ):
        raise InvalidParameterError(
            f"campaign spec {origin}: 'k_values' must be a list of "
            "integers or nulls"
        )
    base_seed = payload.get("base_seed", 0)
    if not is_int(base_seed):
        raise InvalidParameterError(
            f"campaign spec {origin}: 'base_seed' must be an integer"
        )
    spec = CampaignSpec(
        name=payload["name"],
        title=payload.get("title", payload["name"]),
        graphs=str_tuple("graphs"),
        schedulers=str_tuple("schedulers"),
        k_values=tuple(k_values),
        sources=str_tuple("sources", ("sample:16",)),
        conditions=str_tuple("conditions", ("none",)),
        base_seed=base_seed,
    )
    expand_campaign(spec)  # validates every grid point upfront
    return spec


# -- expansion, seeds, digests ----------------------------------------------


def _scenario_seed(name: str, base_seed: int, sid: str) -> int:
    """Deterministic per-scenario seed: stable across shard layouts,
    machines, and processes (independent of PYTHONHASHSEED)."""
    blob = f"{name}:{base_seed}:{sid}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def expand_campaign(spec: CampaignSpec) -> list[Scenario]:
    """The full scenario list, in fixed grid order (graphs outermost,
    conditions innermost); every scenario is validated."""
    scenarios = []
    grid = product(
        spec.graphs, spec.schedulers, spec.k_values, spec.sources, spec.conditions
    )
    for index, (graph, sched, k, sources, condition) in enumerate(grid):
        sid = scenario_id(graph, sched, k, sources, condition)
        sc = Scenario(
            campaign=spec.name,
            index=index,
            graph=graph,
            scheduler=sched,
            k=k,
            sources=sources,
            condition=condition,
            seed=_scenario_seed(spec.name, spec.base_seed, sid),
        )
        validate_scenario(sc)
        scenarios.append(sc)
    return scenarios


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@functools.cache
def scenarios_code_digest() -> str:
    """Digest of the scenario executor's source — part of every scenario
    cache key, so editing :mod:`repro.analysis.scenarios` invalidates
    cached rows instead of silently serving results of the old code.
    The scope is deliberately the scenarios module alone (mirroring
    ``registry.code_digest``, which hashes the experiment function): a
    digest over every transitive callee would churn on unrelated edits.
    After editing deeper layers (schedulers, engine, model), clear the
    cache (``repro clean-cache``) before trusting warm campaign runs.

    Cached: the module source cannot change within a process, and the
    digest is consulted once per scenario on the run startup path.
    """
    from repro.analysis import scenarios as scenarios_module
    from repro.analysis.registry import source_digest

    return source_digest(scenarios_module, scenarios_module.__name__)


def campaign_digest(spec: CampaignSpec) -> str:
    """Identity of (axes, code version), recorded in every shard
    manifest so merge can refuse chunks produced by a different grid or
    code version."""
    return store.digest(
        {"name": spec.name, "axes": spec.axes(), "code": scenarios_code_digest()}
    )


def _scenario_digest(spec: CampaignSpec, sc: Scenario) -> str:
    """The digest of a scenario's store entry: an entry left by another
    grid, seed or scenarios-code version is never found."""
    return store.digest(
        {
            "campaign": spec.name,
            "scenario": sc.scenario_id,
            "seed": sc.seed,
            "code": scenarios_code_digest(),
        }
    )


# -- sharding ----------------------------------------------------------------


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/m"`` into ``(i, m)``; i in [0, m), m >= 1."""
    match = re.match(r"^(\d+)/(\d+)$", text.strip())
    if not match:
        raise InvalidParameterError(
            f"shard must look like I/M (e.g. 0/2), got {text!r}"
        )
    i, m = int(match.group(1)), int(match.group(2))
    if m < 1:
        raise InvalidParameterError(f"shard count must be >= 1, got {text!r}")
    if not 0 <= i < m:
        raise InvalidParameterError(
            f"shard index {i} out of range [0, {m}) in {text!r}"
        )
    return i, m


def shard_scenarios(
    scenarios: list[Scenario], shard: tuple[int, int]
) -> list[Scenario]:
    """The scenarios shard ``(i, m)`` owns: ``index % m == i``.

    Round-robin keeps shard workloads balanced when expensive scenarios
    cluster (grid order groups by graph, the dominant cost factor).
    """
    i, m = shard
    if not 0 <= i < m:
        raise InvalidParameterError(f"shard index {i} out of range [0, {m})")
    return [sc for sc in scenarios if sc.index % m == i]


# -- artifact paths and IO ---------------------------------------------------


def chunk_path(out_dir: str | Path, spec: CampaignSpec, shard: tuple[int, int]) -> Path:
    i, m = shard
    return Path(out_dir) / f"{spec.name}-shard{i}of{m}.jsonl"


def manifest_path(
    out_dir: str | Path, spec: CampaignSpec, shard: tuple[int, int]
) -> Path:
    i, m = shard
    return Path(out_dir) / f"{spec.name}-shard{i}of{m}.manifest.json"


def artifact_path(out_dir: str | Path, spec: CampaignSpec) -> Path:
    return Path(out_dir) / f"{spec.name}.jsonl"


def _dump_rows(rows: list[dict]) -> str:
    return "".join(_canonical(row) + "\n" for row in rows)


def write_chunk(path: Path, rows: list[dict]) -> None:
    """Write rows as canonical JSONL (sorted keys, compact separators) —
    the byte format the merge determinism gate compares."""
    path.parent.mkdir(parents=True, exist_ok=True)
    store.write_atomic(path, _dump_rows(rows))


def read_chunk_rows(path: Path) -> list[dict]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            f"corrupt chunk {path}: not UTF-8 text ({exc})"
        ) from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(
                f"corrupt chunk {path} at line {lineno}: {exc}"
            ) from None
    return rows


def merge_chunks(spec: CampaignSpec, out_dir: str | Path) -> tuple[Path, list[dict]]:
    """Recombine the campaign's shard chunks in ``out_dir`` into the
    merged artifact ``<name>.jsonl``.

    Requires one consistent shard layout, full scenario coverage, no
    duplicate indices, and fresh chunks: every row's scenario identity
    and seed must match the current grid expansion, and any sibling
    shard manifest must carry the current :func:`campaign_digest` —
    chunks written by an older grid or an older scenarios-module version
    are refused rather than silently interleaved.  The merged file is
    byte-identical to what an unsharded run writes, because rows are
    deterministic and the merge orders strictly by scenario index.
    """
    out_dir = Path(out_dir)
    pattern = re.compile(_CHUNK_RE_TEMPLATE.format(name=re.escape(spec.name)))
    chunks = sorted(
        p for p in out_dir.glob(f"{spec.name}-shard*of*.jsonl")
        if pattern.match(p.name)
    )
    if not chunks:
        raise InvalidParameterError(
            f"no chunks for campaign {spec.name!r} in {out_dir} "
            f"(expected {spec.name}-shardIofM.jsonl files)"
        )
    layouts = {int(pattern.match(p.name).group(2)) for p in chunks}
    if len(layouts) != 1:
        raise InvalidParameterError(
            f"mixed shard layouts in {out_dir}: found chunks for "
            f"m in {sorted(layouts)}; merge one layout at a time"
        )
    rows_by_index: dict[int, dict] = {}
    for path in chunks:
        for row in read_chunk_rows(path):
            idx = row.get("index") if isinstance(row, dict) else None
            if not isinstance(idx, int):
                raise InvalidParameterError(
                    f"chunk {path} has a row without an integer 'index'"
                )
            if idx in rows_by_index:
                raise InvalidParameterError(
                    f"duplicate scenario index {idx} across chunks in {out_dir}"
                )
            rows_by_index[idx] = row
    expected = spec.n_scenarios
    missing = sorted(set(range(expected)) - set(rows_by_index))
    if missing:
        raise InvalidParameterError(
            f"incomplete campaign {spec.name!r}: missing scenario indices "
            f"{missing[:8]}{'...' if len(missing) > 8 else ''} "
            f"({len(missing)} of {expected}); run the remaining shards first"
        )
    extra = sorted(set(rows_by_index) - set(range(expected)))
    if extra:
        raise InvalidParameterError(
            f"chunks in {out_dir} contain unknown scenario indices {extra[:8]} "
            f"(campaign {spec.name!r} has {expected} scenarios — stale chunks "
            "from an older grid?)"
        )
    scenarios = expand_campaign(spec)
    for sc in scenarios:
        row = rows_by_index[sc.index]
        if row.get("scenario") != sc.scenario_id or row.get("seed") != sc.seed:
            raise InvalidParameterError(
                f"stale chunk row for scenario index {sc.index}: expected "
                f"{sc.scenario_id!r} (seed {sc.seed}), found "
                f"{row.get('scenario')!r} (seed {row.get('seed')}) — "
                "re-run the shards against the current grid"
            )
    digest = campaign_digest(spec)
    for path in chunks:
        mpath = path.with_name(path.name[: -len(".jsonl")] + ".manifest.json")
        if not mpath.exists():
            continue
        try:
            manifest = json.loads(mpath.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, OSError):
            continue  # unreadable manifest: row identity above still gates
        found = manifest.get("digest") if isinstance(manifest, dict) else None
        if found is not None and found != digest:
            raise InvalidParameterError(
                f"chunk {path.name} was produced by campaign digest {found} "
                f"but the current grid/code digest is {digest} — re-run the "
                "shards (the scenarios module or the grid changed)"
            )
    rows = [rows_by_index[i] for i in range(expected)]
    target = artifact_path(out_dir, spec)
    write_chunk(target, rows)
    return target, rows


# -- execution ---------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """One executed (or cache-served) scenario with provenance."""

    scenario: Scenario
    row: dict
    digest: str
    seconds: float
    cached: bool


@dataclass
class CampaignStats:
    executed: int = 0
    cache_hits: int = 0
    seconds: float = 0.0


def _execute_scenario(sc: Scenario) -> tuple[str, object, float]:
    """Worker entry point (top-level, picklable): run one scenario.

    Failures come back as values (:func:`repro.errors.captured_call`)
    instead of propagating, so the parent stores every *completed*
    scenario before reporting — a crash in scenario 99 of 100 must not
    discard 98 finished entries (the resumable-run contract).  A failure
    travels as its one-line cause, the string a :class:`ScenarioError`
    is built from in the parent.
    """
    t0 = time.perf_counter()
    status, payload = captured_call(run_scenario, sc)
    if status == "raise":
        payload = format_cause(payload)
    return status, payload, time.perf_counter() - t0


def _entry_key(spec: CampaignSpec, sc: Scenario) -> str:
    return f"campaign-{spec.name}-s{sc.index:03d}"


def _entry(sc: Scenario, row: dict) -> dict:
    return {
        "campaign": sc.campaign,
        "scenario": sc.scenario_id,
        "index": sc.index,
        "row": row,
    }


def _dispatch_rank(sc: Scenario) -> tuple[bool, int, int]:
    """Longest-first order (Graham's LPT) without a time estimate:
    registry-scheduler scenarios before ``scheme`` ones, then larger
    ``n_vertices × n_sources`` first, ties in index order."""
    n = max(spec_vertices(sc.graph), 0)
    kind, cap = parse_sources_policy(sc.sources)
    n_sources = 1 if kind == "first" else n if kind == "all" else min(n, cap)
    return sc.scheduler == SCHEME_SCHEDULER, -n * n_sources, sc.index


def _stored_row(source: store.ResultStore | None, key: str, digest: str) -> dict | None:
    payload = source.load(key, digest) if source is not None else None
    row = payload.get("row") if payload is not None else None
    return row if isinstance(row, dict) else None


class CampaignRunner:
    """Run a campaign shard on a :class:`~repro.util.pool.WorkerPool`,
    one scenario per task, storing each finished scenario as one
    :class:`~repro.analysis.store.ResultStore` entry.

    Cache entries are ``campaign-<name>-s<index>-<digest>.json`` under
    ``cache_dir`` — the experiment cache's naming scheme, so ``repro
    clean-cache`` sweeps them too.

    Scenarios are dispatched longest-first, so the heaviest ones do not
    start last and leave a worker idle at the end of the map: registry
    schedulers (greedy's restarts dominate a campaign) before ``scheme``
    scenarios, then by ``n_vertices × n_sources`` from the spec's vertex
    formula (:func:`~repro.graphs.specs.spec_vertices`, nothing built),
    largest first, ties in index order.  The order only decides which
    idle worker gets what: rows, chunks, manifests, artifacts and the
    failure report all stay in index order.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = store.ResultStore(cache_dir) if cache_dir is not None else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = CampaignStats()

    def run(
        self,
        spec: CampaignSpec,
        shard: tuple[int, int] = (0, 1),
        *,
        checkpoint: Path | None = None,
    ) -> list[ScenarioOutcome]:
        """Execute the shard's scenarios; returns outcomes in index order.

        Each scenario is stored the moment it finishes: in the cache, or,
        without one, in a checkpoint directory beside the chunk path
        ``checkpoint`` (``<chunk stem>.checkpoint/``).  A lookup reads the
        cache, then a leftover checkpoint; a row served from the
        checkpoint is copied into the cache when there is one.  On
        success the chunk is written at ``checkpoint`` first, and only
        then is the checkpoint directory removed, so one of the two is
        on disk at every instant.  Scenario-code failures and quarantined
        poison tasks are both collected and raised *after* everything
        else completed and was stored.
        """
        t_start = time.perf_counter()
        owned = shard_scenarios(expand_campaign(spec), shard)
        digests = {sc.index: _scenario_digest(spec, sc) for sc in owned}
        ckpt = (
            store.ResultStore(checkpoint.with_suffix(".checkpoint"))
            if checkpoint is not None
            else None
        )
        sink = self.cache if self.cache is not None else ckpt
        outcomes: dict[int, ScenarioOutcome] = {}
        to_run: list[Scenario] = []
        for sc in owned:
            key, digest = _entry_key(spec, sc), digests[sc.index]
            row = _stored_row(self.cache, key, digest)
            if row is None:
                row = _stored_row(ckpt, key, digest)
                if row is not None and self.cache is not None:
                    # promote the checkpointed row, so later runs resume
                    # from the cache whatever their out dir
                    self.cache.store(key, digest, _entry(sc, row))
            if row is not None:
                self.stats.cache_hits += 1
                outcomes[sc.index] = ScenarioOutcome(
                    scenario=sc, row=row, digest=digest, seconds=0.0, cached=True
                )
            else:
                to_run.append(sc)
        # Warm each worker once (the pool initializer): the
        # graph/construction instances and the per-graph engine
        # validators the shard will touch.  Sorted tuple: small,
        # picklable, deterministic (RL008).
        warm_pairs = tuple(
            sorted({(sc.graph, sc.scheduler == SCHEME_SCHEDULER) for sc in to_run})
        )

        dispatched = sorted(to_run, key=_dispatch_rank)

        def record(index: int, value: tuple[str, object, float]) -> None:
            # runs in the parent as each task lands, before the map returns
            status, payload, _seconds = value
            if sink is not None and status == "ok":
                sc = dispatched[index]
                sink.store(_entry_key(spec, sc), digests[sc.index], _entry(sc, payload))

        results: list[tuple[str, object, float] | None] = []
        task_faults: list[TaskFault] = []
        if dispatched:
            with WorkerPool(
                min(self.jobs, len(dispatched)),
                initializer=warm_scenario_caches,
                initargs=(warm_pairs,),
                retry=self.retry,
            ) as pool:
                results, task_faults = pool.map_quarantine(
                    _execute_scenario, dispatched, on_result=record
                )
        finished = {sc.index: result for sc, result in zip(dispatched, results)}
        task_faults.sort(key=lambda fault: dispatched[fault.index].index)
        failures: list[ScenarioError] = []
        for sc in to_run:
            result = finished.get(sc.index)
            if result is None:
                continue  # quarantined: reported via task_faults below
            status, payload, seconds = result
            if status == "raise":
                failures.append(ScenarioError(sc.scenario_id, str(payload)))
                continue
            self.stats.executed += 1
            outcomes[sc.index] = ScenarioOutcome(
                scenario=sc,
                row=payload,
                digest=digests[sc.index],
                seconds=seconds,
                cached=False,
            )
        self.stats.seconds += time.perf_counter() - t_start
        if failures or task_faults:
            # every completed scenario is stored above, so the re-run
            # after a fix only executes the failed ones
            parts = []
            if failures:
                more = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
                parts.append(f"failed: {failures[0]}{more}")
            for fault in task_faults:
                sc = dispatched[fault.index]
                parts.append(
                    f"quarantined after {fault.attempts} attempts: scenario "
                    f"{sc.index} ({sc.scenario_id}) — {fault.message}"
                )
            raise CampaignExecutionError(
                "; ".join(parts),
                failures=tuple(failures),
                quarantined=tuple(task_faults),
            )
        ordered = [outcomes[sc.index] for sc in owned]
        if checkpoint is not None and ckpt is not None:
            write_chunk(checkpoint, [o.row for o in ordered])
            ckpt.remove()
        return ordered


def run_campaign_shard(
    spec: CampaignSpec,
    *,
    shard: tuple[int, int] = (0, 1),
    out_dir: str | Path = "campaign-results",
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    retry: RetryPolicy | None = None,
) -> tuple[Path, dict, list[dict]]:
    """Execute one shard end-to-end: run, write the JSONL chunk and the
    provenance manifest, and — for an unsharded run — also write the
    merged artifact directly (byte-identical to ``merge_chunks`` output).

    Each completed scenario is stored as it finishes — in the cache, or
    without one in ``<chunk stem>.checkpoint/`` beside the chunk, which
    goes once the chunk is written — so a killed run resumes from what
    it stored and still produces byte-identical artifacts.  Returns
    ``(chunk_path, manifest, rows)`` — the rows just written, so callers
    (the CLI summary) need not re-read the chunk from disk.
    """
    runner = CampaignRunner(jobs=jobs, cache_dir=cache_dir, retry=retry)
    chunk = chunk_path(out_dir, spec, shard)
    outcomes = runner.run(spec, shard, checkpoint=chunk)  # writes the chunk
    rows = [o.row for o in outcomes]
    manifest = {
        "format": MANIFEST_FORMAT,
        "campaign": spec.name,
        "title": spec.title,
        "digest": campaign_digest(spec),
        "shard": list(shard),
        "axes": spec.axes(),
        "n_scenarios_total": spec.n_scenarios,
        "n_scenarios_shard": len(outcomes),
        "jobs": jobs,
        "executed": runner.stats.executed,
        "cache_hits": runner.stats.cache_hits,
        "seconds": round(runner.stats.seconds, 6),
        "scenarios": [
            {
                "index": o.scenario.index,
                "id": o.scenario.scenario_id,
                "seed": o.scenario.seed,
                "digest": o.digest,
                "seconds": round(o.seconds, 6),
                "cached": o.cached,
            }
            for o in outcomes
        ],
    }
    store.write_atomic(
        manifest_path(out_dir, spec, shard),
        json.dumps(manifest, indent=1, sort_keys=True) + "\n",
    )
    if shard == (0, 1):
        write_chunk(artifact_path(out_dir, spec), rows)
    return chunk, manifest, rows
