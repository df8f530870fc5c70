"""Process-wide per-graph kernel cache.

``GraphKernels`` and ``FastValidator`` construction each pay an O(N + E)
setup cost (CSR materialization, edge-key sorting, flat adjacency
tuples).  Before this cache every scheduler call, every experiment, and
the simulator rebuilt them from the same graph; now the first caller
builds, everyone else shares:

    kern = kernels_for(graph)          # GraphKernels, built once per graph
    fv = fast_validator_for(graph)     # FastValidator, likewise

Keying: the cache slot is attached to the (immutable) graph object itself
(``graph._repro_engine_cache``), so entries are keyed on **identity** and
live exactly as long as the graph — no global strong reference ever pins
a graph or its kernels, and a recycled ``id()`` can never alias an old
entry.  Identity (not structural hash) is deliberate: ``Graph.__hash__``
walks the whole edge set per call, and the repository's graphs are built
once and passed around, so identity is both cheap and correct.  A weak
registry tracks live entries for :func:`cache_info` / :func:`clear_cache`.

All cached objects are safe to share: their methods are stateless with
callers threading bitmask state through (see :mod:`repro.engine.kernels`).

Identity keying needs callers that name a graph by spec to get one
object per spec, so this module also holds the process's one spec memo:

    graph = graph_for("sparse:6:3")    # built once per spec
    sh = construction_for("sparse:6:3")
    assert graph is sh.graph           # one spec, one object

Both are LRU caches of at most :data:`SPEC_MEMO_SIZE` specs each; an
evicted graph's engine entry goes with it once the graph is collected.
Campaign scenarios, ``repro serve``'s compute workers and the corpus
verifier read through them.  Each process has its own caches; the
campaign runner warms one per worker.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar, cast

from repro.engine.kernels import GraphKernels
from repro.graphs.base import Graph
from repro.model.validator_fast import FastValidator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.sparse_hypercube import SparseHypercube

_T = TypeVar("_T")

__all__ = [
    "SPEC_MEMO_SIZE",
    "kernels_for",
    "fast_validator_for",
    "graph_for",
    "construction_for",
    "cache_info",
    "clear_cache",
]

# Specs each memo keeps: a bound on entries, not bytes, so a client
# that names ever more specs cannot grow a process without limit.
SPEC_MEMO_SIZE = 32

_SLOT_ATTR = "_repro_engine_cache"

# Weak registry of graphs holding a cache slot, keyed by id() so lookup
# is by identity — Graph's own __eq__/__hash__ compare structure, which
# would wrongly merge equal-but-distinct graphs in a WeakSet.  Values are
# weak: the registry never keeps a graph alive, and a dead entry drops
# out before its id can be recycled into a false positive.
_LIVE: "weakref.WeakValueDictionary[int, Graph]" = weakref.WeakValueDictionary()

_FINALIZER_ATTR = "_repro_engine_finalizer"


@dataclass
class _Stats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


_STATS = _Stats()


def _count_eviction(stats: _Stats = _STATS) -> None:
    # Default-arg binding: at interpreter shutdown module globals are
    # cleared to None before late finalizers run.
    stats.evictions += 1


def _slot(graph: Graph) -> dict[str, object]:
    """The per-graph entry dict, attached on first use."""
    slot = cast("dict[str, object] | None", getattr(graph, _SLOT_ATTR, None))
    if slot is None:
        slot = {}
        setattr(graph, _SLOT_ATTR, slot)
        _LIVE[id(graph)] = graph
        # One eviction-counting finalizer per graph, surviving clear_cache
        # (which detaches the slot but not this marker).
        if getattr(graph, _FINALIZER_ATTR, None) is None:
            setattr(graph, _FINALIZER_ATTR, weakref.finalize(graph, _count_eviction))
    return slot


def _get(graph: Graph, key: str, build: Callable[[], _T]) -> _T:
    slot = _slot(graph)
    cached = slot.get(key)
    if cached is not None:
        _STATS.hits += 1
        return cast(_T, cached)
    _STATS.misses += 1
    built = build()
    slot[key] = built
    return built


def kernels_for(graph: Graph) -> GraphKernels:
    """The process-wide :class:`GraphKernels` for ``graph``."""
    return _get(graph, "kernels", lambda: GraphKernels(graph))


def fast_validator_for(graph: Graph) -> FastValidator:
    """The process-wide :class:`FastValidator` for ``graph``."""
    return _get(graph, "fast", lambda: FastValidator(graph))


@functools.lru_cache(maxsize=SPEC_MEMO_SIZE)
def construction_for(spec: str) -> SparseHypercube:
    """The process's one :func:`repro.api.construction` for ``spec``."""
    from repro import api

    return api.construction(spec)


@functools.lru_cache(maxsize=SPEC_MEMO_SIZE)
def graph_for(spec: str) -> Graph:
    """The process's one graph for ``spec``: for ``sparse:N:M``, the
    graph of :func:`construction_for`, so the spec's two roles share one
    graph and one set of engine entries."""
    from repro.graphs import specs

    family, args = specs.parse_spec(spec)
    if family == "sparse" and len(args) == 2:
        return construction_for(spec).graph
    return specs.graph_from_spec(spec)


def cache_info() -> dict[str, int]:
    """Counters plus the live entry count and the spec memos' sizes (for
    tests and diagnostics)."""
    return {
        "entries": len(_LIVE),
        "hits": _STATS.hits,
        "misses": _STATS.misses,
        "evictions": _STATS.evictions,
        "graphs": graph_for.cache_info().currsize,
        "constructions": construction_for.cache_info().currsize,
    }


def _detach_all() -> int:
    graphs = list(_LIVE.values())
    for graph in graphs:
        if hasattr(graph, _SLOT_ATTR):
            delattr(graph, _SLOT_ATTR)
        _LIVE.pop(id(graph), None)
    return len(graphs)


def clear_cache() -> int:
    """Empty the spec memos and detach every live entry (kept objects
    stay alive for existing holders); returns the number of entries
    removed.  Counters reset."""
    graph_for.cache_clear()
    construction_for.cache_clear()
    # a graph only the memos held dies as _detach_all returns: its
    # eviction is counted before the reset, not after
    removed = _detach_all()
    _STATS.hits = _STATS.misses = _STATS.evictions = 0
    return removed
