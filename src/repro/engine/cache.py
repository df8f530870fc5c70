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
Each process has its own cache; ``multiprocessing`` fan-out in the
experiment runner warms one per worker.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, TypeVar, cast

from repro.engine.kernels import GraphKernels
from repro.graphs.base import Graph
from repro.model.validator_fast import FastValidator

_T = TypeVar("_T")

__all__ = [
    "kernels_for",
    "fast_validator_for",
    "cache_info",
    "clear_cache",
]

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


def cache_info() -> dict[str, int]:
    """Counters plus the live entry count (for tests and diagnostics)."""
    return {
        "entries": len(_LIVE),
        "hits": _STATS.hits,
        "misses": _STATS.misses,
        "evictions": _STATS.evictions,
    }


def clear_cache() -> int:
    """Detach every live entry (kept objects stay alive for existing
    holders); returns the number of entries removed.  Counters reset."""
    graphs = list(_LIVE.values())
    for graph in graphs:
        if hasattr(graph, _SLOT_ATTR):
            delattr(graph, _SLOT_ATTR)
        _LIVE.pop(id(graph), None)
    _STATS.hits = _STATS.misses = _STATS.evictions = 0
    return len(graphs)
