"""Schemes ``Broadcast_2`` (Section 3) and ``Broadcast_k`` (Section 4).

The recursive description in the paper unrolls to a flat n-round loop
(one round per dimension, highest first):

* **Rounds for dimension i > n_1** — Phase 1 at the level owning ``i``
  (and, via the recursion, Phase 1 of every inner scheme): every informed
  vertex ``w`` places the call :func:`repro.core.routing.reach_and_flip`
  ``(w, i)`` — direct if ``w`` owns the i-dimensional edge, otherwise
  relayed through label-fixing block flips.  The newly informed vertex
  agrees with ``w`` above bit ``i`` and has bit ``i`` flipped, so after
  the round the informed set realizes every prefix of bits ``n..i``
  exactly once (the doubling invariant of Theorem 4's proof).

* **Rounds for dimension i ≤ n_1** — Phase 2 of the innermost scheme:
  every informed vertex calls ``⊕_i w`` directly (those edges always
  exist in the complete core cube); the classic binomial-tree broadcast
  within each core subcube.

Total: exactly ``n = log₂ N`` rounds — minimum time.  Validity (edge- and
receiver-disjointness, call length ≤ k) is *not* assumed: every schedule
the test-suite and benchmarks produce is checked by
:mod:`repro.model.validator` against Definition 1.
"""

from __future__ import annotations

from heapq import merge

from repro.core.routing import reach_and_flip
from repro.core.sparse_hypercube import SparseHypercube
from repro.frame import ScheduleBuilder
from repro.types import InvalidParameterError, Schedule
from repro.util.bits import flip_dim

__all__ = ["broadcast_schedule", "broadcast_2", "broadcast_k", "phase1_round_calls"]


def phase1_round_calls(
    sh: SparseHypercube, informed: list[int], dim: int
) -> list[tuple[int, ...]]:
    """The call paths of the Phase-1 round for ``dim`` (> n_1), one per
    informed vertex, in iteration order.

    Callers must pass ``informed`` already sorted ascending (as
    :func:`broadcast_schedule` maintains across rounds) to get the
    deterministic sorted-source call order the schemes promise; the old
    per-round ``sorted()`` re-sort was a hot-path cost on an
    already-sorted list.
    """
    return [reach_and_flip(sh, w, dim) for w in informed]


def _merge_receivers(informed: list[int], paths: list[tuple[int, ...]]) -> list[int]:
    """The informed list after a round, kept sorted: merge the (sorted)
    old list with the round's receivers instead of re-sorting everything.
    The receivers at most double the list, so this is O(N log m) per
    round against the old O(N log N) full sort."""
    return list(merge(informed, sorted(p[-1] for p in paths)))


def broadcast_schedule(sh: SparseHypercube, source: int) -> Schedule:
    """The minimum-time k-line broadcast schedule from ``source``.

    Implements ``Broadcast_2`` when ``sh.k == 2`` and ``Broadcast_k``
    otherwise (they coincide structurally; see module docstring).
    """
    if not (0 <= source < sh.n_vertices):
        raise InvalidParameterError(
            f"source {source} out of range [0, {sh.n_vertices})"
        )
    builder = ScheduleBuilder(source)
    informed = [source]  # kept sorted ascending across rounds
    # Phase 1 rounds: dimensions n down to n_1 + 1
    for dim in range(sh.n, sh.base_dims, -1):
        paths = phase1_round_calls(sh, informed, dim)
        builder.add_round(paths)
        informed = _merge_receivers(informed, paths)
    # Phase 2 rounds: dimensions n_1 down to 1 (binomial in core cubes)
    for dim in range(sh.base_dims, 0, -1):
        paths = [(w, flip_dim(w, dim)) for w in informed]
        builder.add_round(paths)
        informed = _merge_receivers(informed, paths)
    assert len(informed) == sh.n_vertices, (
        f"broadcast reached {len(informed)} of {sh.n_vertices} vertices"
    )
    return Schedule.from_frame(builder.build())


def broadcast_2(sh: SparseHypercube, source: int) -> Schedule:
    """Scheme ``Broadcast_2(s)`` — requires a base construction (k = 2)."""
    if sh.k != 2:
        raise InvalidParameterError(
            f"Broadcast_2 applies to Construct_BASE graphs (k=2), got k={sh.k}"
        )
    return broadcast_schedule(sh, source)


def broadcast_k(sh: SparseHypercube, source: int) -> Schedule:
    """Scheme ``Broadcast_k(s)`` for the recursive construction (any k ≥ 2)."""
    return broadcast_schedule(sh, source)
