"""Batch all-sources engine: coset-translated schedule generation.

The theorem sweeps (E09, E12, E20, …), the certificate exporter and the
corpus writer all ask the same *many-scenarios* question: "run
``Broadcast_k`` from every source and check the result".  Rebuilding
each schedule call-by-call in Python is the expensive half of that, and
this module removes it by exploiting the construction's translation
symmetry.

XOR translation by ``t`` is an automorphism of a sparse hypercube iff it
preserves every level's label function (the label blocks tile bits
``1..n_{k-1}``, so any ``t`` supported only on the free high dimensions
qualifies, as do in-block translations fixed by the labeling).  Those
``t`` form a subgroup ``T`` — :func:`translation_group` computes it from
the level metadata in one vectorized table lookup per level — and
schedule generation *commutes* with it: ``broadcast_schedule(sh, s ^ t)``
equals ``broadcast_schedule(sh, s)`` with every vertex XOR-translated by
``t`` (rounds re-sorted by caller).  So the engine generates **one
schedule per coset of T**, flattens it once into a call array, and
derives the whole coset as a single NumPy XOR broadcast over the stacked
arrays (:class:`StackedSchedules`).  On graphs with little symmetry the
cosets degenerate towards singletons, and generation transparently
becomes one call-by-call generation per source.

:func:`validate_all_sources` feeds every translated row to the fast
validator (:mod:`repro.model.validator_fast`, whose error strings are
the reference validator's), sharing the stack's layout across rows.
Correctness never depends on the symmetry: a source whose translated
row fails is re-generated directly and re-validated (the belt-and-braces
fallback; the property tests pin translated ≡ direct, so this path is
never taken on healthy inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frame import ScheduleFrame
from repro.model.validator_fast import ScheduleLayout, flatten_frame
from repro.types import InvalidParameterError, InvalidScheduleError, Schedule

__all__ = [
    "ScheduleLayout",
    "StackedSchedules",
    "AllSourcesOutcome",
    "translation_group",
    "coset_representatives",
    "all_sources_schedules",
    "validate_all_sources",
]


# ---------------------------------------------------------------------------
# Stacked schedule representation
# ---------------------------------------------------------------------------
#
# ``ScheduleLayout`` and ``flatten_frame`` live in
# :mod:`repro.model.validator_fast` (one implementation of the index
# arithmetic, shared with the fast validator); the layout is re-exported
# here.


@dataclass
class StackedSchedules:
    """``S`` layout-compatible schedules as one ``(S, n_items)`` array.

    Row ``i`` is the flat path-vertex sequence of the schedule from
    ``sources[i]``; the shared :class:`ScheduleLayout` says how to slice
    it.  Calls within a row's round are *not* required to be in caller
    order (XOR translation permutes callers); :meth:`to_schedule`
    restores the generator's ascending-caller order when materializing.
    """

    layout: ScheduleLayout
    sources: np.ndarray
    flat: np.ndarray

    @property
    def n_schedules(self) -> int:
        return int(self.sources.size)

    def row_index(self, source: int) -> int:
        hits = np.flatnonzero(self.sources == source)
        if not hits.size:
            raise InvalidParameterError(f"source {source} not in this stack")
        return int(hits[0])

    def to_frame(self, i: int, *, sort_calls: bool = False) -> ScheduleFrame:
        """Row ``i`` as a columnar :class:`~repro.frame.ScheduleFrame`.

        By default calls keep their stored order — the exact inverse of
        :func:`~repro.model.validator_fast.flatten_frame`, so validation
        reports list errors in stored order; the frame then shares the
        stack's layout, so validating many rows never rebuilds it.
        ``sort_calls=True`` orders each round's calls by ascending caller
        instead, which is :func:`repro.core.broadcast.broadcast_schedule`'s
        order — XOR translation permutes callers, so translated rows need
        the re-sort to match direct generation (pinned by the property
        tests).  The
        sort is one ``lexsort`` of (round, caller) and one gather of the
        row; it raises :class:`InvalidScheduleError` if a round holds two
        calls from one caller, the only case in which caller order and
        path order could differ.
        """
        lay = self.layout
        row = self.flat[i]
        source = int(self.sources[i])
        if not sort_calls:
            frame = ScheduleFrame(
                source=source,
                path_verts=row.copy(),
                call_offsets=np.concatenate(([0], lay.path_ends)),
                round_offsets=lay.call_bounds.copy(),
            )
            # the cached-layout idiom of flatten_frame: a derived value on
            # the frozen frame, not a change to its schedule content
            object.__setattr__(frame, "_layout", lay)  # repro-lint: disable=RL003
            return frame
        callers = row[lay.path_starts]
        round_of_call = np.repeat(np.arange(lay.n_rounds), lay.counts)
        order = np.lexsort((callers, round_of_call))
        ordered = callers[order]
        if bool(((ordered[1:] == ordered[:-1]) & (np.diff(round_of_call) == 0)).any()):
            raise InvalidScheduleError(
                f"row {i} (source {source}) has a round with two calls "
                "from one caller; it has no caller order"
            )
        sizes = lay.lengths[order] + 1
        call_offsets = np.concatenate(([0], np.cumsum(sizes)))
        gather = np.repeat(lay.path_starts[order] - call_offsets[:-1], sizes)
        return ScheduleFrame(
            source=source,
            path_verts=row[gather + np.arange(gather.size)],
            call_offsets=call_offsets,
            round_offsets=lay.call_bounds.copy(),
        )

    def to_schedule(self, i: int, *, sort_calls: bool = False) -> Schedule:
        """Row ``i`` as a :class:`Schedule`, a view over :meth:`to_frame`.

        See :meth:`to_frame` for call ordering; the object view is lazy,
        so consumers that only read counts or re-validate never pay
        object-per-call cost.
        """
        return Schedule.from_frame(self.to_frame(i, sort_calls=sort_calls))


# ---------------------------------------------------------------------------
# Translation symmetry and all-sources generation
# ---------------------------------------------------------------------------


def translation_group(sh) -> np.ndarray:
    """All ``t`` whose XOR translation preserves every level's labels.

    Sorted ``int64`` array; always a subgroup of ``(Z_2^n, ^)`` containing
    at least the ``2^(n - n_{k-1})`` translations supported on the free
    dimensions above the last threshold.  Label preservation implies edge
    preservation (ownership is a function of the label), and — pinned by
    the property tests — that ``broadcast_schedule`` commutes with the
    translation from every source.
    """
    ts = np.zeros(1, dtype=np.int64)
    for level in sh.levels:
        vals = np.arange(1 << level.block_len)
        labels = level.labeling.labels[vals]
        # row bt of the table holds the labels of vals ^ bt
        preserved = (
            level.labeling.labels[vals[:, None] ^ vals[None, :]] == labels[None, :]
        ).all(axis=1)
        good = np.flatnonzero(preserved).astype(np.int64) << level.block_lo
        ts = (ts[:, None] | good[None, :]).ravel()
    for b in range(sh.thresholds[-1], sh.n):
        ts = np.concatenate([ts, ts | np.int64(1 << b)])
    ts.sort()
    return ts


def coset_representatives(n_vertices: int, group: np.ndarray) -> list[int]:
    """Ascending minimal representatives of the cosets of ``group``."""
    seen = np.zeros(n_vertices, dtype=bool)
    reps = []
    for s in range(n_vertices):
        if not seen[s]:
            reps.append(s)
            seen[group ^ s] = True
    return reps


def all_sources_schedules(sh, sources=None) -> list[StackedSchedules]:
    """Broadcast schedules for many sources, one stack per layout.

    Generates ``broadcast_schedule(sh, r)`` once per coset of the
    translation group and derives the rest of the coset as XOR
    translations of the stacked call arrays.  ``sources`` (default: all
    ``2^n``) restricts the output rows — cosets with no requested source
    are never generated.  Rows are in ascending source order within each
    stack; stacks of equal layout are merged.
    """
    stacks, _n_cosets = _coset_stacks(sh, sources)
    return stacks


def _coset_stacks(sh, sources) -> tuple[list[StackedSchedules], int]:
    """The stacks plus the total coset count (reported by the pipeline
    without recomputing the group walk)."""
    from repro.core.broadcast import broadcast_schedule

    group = translation_group(sh)
    n = sh.n_vertices
    if sources is None:
        wanted = None
    else:
        requested = np.asarray(list(sources), dtype=np.int64)
        bad = requested[(requested < 0) | (requested >= n)]
        if bad.size:  # match the per-source generator's error, not a raw
            raise InvalidParameterError(  # IndexError / negative aliasing
                f"source {int(bad[0])} out of range [0, {n})"
            )
        wanted = np.zeros(n, dtype=bool)
        wanted[requested] = True
    groups: dict[bytes, tuple[ScheduleLayout, list[np.ndarray], list[np.ndarray]]] = {}
    reps = coset_representatives(n, group)
    for rep in reps:
        coset = group ^ rep
        if wanted is not None:
            ts = group[wanted[coset]]
            if not ts.size:
                continue
        else:
            ts = group
        layout, flat = flatten_frame(broadcast_schedule(sh, rep).to_frame())
        # Order the translations by resulting source first, so the XOR
        # broadcast materializes the row block directly in source order
        # (no post-hoc fancy-index copy of the big array).
        ts = ts[np.argsort(ts ^ rep)]
        rows = flat[None, :] ^ ts[:, None]
        srcs = ts ^ rep
        entry = groups.get(layout.key())
        if entry is None:
            groups[layout.key()] = (layout, [srcs], [rows])
        else:
            entry[1].append(srcs)
            entry[2].append(rows)
    out = []
    for layout, srcs_list, rows_list in groups.values():
        if len(srcs_list) == 1:  # common case: avoid a full-array copy
            srcs, rows = srcs_list[0], rows_list[0]
        else:
            srcs = np.concatenate(srcs_list)
            rows = np.vstack(rows_list)
            order = np.argsort(srcs)
            srcs, rows = srcs[order], rows[order]
        out.append(StackedSchedules(layout=layout, sources=srcs, flat=rows))
    return out, len(reps)


# ---------------------------------------------------------------------------
# The all-sources pipeline (generation + validation + fallback)
# ---------------------------------------------------------------------------


@dataclass
class AllSourcesOutcome:
    """Per-source verdicts of the batch generate-and-validate pipeline."""

    sources: list[int]
    ok: list[bool]
    rounds: list[int]
    max_call_lengths: list[int]
    n_cosets: int
    n_stacks: int
    n_fallback: int

    @property
    def all_ok(self) -> bool:
        return all(self.ok)

    @property
    def max_call_length(self) -> int:
        return max(self.max_call_lengths, default=0)


def validate_all_sources(
    sh,
    *,
    k: int | None = None,
    sources=None,
    require_minimum_time: bool = True,
    vertex_disjoint: bool = False,
) -> AllSourcesOutcome:
    """Generate and validate the scheme's schedule for many sources.

    The batch path end-to-end: coset-translated generation, the fast
    validator on every translated row, and — should a translated
    schedule ever fail — direct per-source regeneration, so verdicts
    always equal the per-source loop (``broadcast_schedule`` + fast
    validator) exactly.
    """
    from repro.core.broadcast import broadcast_schedule
    from repro.engine.cache import fast_validator_for

    if sources is not None:
        sources = [int(s) for s in sources]  # materialize: iterated twice
    k_eff = sh.k if k is None else k
    validator = fast_validator_for(sh.graph)
    stacks, n_cosets = _coset_stacks(sh, sources)
    per_source: dict[int, tuple[bool, int, int]] = {}
    n_fallback = 0
    for stack in stacks:
        for i in range(stack.n_schedules):
            src = int(stack.sources[i])
            report = validator.validate(
                stack.to_frame(i),
                k_eff,
                require_minimum_time=require_minimum_time,
                vertex_disjoint=vertex_disjoint,
            )
            if report.ok:
                per_source[src] = (True, report.rounds, report.max_call_length)
                continue
            # Correctness fallback: distrust the translation entirely and
            # re-derive this source's verdict from scratch.
            n_fallback += 1
            sched = broadcast_schedule(sh, src)
            report = validator.validate(
                sched,
                k_eff,
                require_minimum_time=require_minimum_time,
                vertex_disjoint=vertex_disjoint,
            )
            per_source[src] = (report.ok, len(sched), report.max_call_length)
    ordered = sorted(per_source) if sources is None else sources
    return AllSourcesOutcome(
        sources=ordered,
        ok=[per_source[s][0] for s in ordered],
        rounds=[per_source[s][1] for s in ordered],
        max_call_lengths=[per_source[s][2] for s in ordered],
        n_cosets=n_cosets,
        n_stacks=len(stacks),
        n_fallback=n_fallback,
    )
