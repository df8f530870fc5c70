"""Bitset/NumPy fast path for Definition-1 schedule validation.

The reference validator (:mod:`repro.model.validator`) walks every call
with Python sets and per-edge ``has_edge`` lookups — exact, legible, and
the repository's oracle, but it dominates the runtime of the theorem
sweeps (E01/E09/E12 validate a schedule per source per instance).

:class:`FastValidator` checks the same conditions V1–V8 with set
*aggregates* instead of per-call bookkeeping:

* the whole schedule is flattened once into NumPy arrays (sources,
  receivers, call lengths, traversed edges) — no per-call Python after
  that single pass;
* edge existence (V1) is one batched ``searchsorted`` of every traversed
  edge (keyed ``min·N + max``) against the graph's sorted key array, and
  per-round edge-disjointness (V5) is a sort + adjacent-equality sweep;
* informed / caller / receiver sets are N-bit integer bitmasks —
  "every caller informed" is ``smask & ~informed == 0``, "no duplicate
  receiver" is ``popcount(rmask) == m``, informing a round's receivers
  is ``informed |= rmask``.

The aggregate checks accept a round **iff** the reference accepts it
(they detect a superset of the reference's per-round errors — see the
property tests), so the fast path drops to slow mode only on *failing*
rounds: those are re-scanned with the reference ``validate_round`` to
reproduce the oracle's exact error strings and ordering.  Verdicts,
error lists, and first-error classes are therefore identical by
construction, at vectorized speed on the (overwhelmingly common) valid
schedules.

This is the repository's one validation engine: :func:`repro.api.validate`
resolves ``auto``, ``fast`` and ``batch`` to it, and
the all-sources pipeline (:mod:`repro.engine.batch`) runs it per row.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.frame import ScheduleFrame, as_schedule
from repro.graphs.base import Graph
from repro.model.validator import (
    ValidationReport,
    minimum_broadcast_rounds,
    validate_broadcast,
    validate_round,
)
from repro.types import Schedule

__all__ = [
    "FastValidator",
    "ScheduleLayout",
    "flatten_schedule",
    "flatten_frame",
    "validate_broadcast_fast",
    "classify_error",
    "ERROR_CLASSES",
]

# Coarse error taxonomy shared by the reference and fast validators.
# ``classify_error`` maps a reference error string onto one of these; the
# property tests assert the fast path reports the same verdict and the
# same class for the *first* error.
ERROR_CLASSES = (
    "bad-source",
    "bad-path",
    "over-length",
    "uninformed-caller",
    "duplicate-caller",
    "shared-receiver",
    "receiver-informed",
    "shared-edge",
    "shared-vertex",
    "incomplete",
    "not-minimum-time",
)

_CLASSIFIERS = (
    ("not a vertex", "bad-source"),
    ("is not a path of the graph", "bad-path"),
    ("exceeds k=", "over-length"),
    ("caller is not informed", "uninformed-caller"),
    ("places a second call", "duplicate-caller"),
    ("receiver already targeted", "shared-receiver"),
    ("receiver already informed", "receiver-informed"),
    ("used by another call", "shared-edge"),
    ("shared with another", "shared-vertex"),
    ("broadcast incomplete", "incomplete"),
    ("minimum time is", "not-minimum-time"),
)


def classify_error(message: str) -> str:
    """Map a validator error string to its class in :data:`ERROR_CLASSES`."""
    for needle, cls in _CLASSIFIERS:
        if needle in message:
            return cls
    raise ValueError(f"unclassifiable validator error: {message!r}")


def _rounds_containing(flat_indices: np.ndarray, boundaries: np.ndarray) -> set[int]:
    """Round indices (0-based) owning the given flat item indices, where
    ``boundaries[i]`` is the exclusive end offset of round ``i``."""
    return set(np.searchsorted(boundaries, flat_indices, side="right").tolist())


@dataclass(frozen=True)
class ScheduleLayout:
    """The source-independent shape of a schedule's call arrays.

    Two schedules share a layout iff they have the same per-round call
    counts and the same per-call path lengths, in order — exactly the
    invariant the batch engine's XOR translation preserves.  All index
    arrays address the flattened path-vertex row (length
    :attr:`n_items`):

    * call ``c`` occupies ``flat[path_starts[c]:path_ends[c]]``;
    * round ``r`` owns calls ``call_bounds[r]:call_bounds[r+1]`` and
      edges ``edge_bounds[r]:edge_bounds[r+1]``;
    * edge ``e`` runs ``flat[us_idx[e]]`` – ``flat[vs_idx[e]]``.
    """

    n_rounds: int
    counts: np.ndarray
    lengths: np.ndarray
    path_starts: np.ndarray
    path_ends: np.ndarray
    call_bounds: np.ndarray
    edge_bounds: np.ndarray
    us_idx: np.ndarray
    vs_idx: np.ndarray

    @property
    def n_calls(self) -> int:
        return int(self.lengths.size)

    @property
    def n_items(self) -> int:
        return int(self.lengths.sum()) + self.n_calls

    @property
    def n_edges(self) -> int:
        return int(self.lengths.sum())

    @property
    def max_call_length(self) -> int:
        return int(self.lengths.max()) if self.n_calls else 0

    def key(self) -> bytes:
        """Hashable grouping token: layouts with equal keys stack."""
        return self.counts.tobytes() + b"|" + self.lengths.tobytes()

    @staticmethod
    def from_counts(counts: np.ndarray, lengths: np.ndarray) -> "ScheduleLayout":
        counts = np.asarray(counts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        path_ends = np.cumsum(lengths + 1)
        path_starts = path_ends - lengths - 1
        call_bounds = np.concatenate(([0], np.cumsum(counts)))
        edge_bounds = np.concatenate(([0], np.cumsum(lengths)))[call_bounds]
        n_items = int(path_ends[-1]) if lengths.size else 0
        item_idx = np.arange(n_items, dtype=np.int64)
        us_idx = np.delete(item_idx, path_ends - 1)
        vs_idx = np.delete(item_idx, path_starts)
        return ScheduleLayout(
            n_rounds=int(counts.size),
            counts=counts,
            lengths=lengths,
            path_starts=path_starts,
            path_ends=path_ends,
            call_bounds=call_bounds,
            edge_bounds=edge_bounds,
            us_idx=us_idx,
            vs_idx=vs_idx,
        )


def flatten_frame(frame: ScheduleFrame) -> tuple[ScheduleLayout, np.ndarray]:
    """A frame's layout plus its flat path-vertex row — no per-call work.

    The layout is pure offset arithmetic over the frame's columnar
    arrays; it is cached on the (frozen) frame, so repeated validation of
    the same frame skips even that.
    """
    layout = getattr(frame, "_layout", None)
    if layout is None:
        layout = ScheduleLayout.from_counts(frame.call_counts(), frame.call_lengths())
        # caching a derived value on the frozen frame, not mutating its
        # schedule content — the idiom frame.py documents for validators
        object.__setattr__(frame, "_layout", layout)  # repro-lint: disable=RL003
    return layout, frame.path_verts


def flatten_schedule(
    schedule: Schedule | ScheduleFrame,
) -> tuple[ScheduleLayout, np.ndarray]:
    """One pass over a schedule: its layout plus the flat path-vertex row.

    Shared by :class:`FastValidator` and the batch engine
    (:mod:`repro.engine.batch`) — one implementation of the index
    arithmetic, two consumers.  Frames (and frame-backed schedules) take
    the columnar shortcut: their layout derives from the offset arrays
    without touching a single ``Call`` object.
    """
    if isinstance(schedule, ScheduleFrame):
        return flatten_frame(schedule)
    frame = schedule.frame_or_none()
    if frame is not None:
        return flatten_frame(frame)
    rounds = schedule.rounds
    paths = [c.path for rnd in rounds for c in rnd.calls]
    counts = np.fromiter(
        (len(rnd.calls) for rnd in rounds), dtype=np.int64, count=len(rounds)
    )
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths)) - 1
    layout = ScheduleLayout.from_counts(counts, lengths)
    flat = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=layout.n_items)
    return layout, flat


@dataclass
class _FrameScreenState:
    """Validation state derived from one (frame, graph) pair.

    Attached to the immutable frame (like its cached layout); holds the
    call endpoints, canonical edge keys, the V1 missing-edge verdict,
    and — per vertex-disjoint flag — the V3–V6 screen outcome
    (informed-count trajectory, or None when some round fails)."""

    graph_ref: "weakref.ref"
    sources: np.ndarray
    receivers: np.ndarray
    keys: np.ndarray
    missing_rounds: frozenset
    screen: dict = field(default_factory=dict)


class FastValidator:
    """Reusable fast validator bound to one graph.

    Construction pays the one-time cost of materializing the graph's
    sorted edge-key array; ``validate`` can then be called for many
    schedules (the sweep experiments validate one schedule per source on
    the same graph).
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._n = graph.n_vertices
        self._nbytes = (self._n + 7) // 8
        self._full_mask = (1 << self._n) - 1
        # Canonical (u < v) edge keys min·N + max, sorted: CSR rows come in
        # ascending u with ascending neighbours, so filtering to v > u
        # yields the keys already in order.
        indptr, indices = graph.csr_arrays()
        row = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(indptr))
        upper = indices > row
        self._edge_keys = row[upper] * self._n + indices[upper]
        # Sentinel-extended copy: searchsorted positions index it directly
        # (position == size lands on the -1 sentinel, never a match).
        self._edge_keys_sentinel = np.append(self._edge_keys, np.int64(-1))

    # -- bitmask helpers ----------------------------------------------------

    def _mask(self, vertices: np.ndarray) -> int:
        """N-bit integer bitmask of the given vertex indices."""
        scatter = np.zeros(self._n, dtype=np.uint8)
        scatter[vertices] = 1
        return int.from_bytes(
            np.packbits(scatter, bitorder="little").tobytes(), "little"
        )

    def _mask_to_set(self, mask: int) -> set[int]:
        """Expand an integer bitmask back to a vertex set (slow path only)."""
        raw = np.frombuffer(mask.to_bytes(self._nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: self._n]
        return set(np.flatnonzero(bits).tolist())

    # -- columnar happy-path screen -----------------------------------------

    def _missing_edge_rounds(
        self, keys: np.ndarray, layout: ScheduleLayout
    ) -> frozenset[int]:
        """Round indices containing a traversed non-edge (V1), batched."""
        if not keys.size:
            return frozenset()
        if self._edge_keys.size:
            pos = np.searchsorted(self._edge_keys, keys)
            bad = self._edge_keys_sentinel[pos] != keys
            if not bad.any():
                return frozenset()
            missing = np.flatnonzero(bad)
        else:
            missing = np.arange(keys.size)
        return frozenset(_rounds_containing(missing, layout.edge_bounds[1:]))

    def _frame_state(
        self, frame: ScheduleFrame, layout: ScheduleLayout, flat: np.ndarray
    ) -> "_FrameScreenState":
        """The per-(frame, graph) validation state, cached on the frame.

        Frames are immutable and validators are per-graph, so call
        endpoints, canonical edge keys, the V1 verdict, and the V3–V6
        screen results are all pure functions of the pair — computed on
        first validation, reused by every later one (any graph, k, or
        flag change recomputes what it must)."""
        state = getattr(frame, "_screen_state", None)
        if state is not None and state.graph_ref() is self.graph:
            return state
        n = self._n
        sources = flat[layout.path_starts]
        receivers = flat[layout.path_ends - 1]
        us = flat[layout.us_idx]
        vs = flat[layout.vs_idx]
        keys = np.minimum(us, vs) * n + np.maximum(us, vs)
        state = _FrameScreenState(
            graph_ref=weakref.ref(self.graph),
            sources=sources,
            receivers=receivers,
            keys=keys,
            missing_rounds=self._missing_edge_rounds(keys, layout),
            screen={},
        )
        # derived-value cache on the frozen frame (see flatten_frame)
        object.__setattr__(frame, "_screen_state", state)  # repro-lint: disable=RL003
        return state

    def _screen_counts(
        self,
        source: int,
        layout: ScheduleLayout,
        flat: np.ndarray,
        sources: np.ndarray,
        receivers: np.ndarray,
        keys: np.ndarray,
        vertex_disjoint: bool,
    ) -> np.ndarray | None:
        """Per-round conditions V3–V6, vectorized across all rounds.

        Returns the informed-count trajectory — identical to what the
        round loop records — when every round passes; returns None when
        *any* check fails, in which case the round loop decides.  Purely
        an accept-path shortcut: it can never change a verdict, an error
        string, or a statistic.  ``k`` plays no part in V3–V6 (V1/V2 are
        screened by the caller), so a cached result holds for every k.
        """
        n = self._n
        n_rounds = layout.n_rounds
        round_of_call = np.repeat(np.arange(n_rounds, dtype=np.int64), layout.counts)
        if receivers.size:
            # V6 across all rounds at once: in a valid broadcast receivers
            # are globally distinct and never the (pre-informed) source.
            rs = np.sort(receivers)
            if bool((rs[1:] == rs[:-1]).any()) or bool((receivers == source).any()):
                return None
        # Round in which each vertex becomes informed (source: before any).
        inform_round = np.full(n, n_rounds, dtype=np.int64)
        inform_round[source] = -1
        inform_round[receivers] = round_of_call
        if sources.size:
            # V3: informed strictly before calling; V4: one call per caller
            # per round (duplicate (round, caller) pairs sort adjacent).
            if bool((inform_round[sources] >= round_of_call).any()):
                return None
            sk = np.sort(round_of_call * n + sources)
            if bool((sk[1:] == sk[:-1]).any()):
                return None
        if keys.size:
            # V5: edge-disjoint within each round.
            round_of_edge = np.repeat(round_of_call, layout.lengths)
            ek = np.sort(round_of_edge * (n * n) + keys)
            if bool((ek[1:] == ek[:-1]).any()):
                return None
        if vertex_disjoint and flat.size:
            round_of_item = np.repeat(round_of_call, layout.lengths + 1)
            vk = np.sort(round_of_item * n + flat)
            if bool((vk[1:] == vk[:-1]).any()):
                return None
        received = np.bincount(round_of_call, minlength=n_rounds)
        return 1 + np.cumsum(received)

    def _screened_report(
        self,
        counts: np.ndarray,
        layout: ScheduleLayout,
        *,
        require_minimum_time: bool,
    ) -> ValidationReport:
        """The exact report for a schedule whose every round passed."""
        n = self._n
        n_rounds = layout.n_rounds
        report = ValidationReport(
            ok=True,
            rounds=n_rounds,
            informed_per_round=counts.tolist(),
            max_call_length=layout.max_call_length,
        )
        n_informed = int(counts[-1]) if n_rounds else 1
        if n_informed != n:
            report.errors.append(f"broadcast incomplete: {n_informed} of {n} informed")
        if require_minimum_time:
            need = minimum_broadcast_rounds(n)
            if n_rounds != need:
                report.errors.append(
                    f"schedule uses {n_rounds} rounds, minimum time is {need}"
                )
        report.ok = not report.errors
        return report

    # -- public API ---------------------------------------------------------

    def validate(
        self,
        schedule: Schedule | ScheduleFrame,
        k: int,
        *,
        require_minimum_time: bool = True,
        vertex_disjoint: bool = False,
    ) -> ValidationReport:
        """Drop-in equivalent of :func:`repro.model.validator.validate_broadcast`.

        Same :class:`ValidationReport`, same error strings (failing rounds
        are re-scanned with the reference ``validate_round``), same
        verdict — just faster on valid schedules.  Accepts the columnar
        :class:`~repro.frame.ScheduleFrame` directly (or a frame-backed
        ``Schedule`` view): the happy path then never materializes a
        ``Call`` object — rounds are only built if one of them fails and
        needs the reference re-scan for its exact error strings.
        """
        n = self._n
        report = ValidationReport(ok=True, rounds=len(schedule))
        if not (0 <= schedule.source < n):
            report.errors.append(f"source {schedule.source} not a vertex")
            report.ok = False
            return report

        sched_obj: Schedule | None = (
            None if isinstance(schedule, ScheduleFrame) else schedule
        )

        def round_obj(idx: int):
            nonlocal sched_obj
            if sched_obj is None:
                sched_obj = as_schedule(schedule)
            return sched_obj.rounds[idx]

        layout, flat = flatten_schedule(schedule)
        n_rounds = layout.n_rounds
        if flat.size and bool(((flat < 0) | (flat >= n)).any()):
            # Out-of-range path vertices: the reference raises
            # InvalidParameterError (Graph bounds check) rather than
            # reporting; delegate wholesale to reproduce that exactly
            # instead of crashing the bitmask scatter with IndexError.
            return validate_broadcast(
                self.graph,
                as_schedule(schedule),
                k,
                require_minimum_time=require_minimum_time,
                vertex_disjoint=vertex_disjoint,
            )
        n_calls = layout.n_calls
        lengths = layout.lengths
        call_bounds = layout.call_bounds
        edge_bounds = layout.edge_bounds
        frame = (
            schedule
            if isinstance(schedule, ScheduleFrame)
            else schedule.frame_or_none()
        )
        if frame is not None:
            state = self._frame_state(frame, layout, flat)
            sources, receivers, keys = state.sources, state.receivers, state.keys
            missing_rounds = state.missing_rounds
        else:
            state = None
            sources = flat[layout.path_starts]
            receivers = flat[layout.path_ends - 1]
            us = flat[layout.us_idx]
            vs = flat[layout.vs_idx]
            keys = np.minimum(us, vs) * n + np.maximum(us, vs)
            missing_rounds = self._missing_edge_rounds(keys, layout)

        # Global batches: call lengths (V2) and edge existence (V1); the
        # owning rounds of any offender fall back to the reference scan.
        suspect_rounds: set[int] = set(missing_rounds)
        if n_calls and int(lengths.max()) > k:
            suspect_rounds |= _rounds_containing(
                np.flatnonzero(lengths > k), call_bounds[1:]
            )

        if not suspect_rounds:
            # V1/V2 are clean everywhere: try the fully columnar accept
            # path (per-round checks vectorized across rounds, cached on
            # frames); fall through to the round loop only if some round
            # fails one of them.
            if state is not None and vertex_disjoint in state.screen:
                counts = state.screen[vertex_disjoint]
            else:
                counts = self._screen_counts(
                    schedule.source,
                    layout,
                    flat,
                    sources,
                    receivers,
                    keys,
                    vertex_disjoint,
                )
                if state is not None:
                    state.screen[vertex_disjoint] = counts
            if counts is not None:
                return self._screened_report(
                    counts, layout, require_minimum_time=require_minimum_time
                )

        informed = 1 << schedule.source
        full = self._full_mask
        for idx in range(n_rounds):
            c0, c1 = int(call_bounds[idx]), int(call_bounds[idx + 1])
            e0, e1 = int(edge_bounds[idx]), int(edge_bounds[idx + 1])
            m = c1 - c0
            rmask = self._mask(receivers[c0:c1]) if m else 0
            ok = idx not in suspect_rounds
            if ok and m:
                smask = self._mask(sources[c0:c1])
                ok = (
                    smask.bit_count() == m          # V4: one call per caller
                    and smask & (full ^ informed) == 0  # V3: callers informed
                    and rmask.bit_count() == m      # V6: receivers distinct
                    and rmask & informed == 0       # V6: receivers fresh
                )
                if ok:
                    ks = np.sort(keys[e0:e1])
                    ok = not (ks[1:] == ks[:-1]).any()  # V5: edge-disjoint
                if ok and vertex_disjoint:
                    verts = flat[e0 + c0 : e1 + c1]  # round's path vertices
                    ok = np.unique(verts).size == verts.size
            if not ok:
                report.errors.extend(
                    validate_round(
                        self.graph,
                        round_obj(idx),
                        self._mask_to_set(informed),
                        k,
                        round_index=idx + 1,
                        vertex_disjoint=vertex_disjoint,
                    )
                )
            # Mirror the reference: receivers become informed regardless of
            # the round's validity.
            informed |= rmask
            report.informed_per_round.append(informed.bit_count())
        report.max_call_length = int(lengths.max()) if n_calls else 0
        n_informed = informed.bit_count()
        if n_informed != n:
            report.errors.append(f"broadcast incomplete: {n_informed} of {n} informed")
        if require_minimum_time:
            need = minimum_broadcast_rounds(n)
            if n_rounds != need:
                report.errors.append(
                    f"schedule uses {n_rounds} rounds, minimum time is {need}"
                )
        report.ok = not report.errors
        return report


def validate_broadcast_fast(
    graph: Graph,
    schedule: Schedule | ScheduleFrame,
    k: int,
    *,
    require_minimum_time: bool = True,
    vertex_disjoint: bool = False,
) -> ValidationReport:
    """One-shot convenience wrapper around :class:`FastValidator`.

    For validating many schedules on the same graph, build one
    :class:`FastValidator` and reuse it — the edge-key array is the only
    per-graph setup cost.
    """
    return FastValidator(graph).validate(
        schedule,
        k,
        require_minimum_time=require_minimum_time,
        vertex_disjoint=vertex_disjoint,
    )
