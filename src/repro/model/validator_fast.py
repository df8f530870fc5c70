"""NumPy fast path for Definition-1 schedule validation.

The reference validator (:mod:`repro.model.validator`) walks every call
with Python sets and per-edge ``has_edge`` lookups — exact, legible, and
the repository's oracle, but it dominates the runtime of the theorem
sweeps (E01/E09/E12 validate a schedule per source per instance).

:class:`FastValidator` checks the same conditions V1–V8 on arrays:

* every schedule is read through its columnar frame, whose offsets give
  the NumPy arrays (callers, receivers, call lengths, traversed edges)
  with no per-call Python;
* edge existence (V1) is one batched ``searchsorted`` of every traversed
  edge (keyed ``min·N + max``) against the graph's sorted key array;
* the per-round checks V3–V6 run across all rounds at once as sorts and
  adjacent-equality sweeps over ``(round, value)`` keys, plus one
  "round in which each vertex is first informed" array.

A schedule that passes those screens gets its report straight from
them.  When V1/V2 flag a call or a screen rejects, one more array pass
reproduces the reference's per-call bookkeeping exactly — a call is
flagged when its ``(round, caller)``, ``(round, receiver)``,
``(round, edge)`` or (vertex-disjoint mode) ``(round, vertex)`` key
already occurred among the round's earlier calls whose path passes V1 —
and only the flagged calls are formatted into the reference's error
strings, in the reference's order.  Verdicts, error lists and
statistics are therefore identical to the oracle's (pinned by the
property tests), and no ``Call`` object is built on either path.

This is the repository's one validation engine: :func:`repro.api.validate`
resolves ``auto``, ``fast`` and ``batch`` to it, and
the all-sources pipeline (:mod:`repro.engine.batch`) runs it per row.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.frame import ScheduleFrame, as_frame
from repro.graphs.base import Graph
from repro.model.validator import (
    ValidationReport,
    minimum_broadcast_rounds,
    validate_broadcast,
)
from repro.types import Schedule

__all__ = [
    "FastValidator",
    "ScheduleLayout",
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


def _repeats(keys: np.ndarray) -> np.ndarray:
    """True at every entry whose value already occurs earlier in ``keys``."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    out = np.zeros(keys.size, dtype=bool)
    out[order[1:]] = ranked[1:] == ranked[:-1]
    return out


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


@dataclass
class _FrameScreenState:
    """Validation state derived from one (frame, graph) pair.

    Attached to the immutable frame (like its cached layout); holds the
    call endpoints, canonical edge keys, whether any traversed edge is
    missing from the graph (V1), and — per vertex-disjoint flag — the
    V3–V6 screen outcome (informed-count trajectory, or None when some
    round fails)."""

    graph_ref: "weakref.ref"
    sources: np.ndarray
    receivers: np.ndarray
    keys: np.ndarray
    missing: bool
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

    # -- columnar screen ----------------------------------------------------

    def _missing_edges(self, keys: np.ndarray) -> np.ndarray:
        """Which traversed edges are not edges of the graph (V1), batched."""
        return self._edge_keys_sentinel[np.searchsorted(self._edge_keys, keys)] != keys

    def _frame_state(
        self, frame: ScheduleFrame, layout: ScheduleLayout, flat: np.ndarray
    ) -> _FrameScreenState:
        """The per-(frame, graph) validation state, cached on the frame.

        Frames are immutable and validators are per-graph, so call
        endpoints, canonical edge keys, the V1 verdict, and the V3–V6
        screen results are all pure functions of the pair — computed on
        first validation, reused by every later one (any graph, k, or
        flag change recomputes what it must)."""
        state = getattr(frame, "_screen_state", None)
        if state is not None and state.graph_ref() is self.graph:
            return state
        us = flat[layout.us_idx]
        vs = flat[layout.vs_idx]
        keys = np.minimum(us, vs) * self._n + np.maximum(us, vs)
        state = _FrameScreenState(
            graph_ref=weakref.ref(self.graph),
            sources=flat[layout.path_starts],
            receivers=flat[layout.path_ends - 1],
            keys=keys,
            missing=bool(self._missing_edges(keys).any()),
        )
        # derived-value cache on the frozen frame (see flatten_frame)
        object.__setattr__(frame, "_screen_state", state)  # repro-lint: disable=RL003
        return state

    def _screen_counts(
        self,
        source: int,
        layout: ScheduleLayout,
        flat: np.ndarray,
        state: _FrameScreenState,
        vertex_disjoint: bool,
    ) -> np.ndarray | None:
        """Per-round conditions V3–V6, vectorized across all rounds.

        Returns the informed-count trajectory — identical to the
        reference's — when every round passes; returns None when *any*
        check fails, in which case :meth:`_round_errors` decides.  Purely
        an accept-path shortcut: it can never change a verdict, an error
        string, or a statistic.  ``k`` plays no part in V3–V6 (V1/V2 are
        screened by the caller), so a cached result holds for every k.
        """
        n = self._n
        sources, receivers, keys = state.sources, state.receivers, state.keys
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

    # -- failing schedules --------------------------------------------------

    def _round_errors(
        self,
        source: int,
        layout: ScheduleLayout,
        flat: np.ndarray,
        state: _FrameScreenState,
        k: int,
        vertex_disjoint: bool,
    ) -> tuple[list[str], np.ndarray]:
        """The reference's per-round errors and informed counts, on arrays.

        Mirrors :func:`repro.model.validator.validate_round` call by call:
        a call whose path fails V1 reports only that, and takes no part in
        the round's caller, receiver, edge and vertex bookkeeping; every
        other call is checked against the round's earlier such calls.  As
        in the reference, a receiver counts as informed from the round
        after its call even when that call fails.
        """
        n = self._n
        lengths = layout.lengths
        callers, receivers, keys = state.sources, state.receivers, state.keys
        n_calls = layout.n_calls
        calls = np.arange(n_calls)
        round_of_call = np.repeat(np.arange(layout.n_rounds), layout.counts)
        call_of_edge = np.repeat(calls, lengths)
        bad_path = np.zeros(n_calls, dtype=bool)
        bad_path[call_of_edge[self._missing_edges(keys)]] = True
        ok = ~bad_path
        # First round in which each vertex receives (the source: before any).
        first = np.full(n, layout.n_rounds, dtype=np.int64)
        np.minimum.at(first, receivers, round_of_call)
        first[source] = -1

        def repeats_among_ok(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
            out = np.zeros(mask.size, dtype=bool)
            out[mask] = _repeats(values[mask])
            return out

        too_long = lengths > k
        uninformed = first[callers] >= round_of_call
        second_call = repeats_among_ok(ok, round_of_call * n + callers)
        targeted = repeats_among_ok(ok, round_of_call * n + receivers)
        fresh = first[receivers] < round_of_call
        edge_ok = np.repeat(ok, lengths)
        round_of_edge = np.repeat(round_of_call, lengths)
        shared = repeats_among_ok(edge_ok, round_of_edge * (n * n) + keys)
        shared_edges: dict[int, list[int]] = {}
        for c, key in zip(call_of_edge[shared].tolist(), keys[shared].tolist()):
            shared_edges.setdefault(c, []).append(key)
        overlaps: dict[int, list[int]] = {}
        if vertex_disjoint:
            item_ok = np.repeat(ok, lengths + 1)
            item_call = np.repeat(calls, lengths + 1)[item_ok]
            verts = flat[item_ok]
            once = ~_repeats(item_call * n + verts)  # a call's own repeats
            item_call, verts = item_call[once], verts[once]
            seen = _repeats(round_of_call[item_call] * n + verts)
            for c, v in zip(item_call[seen].tolist(), verts[seen].tolist()):
                overlaps.setdefault(c, []).append(v)
        flagged = bad_path | too_long | uninformed | second_call | targeted | fresh
        flagged[list(shared_edges) + list(overlaps)] = True

        errors: list[str] = []
        for c in np.flatnonzero(flagged).tolist():
            caller, receiver = int(callers[c]), int(receivers[c])
            tag = f"round {int(round_of_call[c]) + 1}, call {caller}->{receiver}"
            if bad_path[c]:
                path = tuple(flat[layout.path_starts[c] : layout.path_ends[c]].tolist())
                errors.append(f"{tag}: path {path} is not a path of the graph")
                continue
            if too_long[c]:
                errors.append(f"{tag}: length {int(lengths[c])} exceeds k={k}")
            if uninformed[c]:
                errors.append(f"{tag}: caller is not informed")
            if second_call[c]:
                errors.append(f"{tag}: vertex {caller} places a second call")
            if targeted[c]:
                errors.append(f"{tag}: receiver already targeted this round")
            if fresh[c]:
                errors.append(f"{tag}: receiver already informed")
            for key in shared_edges.get(c, ()):
                edge = divmod(key, n)
                errors.append(f"{tag}: edge {edge} used by another call this round")
            if c in overlaps:
                errors.append(
                    f"{tag}: vertices {sorted(overlaps[c])} shared with another "
                    f"call (vertex-disjoint mode)"
                )
        informed = np.cumsum(np.bincount(first + 1, minlength=layout.n_rounds + 2))
        return errors, informed[1 : layout.n_rounds + 1]

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

        Same :class:`ValidationReport`, same error strings in the same
        order, same verdict.  Accepts a ``Schedule`` or its columnar
        :class:`~repro.frame.ScheduleFrame` (it reads the frame either
        way) and never materializes a ``Call`` object:
        valid schedules are accepted by the vectorized screens, and a
        failing schedule's error strings are computed by one more array
        pass that formats only the flagged calls.  A path vertex outside
        the graph is the one case handed to the reference validator
        whole, which raises :class:`~repro.types.InvalidParameterError`.
        """
        frame = as_frame(schedule)
        n = self._n
        if not (0 <= frame.source < n):
            report = ValidationReport(ok=False, rounds=frame.n_rounds)
            report.errors.append(f"source {frame.source} not a vertex")
            return report
        layout, flat = flatten_frame(frame)
        if flat.size and bool(((flat < 0) | (flat >= n)).any()):
            # Out-of-range path vertices: the reference raises
            # InvalidParameterError (Graph bounds check) rather than
            # reporting; delegate wholesale to reproduce that exactly.
            return validate_broadcast(
                self.graph,
                frame,
                k,
                require_minimum_time=require_minimum_time,
                vertex_disjoint=vertex_disjoint,
            )
        state = self._frame_state(frame, layout, flat)

        # V1/V2 are clean everywhere: try the fully columnar accept path
        # (per-round checks vectorized across rounds, cached on frames).
        counts = None
        if not state.missing and layout.max_call_length <= k:
            if vertex_disjoint not in state.screen:
                state.screen[vertex_disjoint] = self._screen_counts(
                    frame.source, layout, flat, state, vertex_disjoint
                )
            counts = state.screen[vertex_disjoint]
        errors: list[str] = []
        if counts is None:
            errors, counts = self._round_errors(
                frame.source, layout, flat, state, k, vertex_disjoint
            )
        n_rounds = layout.n_rounds
        report = ValidationReport(
            ok=True,
            errors=errors,
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
