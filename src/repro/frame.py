"""Columnar schedule core: the library's canonical interchange format.

The paper's object of study (Definition 1) is the broadcast schedule —
rounds of edge-disjoint k-bounded calls.  :class:`ScheduleFrame` holds
it as NumPy arrays, CSR-style, mirroring ``Graph.csr_arrays()``, so fast
consumers (the validator, the batch engine, the campaign runner, io)
never walk per-call objects:

``path_verts``
    one flat ``int64`` row holding every call's full vertex path,
    concatenated in round order then call order;
``call_offsets``
    ``n_calls + 1`` offsets into ``path_verts`` — call ``c`` traverses
    ``path_verts[call_offsets[c]:call_offsets[c + 1]]``;
``round_offsets``
    ``n_rounds + 1`` offsets into the *call* axis — round ``r`` owns
    calls ``round_offsets[r]:round_offsets[r + 1]``;
``source``
    the broadcasting vertex.

A frame is immutable: the dataclass is frozen and every array is marked
read-only, so a frame can be shared between validators, caches, and
processes without defensive copies.  Producers that grow a schedule
round by round use :class:`ScheduleBuilder`.  Every
:class:`repro.types.Schedule` is a view over exactly one frame:
``Schedule.from_frame`` wraps a frame without materializing a single
``Call``, ``Schedule(source, rounds)`` builds its frame once, and
``to_frame`` returns that frame (property-pinned by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np
import numpy.typing as npt

# ``types`` imports this module lazily (inside ``Schedule``), so importing
# ``Schedule`` here at module level is cycle-free.
from repro.types import InvalidParameterError, InvalidScheduleError, Schedule

__all__ = ["ScheduleFrame", "ScheduleBuilder", "as_frame", "as_schedule"]

IntArray = npt.NDArray[np.int64]


def _frozen_array(values: npt.ArrayLike, dtype: npt.DTypeLike = np.int64) -> IntArray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScheduleFrame:
    """A complete broadcast schedule as frozen columnar call arrays."""

    source: int
    path_verts: IntArray
    call_offsets: IntArray
    round_offsets: IntArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", int(self.source))
        object.__setattr__(self, "path_verts", _frozen_array(self.path_verts))
        object.__setattr__(self, "call_offsets", _frozen_array(self.call_offsets))
        object.__setattr__(self, "round_offsets", _frozen_array(self.round_offsets))
        self._check_offsets(self.call_offsets, self.path_verts.size, "call_offsets")
        self._check_offsets(
            self.round_offsets, self.call_offsets.size - 1, "round_offsets"
        )
        if (np.diff(self.call_offsets) < 2).any():
            raise InvalidScheduleError(
                "a call must traverse at least one edge "
                "(every call_offsets span needs >= 2 path vertices)"
            )

    @staticmethod
    def _check_offsets(offsets: IntArray, end: int, name: str) -> None:
        if offsets.ndim != 1 or offsets.size < 1:
            raise InvalidParameterError(f"{name} must be a non-empty 1-d array")
        if int(offsets[0]) != 0 or int(offsets[-1]) != end:
            raise InvalidParameterError(
                f"{name} must run from 0 to {end}, got "
                f"[{int(offsets[0])}, {int(offsets[-1])}]"
            )
        if (np.diff(offsets) < 0).any():
            raise InvalidParameterError(f"{name} must be non-decreasing")

    # -- shape --------------------------------------------------------------

    @property
    def n_rounds(self) -> int:
        return int(self.round_offsets.size - 1)

    @property
    def n_calls(self) -> int:
        return int(self.call_offsets.size - 1)

    @property
    def n_items(self) -> int:
        return int(self.path_verts.size)

    def __len__(self) -> int:
        return self.n_rounds

    # -- columnar accessors (no per-call objects) ---------------------------

    def call_lengths(self) -> IntArray:
        """Edge count of every call (``len(path) - 1``), in frame order."""
        return np.diff(self.call_offsets) - 1

    def call_counts(self) -> IntArray:
        """Number of calls in every round."""
        return np.diff(self.round_offsets)

    def callers(self) -> IntArray:
        """The vertex placing each call, in frame order."""
        return self.path_verts[self.call_offsets[:-1]]

    def receivers(self) -> IntArray:
        """The vertex receiving each call, in frame order."""
        return self.path_verts[self.call_offsets[1:] - 1]

    def max_call_length(self) -> int:
        lengths = self.call_lengths()
        return int(lengths.max()) if lengths.size else 0

    def round_slice(self, r: int) -> tuple[int, int]:
        """The call range ``[c0, c1)`` owned by round ``r``."""
        return int(self.round_offsets[r]), int(self.round_offsets[r + 1])

    def call_path(self, c: int) -> tuple[int, ...]:
        """Call ``c``'s vertex path as a tuple (materializing accessor)."""
        c0, c1 = int(self.call_offsets[c]), int(self.call_offsets[c + 1])
        return tuple(int(v) for v in self.path_verts[c0:c1])

    def round_paths(self, r: int) -> list[tuple[int, ...]]:
        """All call paths of round ``r`` (materializing accessor)."""
        c0, c1 = self.round_slice(r)
        return [self.call_path(c) for c in range(c0, c1)]

    def iter_round_paths(self) -> Iterator[list[tuple[int, ...]]]:
        for r in range(self.n_rounds):
            yield self.round_paths(r)

    def informed_after(self, t: int) -> set[int]:
        """Vertices informed after the first ``t`` rounds (source included).

        Replays receivers without checking feasibility; ``t`` follows
        Python slice semantics (negative counts from the end), as a slice
        of the round tuple ``Schedule.rounds[:t]`` does.
        """
        t = slice(t).indices(self.n_rounds)[1]
        c1 = int(self.round_offsets[t])
        received = self.path_verts[self.call_offsets[1 : c1 + 1] - 1]
        return {self.source, *received.tolist()}

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleFrame):
            return NotImplemented
        return (
            self.source == other.source
            and np.array_equal(self.round_offsets, other.round_offsets)
            and np.array_equal(self.call_offsets, other.call_offsets)
            and np.array_equal(self.path_verts, other.path_verts)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.source,
                self.path_verts.tobytes(),
                self.call_offsets.tobytes(),
                self.round_offsets.tobytes(),
            )
        )

    def __repr__(self) -> str:
        return (
            f"ScheduleFrame(source={self.source}, rounds={self.n_rounds}, "
            f"calls={self.n_calls}, items={self.n_items})"
        )

    # Validators cache derived state on the frame (its layout, a
    # per-graph screen holding a weakref); none of it belongs in a
    # serialized frame, so pickling carries the four fields only.
    def __getstate__(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "path_verts": self.path_verts,
            "call_offsets": self.call_offsets,
            "round_offsets": self.round_offsets,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)  # pickling drops the flag
            object.__setattr__(self, name, value)

    # -- conversions --------------------------------------------------------

    @staticmethod
    def from_paths(
        source: int, rounds: Iterable[Iterable[Sequence[int]]]
    ) -> "ScheduleFrame":
        """Build a frame from nested per-round call paths."""
        builder = ScheduleBuilder(source)
        for paths in rounds:
            builder.add_round(paths)
        return builder.build()


class ScheduleBuilder:
    """Mutable accumulator for :class:`ScheduleFrame` construction.

    Producers append whole rounds of call paths; :meth:`build` snapshots
    the arrays into a frozen frame (the builder stays usable, so partial
    schedules can be frozen mid-construction if needed).
    """

    def __init__(self, source: int) -> None:
        self.source = int(source)
        self._flat: list[int] = []
        self._call_offsets: list[int] = [0]
        self._round_offsets: list[int] = [0]

    @property
    def n_rounds(self) -> int:
        return len(self._round_offsets) - 1

    @property
    def n_calls(self) -> int:
        return len(self._call_offsets) - 1

    def add_round(self, paths: Iterable[Sequence[int]]) -> None:
        """Append one round of call paths (each a vertex sequence)."""
        for path in paths:
            if len(path) < 2:
                raise InvalidScheduleError(
                    f"a call must traverse at least one edge, got path "
                    f"{tuple(path)!r}"
                )
            self._flat.extend(int(v) for v in path)
            self._call_offsets.append(len(self._flat))
        self._round_offsets.append(self.n_calls)

    def build(self) -> ScheduleFrame:
        """Snapshot the accumulated rounds into a frozen frame."""
        return ScheduleFrame(
            source=self.source,
            path_verts=np.fromiter(self._flat, dtype=np.int64, count=len(self._flat)),
            call_offsets=np.fromiter(
                self._call_offsets, dtype=np.int64, count=len(self._call_offsets)
            ),
            round_offsets=np.fromiter(
                self._round_offsets, dtype=np.int64, count=len(self._round_offsets)
            ),
        )


def as_frame(schedule: Schedule | ScheduleFrame) -> ScheduleFrame:
    """Coerce a ``Schedule`` or ``ScheduleFrame`` to its frame (lossless)."""
    if isinstance(schedule, ScheduleFrame):
        return schedule
    if isinstance(schedule, Schedule):
        return schedule.to_frame()
    raise InvalidParameterError(
        f"expected a Schedule or ScheduleFrame, got {type(schedule).__name__}"
    )


def as_schedule(schedule: Schedule | ScheduleFrame) -> Schedule:
    """Coerce a ``Schedule`` or ``ScheduleFrame`` to the object view."""
    if isinstance(schedule, ScheduleFrame):
        return Schedule.from_frame(schedule)
    if isinstance(schedule, Schedule):
        return schedule
    raise InvalidParameterError(
        f"expected a Schedule or ScheduleFrame, got {type(schedule).__name__}"
    )
