"""Core datatypes shared across the library.

The paper's communication model (Definition 1) is about *calls*: during a
synchronous time unit a vertex may call one other vertex at distance at most
``k``, and simultaneous calls must be pairwise edge-disjoint and must not
share a receiver.  Everything in this library that produces or consumes a
broadcast schedule speaks in terms of the three small immutable records
defined here:

``Call``
    One call: the originating vertex, the full edge path used by the call
    (as a vertex sequence), and the receiving vertex.

``Round``
    The set of calls placed during one time unit.

``Schedule``
    An ordered list of rounds, together with the source vertex, modelling a
    complete broadcast.

Vertices are plain Python ``int``s throughout the library.  For hypercube
derived graphs the integer encodes the bit string: *dimension i* of the
paper (1-indexed, dimension 1 = least significant bit) corresponds to bit
``i - 1`` of the integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NoReturn, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.frame import ScheduleFrame

Vertex = int
Edge = tuple[int, int]

__all__ = [
    "Vertex",
    "Edge",
    "Call",
    "Round",
    "Schedule",
    "ReproError",
    "InvalidParameterError",
    "InvalidScheduleError",
    "ConstructionError",
    "canonical_edge",
]


class ReproError(Exception):
    """Base class for all library-specific errors.

    Every subclass carries a stable machine-readable ``code`` string —
    the same identifier surfaces in CLI exit-2 one-liners and in the
    service's HTTP error JSON, so scripted consumers never have to
    pattern-match prose.  Codes are append-only: once published, a code
    never changes meaning (pinned by ``tests/test_errors.py``).
    """

    code: str = "repro-error"


class InvalidParameterError(ReproError, ValueError):
    """A construction or scheme was invoked with out-of-range parameters."""

    code = "invalid-parameter"


class InvalidScheduleError(ReproError):
    """A schedule violates the k-line communication model (Definition 1)."""

    code = "invalid-schedule"


class ConstructionError(ReproError):
    """An internal invariant of a construction failed.

    Raised when a procedure from the paper cannot complete, e.g. when a
    labeling does not satisfy Condition A and therefore ``Broadcast_2``
    cannot find a relay neighbour.  Seeing this exception always indicates
    a bug (or a deliberately corrupted input in a test).
    """

    code = "construction-error"


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) form of the undirected edge ``{u, v}``.

    Used as a dictionary/set key wherever undirected edges must be compared,
    e.g. edge-disjointness checks in the validator.
    """
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Call:
    """A single call under the k-line communication model.

    Parameters
    ----------
    source:
        The vertex placing the call.  Must equal ``path[0]``.
    path:
        The full vertex sequence traversed by the call, including both
        endpoints.  ``len(path) - 1`` is the *length* of the call, which
        Definition 1 bounds by ``k``.
    receiver:
        The called vertex.  Must equal ``path[-1]``.
    """

    source: Vertex
    path: tuple[Vertex, ...]
    receiver: Vertex

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise InvalidScheduleError(
                f"a call must traverse at least one edge, got path {self.path!r}"
            )
        if self.path[0] != self.source:
            raise InvalidScheduleError(
                f"path {self.path!r} does not start at source {self.source}"
            )
        if self.path[-1] != self.receiver:
            raise InvalidScheduleError(
                f"path {self.path!r} does not end at receiver {self.receiver}"
            )

    @staticmethod
    def direct(u: Vertex, v: Vertex) -> "Call":
        """A length-1 call along the single edge ``{u, v}``."""
        return Call(source=u, path=(u, v), receiver=v)

    @staticmethod
    def via(path: Sequence[Vertex]) -> "Call":
        """A call along the explicit ``path`` (first element calls last)."""
        verts = tuple(path)
        return Call(source=verts[0], path=verts, receiver=verts[-1])

    @property
    def length(self) -> int:
        """Number of edges occupied by this call."""
        return len(self.path) - 1

    def edges(self) -> list[Edge]:
        """Canonical undirected edges traversed by the call, in order."""
        return [canonical_edge(a, b) for a, b in zip(self.path, self.path[1:])]


@dataclass(frozen=True)
class Round:
    """All calls placed during one time unit."""

    calls: tuple[Call, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "calls", tuple(self.calls))

    def __iter__(self) -> Iterator[Call]:
        return iter(self.calls)

    def __len__(self) -> int:
        return len(self.calls)

    def sources(self) -> list[Vertex]:
        return [c.source for c in self.calls]

    def receivers(self) -> list[Vertex]:
        return [c.receiver for c in self.calls]

    def max_call_length(self) -> int:
        return max((c.length for c in self.calls), default=0)


class _FrozenRounds(list["Round"]):
    """A list view that rejects mutation (rounds of a frozen schedule)."""

    def _reject(self, *_args: object, **_kwargs: object) -> NoReturn:
        raise InvalidParameterError("schedule is frozen; its rounds cannot be mutated")

    # the mutators deliberately do not match list's signatures
    append = extend = insert = remove = clear = _reject  # type: ignore[assignment]
    pop = sort = reverse = _reject  # type: ignore[assignment]
    __setitem__ = __delitem__ = _reject  # type: ignore[assignment]
    __iadd__ = __imul__ = _reject  # type: ignore[assignment]


class Schedule:
    """A complete broadcast schedule: the source plus an ordered round list.

    A schedule makes **no** claims about its own validity; use
    :func:`repro.api.validate` (or the simulator) to check it against a
    graph and a call-length bound ``k``.

    Since the columnar redesign a ``Schedule`` is a *view* over the
    canonical interchange format, :class:`repro.frame.ScheduleFrame`:

    * ``Schedule.from_frame(frame)`` wraps a frame without materializing
      any ``Call`` objects — rounds are built lazily on first access, so
      array-native consumers (the fast validator) never pay
      object-per-call cost;
    * ``schedule.to_frame()`` is the lossless inverse (property-pinned);
    * schedulers and engines return **frozen** schedules (builder mutates,
      result doesn't): ``append_round`` and round-list mutation raise on a
      frozen schedule.
    """

    __slots__ = ("source", "_rounds", "_frame", "_frozen")

    source: Vertex
    _rounds: list[Round] | None
    _frame: "ScheduleFrame | None"
    _frozen: bool

    def __init__(
        self,
        source: Vertex,
        rounds: Sequence[Round] | None = None,
    ) -> None:
        self.source = source
        self._rounds = list(rounds) if rounds is not None else []
        self._frame = None
        self._frozen = False

    # -- frame interop ------------------------------------------------------

    @classmethod
    def from_frame(cls, frame: "ScheduleFrame") -> "Schedule":
        """A frozen object view over a :class:`~repro.frame.ScheduleFrame`.

        No ``Call``/``Round`` objects are created until ``rounds`` is
        first touched; consumers that speak arrays (the fast validator,
        the batch engine, io) read the frame directly.
        """
        schedule = cls.__new__(cls)
        schedule.source = frame.source
        schedule._rounds = None
        schedule._frame = frame
        schedule._frozen = True
        return schedule

    def to_frame(self) -> "ScheduleFrame":
        """The columnar form of this schedule (lossless round-trip).

        Frozen schedules cache the frame; mutable ones rebuild it per
        call (the rounds may change under us).
        """
        if self._frame is not None:
            return self._frame
        from repro.frame import ScheduleFrame

        assert self._rounds is not None  # no frame implies explicit rounds
        frame = ScheduleFrame.from_paths(
            self.source, ([c.path for c in rnd] for rnd in self._rounds)
        )
        if self._frozen:
            self._frame = frame
        return frame

    def frame_or_none(self) -> "ScheduleFrame | None":
        """The cached frame if this schedule already has one (no build)."""
        return self._frame

    # -- rounds view --------------------------------------------------------

    @property
    def rounds(self) -> list[Round]:
        if self._rounds is None:
            assert self._frame is not None  # lazy rounds come from a frame
            self._rounds = _FrozenRounds(
                Round(tuple(Call.via(p) for p in paths))
                for paths in self._frame.iter_round_paths()
            )
        return self._rounds

    @rounds.setter
    def rounds(self, value: Sequence[Round]) -> None:
        if self._frozen:
            raise InvalidParameterError("schedule is frozen; cannot replace its rounds")
        self._rounds = list(value)
        self._frame = None

    def append_round(self, calls: Sequence[Call]) -> None:
        if self._frozen:
            raise InvalidParameterError("schedule is frozen; cannot append rounds")
        self._frame = None
        assert self._rounds is not None  # mutable schedules hold a list
        self._rounds.append(Round(tuple(calls)))

    # -- freezing -----------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "Schedule":
        """Mark the schedule immutable and return ``self`` (for chaining).

        Schedulers and the batch engine freeze every schedule they hand
        out, so a validated result cannot be silently edited afterwards.
        """
        if not self._frozen:
            self._frozen = True
            if self._rounds is not None and not isinstance(self._rounds, _FrozenRounds):
                self._rounds = _FrozenRounds(self._rounds)
        return self

    # -- inspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[Round]:
        return iter(self.rounds)

    def __len__(self) -> int:
        if self._rounds is None:
            assert self._frame is not None
            return self._frame.n_rounds
        return len(self._rounds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        if self.source != other.source:
            return False
        if self._frame is not None and self._frame is other._frame:
            return True
        return list(self.rounds) == list(other.rounds)

    __hash__ = None  # type: ignore[assignment]  # mutable container semantics

    def __repr__(self) -> str:
        return (
            f"Schedule(source={self.source}, rounds={len(self)}"
            f"{', frozen' if self._frozen else ''})"
        )

    @property
    def num_rounds(self) -> int:
        return len(self)

    @property
    def num_calls(self) -> int:
        if self._rounds is None:
            assert self._frame is not None
            return self._frame.n_calls
        return sum(len(r) for r in self._rounds)

    def max_call_length(self) -> int:
        """The longest call in the schedule (the schedule's effective ``k``)."""
        if self._rounds is None:
            assert self._frame is not None
            return self._frame.max_call_length()
        return max((r.max_call_length() for r in self._rounds), default=0)

    def informed_after(self, t: int) -> set[Vertex]:
        """Vertices informed after the first ``t`` rounds (source included).

        This replays receivers without checking feasibility; it is a
        convenience for inspection, not a validator.
        """
        if self._rounds is None:
            assert self._frame is not None
            return self._frame.informed_after(t)
        informed = {self.source}
        for r in self._rounds[:t]:
            informed.update(r.receivers())
        return informed

    def all_informed(self) -> set[Vertex]:
        return self.informed_after(len(self))
