"""A stateful executor for k-line communication schedules.

Where the validator answers "is this schedule legal?", the simulator
answers "what happens when it runs?" — it advances round by round,
*rejects* infeasible calls exactly as Definition 1 prescribes (a call
fails if it would share an edge or a receiver with an earlier call of the
same round), and records statistics.

It also implements the paper's Section-5 future-work extension: a per-edge
**bandwidth** ``b ≥ 1``, allowing up to ``b`` simultaneous calls per edge
(dilated-network style).  ``bandwidth=1`` is exactly the model of
Definition 1; experiment E15 studies how much schedule infeasibility a
bandwidth of 2 or 4 absorbs on deliberately-conflicting workloads.

Failure semantics are configurable: ``strict=True`` (default) raises on
the first rejected call — the mode used to machine-check Theorems 4/6 —
while ``strict=False`` records the rejection and carries on, the mode used
by the congestion experiments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.frame import as_schedule
from repro.graphs.base import Graph
from repro.types import (
    Call,
    InvalidScheduleError,
    Round,
    Schedule,
)

__all__ = ["LineNetworkSimulator", "SimulationResult", "RejectedCall"]


@dataclass(frozen=True)
class RejectedCall:
    """A call the simulator refused, with the Definition-1 clause violated."""

    round_index: int
    call: Call
    reason: str


@dataclass
class SimulationResult:
    """Statistics collected by a full simulation run."""

    source: int
    rounds_executed: int
    informed: set[int]
    informed_per_round: list[int]
    call_length_histogram: dict[int, int]
    edge_load_total: Counter
    max_edge_load_per_round: list[int]
    rejected: list[RejectedCall] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return bool(self.informed)  # overwritten by simulator property below

    def doubling_profile(self) -> list[float]:
        """Ratio of informed counts between consecutive rounds (ideal: 2.0
        until saturation) — the paper's 'informed vertices at most double'
        argument, measured."""
        counts = [1] + self.informed_per_round
        return [b / a for a, b in zip(counts, counts[1:])]


class LineNetworkSimulator:
    """Round-by-round executor of k-line schedules on a fixed graph."""

    def __init__(
        self,
        graph: Graph,
        k: int,
        *,
        bandwidth: int = 1,
        strict: bool = True,
    ) -> None:
        if k < 1:
            raise InvalidScheduleError(f"need k >= 1, got {k}")
        if bandwidth < 1:
            raise InvalidScheduleError(f"need bandwidth >= 1, got {bandwidth}")
        self.graph = graph
        self.k = k
        self.bandwidth = bandwidth
        self.strict = strict
        self._fast_validator = None  # lazy; shared across runs on this graph

    def _fast_report(self, schedule: Schedule):
        """A fast-validator report for ``schedule`` (bandwidth-1
        semantics; the validator's clauses are exactly the ones
        ``execute_round`` enforces per call)."""
        from repro.engine.cache import fast_validator_for

        if self._fast_validator is None:
            self._fast_validator = fast_validator_for(self.graph)
        return self._fast_validator.validate(
            schedule, self.k, require_minimum_time=False
        )

    # -- single-round semantics ------------------------------------------------

    def execute_round(
        self,
        rnd: Round,
        informed: set[int],
        *,
        round_index: int = 0,
    ) -> tuple[list[Call], list[RejectedCall]]:
        """Apply Definition 1 to one round.

        Calls are admitted in order; a call is rejected if it violates any
        clause (path validity, length, caller informed, single call per
        caller, per-edge bandwidth, single reception).  Returns
        ``(accepted, rejected)``; does **not** mutate ``informed``.
        """
        edge_use: Counter = Counter()
        receivers: set[int] = set()
        callers: set[int] = set()
        accepted: list[Call] = []
        rejected: list[RejectedCall] = []

        def reject(call: Call, reason: str) -> None:
            rejected.append(RejectedCall(round_index, call, reason))
            if self.strict:
                raise InvalidScheduleError(
                    f"round {round_index}: call {call.source}->{call.receiver} "
                    f"rejected: {reason}"
                )

        for call in rnd:
            if not self.graph.path_is_valid(call.path):
                reject(call, "path is not a path of the graph")
                continue
            if call.length > self.k:
                reject(call, f"call length {call.length} exceeds k={self.k}")
                continue
            if call.source not in informed:
                reject(call, "caller not informed")
                continue
            if call.source in callers:
                reject(call, "caller already placed a call this round")
                continue
            if call.receiver in receivers:
                reject(call, "receiver already targeted this round")
                continue
            if call.receiver in informed:
                reject(call, "receiver already informed")
                continue
            edges = call.edges()
            if any(edge_use[e] + 1 > self.bandwidth for e in edges):
                reject(call, "edge bandwidth exhausted")
                continue
            for e in edges:
                edge_use[e] += 1
            callers.add(call.source)
            receivers.add(call.receiver)
            accepted.append(call)
        return accepted, rejected

    # -- full-schedule execution -------------------------------------------------

    def run(self, schedule: Schedule) -> SimulationResult:
        """Execute all rounds; returns collected statistics.

        In strict mode an infeasible call raises; otherwise infeasible
        calls are dropped (their receivers stay uninformed) and recorded.
        Accepts a columnar :class:`~repro.frame.ScheduleFrame` too; the
        executor is inherently per-call, so the frame is walked through
        its object view.
        """
        schedule = as_schedule(schedule)
        if not (0 <= schedule.source < self.graph.n_vertices):
            raise InvalidScheduleError(f"source {schedule.source} not a vertex")
        informed: set[int] = {schedule.source}
        informed_per_round: list[int] = []
        lengths: Counter = Counter()
        total_load: Counter = Counter()
        max_per_round: list[int] = []
        all_rejected: list[RejectedCall] = []
        for idx, rnd in enumerate(schedule.rounds, start=1):
            accepted, rejected = self.execute_round(rnd, informed, round_index=idx)
            all_rejected.extend(rejected)
            round_load: Counter = Counter()
            for call in accepted:
                informed.add(call.receiver)
                lengths[call.length] += 1
                for e in call.edges():
                    total_load[e] += 1
                    round_load[e] += 1
            informed_per_round.append(len(informed))
            max_per_round.append(max(round_load.values(), default=0))
        return SimulationResult(
            source=schedule.source,
            rounds_executed=len(schedule.rounds),
            informed=informed,
            informed_per_round=informed_per_round,
            call_length_histogram=dict(sorted(lengths.items())),
            edge_load_total=total_load,
            max_edge_load_per_round=max_per_round,
            rejected=all_rejected,
        )

    def broadcast_completes(self, schedule: Schedule) -> bool:
        """True iff the executed schedule informs every vertex.

        Fast path: at bandwidth 1 a schedule the bitset validator accepts
        (completeness included, minimum-time not required) is exactly one
        the simulator would run without a single rejection, so the
        per-call Python walk is skipped — for frames and frame-backed
        schedules that path is purely columnar (no ``Call`` objects).
        Anything the validator flags falls through to :meth:`run` for the
        exact strict/lenient semantics (strict mode still raises on the
        offending call).
        """
        if (
            self.bandwidth == 1
            and 0 <= schedule.source < self.graph.n_vertices
            and self._fast_report(schedule).ok
        ):
            return True
        result = self.run(schedule)
        return len(result.informed) == self.graph.n_vertices
