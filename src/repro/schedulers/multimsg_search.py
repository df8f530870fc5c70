"""Exact multi-message broadcast search (the [24] Kwon–Chwa question).

M messages start at a common source; a call now carries a *message id*,
its caller must already hold that message, and Definition 1's physical
constraints apply per round across all messages (one call placed per
vertex, one reception per vertex, edge-disjoint paths, length ≤ k).

``find_multimessage_schedule`` finds a schedule delivering all M messages
to all vertices within a round budget, or proves none exists (complete
search with capacity pruning).  Small graphs only — the state space is
the product of per-message informed sets.

Since PR 2 the search runs on the shared engine
(:mod:`repro.engine.kernels`): path enumeration is CSR-native, and the
per-message holder sets, used-edge sets, and failed-state memo keys are
integer bitmasks — the engine's shared state encoding.

Headline facts established in tests/E22:

* pipelining the paper's own minimum-time schedule is impossible
  (every vertex calls every round — no slack), so the serial baseline is
  ``M·⌈log₂N⌉``;
* genuine multi-message schedules beat it: e.g. 2 messages on Q₃ finish
  in 4 rounds versus 6 serial (found and certified by this module);
* the trivial lower bound is ``⌈log₂N⌉ + (M − 1)`` (the source emits one
  message per round at best, and the last-emitted message still needs to
  reach everyone).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.cache import kernels_for
from repro.frame import ScheduleBuilder
from repro.graphs.base import Graph
from repro.model.validator import minimum_broadcast_rounds
from repro.schedulers.registry import ScheduleRequest, positive_param, scheduler
from repro.schedulers.search import SearchBudgetExceeded
from repro.types import (
    Call,
    InvalidParameterError,
    Schedule,
)
from repro.util.bits import iter_bits

__all__ = [
    "MultiMessageCall",
    "MultiMessageSchedule",
    "find_multimessage_schedule",
    "multimessage_lower_bound",
    "validate_multimessage",
]


@dataclass(frozen=True)
class MultiMessageCall:
    message: int
    call: Call


@dataclass
class MultiMessageSchedule:
    source: int
    n_messages: int
    rounds: list[list[MultiMessageCall]]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def multimessage_lower_bound(n_vertices: int, n_messages: int) -> int:
    """Best of two arguments:

    * emission: ⌈log₂N⌉ + M − 1 (the source releases one message per
      round; the last released still needs a doubling phase);
    * reception counting: M(N−1) receptions are needed; round t admits at
      most ``min(2^{t-1}, ⌊N/2⌋)`` receptions (only vertices that already
      hold something can call, holders at most double per round, and a
      round is a caller→receiver matching).

    For (Q₃, M = 2) this gives 5 — and the exact search certifies 5 is
    achievable, so the bound is tight there (test-suite).
    """
    emission = minimum_broadcast_rounds(n_vertices) + n_messages - 1
    needed = n_messages * (n_vertices - 1)
    total = 0
    rounds = 0
    while total < needed:
        rounds += 1
        total += min(1 << (rounds - 1), n_vertices // 2)
    return max(emission, rounds)


def validate_multimessage(
    graph: Graph, schedule: MultiMessageSchedule, k: int
) -> list[str]:
    """Independent validator for multi-message schedules."""
    errors: list[str] = []
    holders = [{schedule.source} for _ in range(schedule.n_messages)]
    for idx, rnd in enumerate(schedule.rounds, start=1):
        used: set[tuple[int, int]] = set()
        callers: set[int] = set()
        receivers: set[int] = set()
        for mc in rnd:
            call, msg = mc.call, mc.message
            tag = f"round {idx}, msg {msg}, {call.source}->{call.receiver}"
            if not graph.path_is_valid(call.path):
                errors.append(f"{tag}: invalid path")
                continue
            if call.length > k:
                errors.append(f"{tag}: length {call.length} > k")
            if call.source not in holders[msg]:
                errors.append(f"{tag}: caller lacks the message")
            if call.source in callers:
                errors.append(f"{tag}: caller busy")
            if call.receiver in receivers:
                errors.append(f"{tag}: receiver busy")
            if call.receiver in holders[msg]:
                errors.append(f"{tag}: receiver already has message")
            callers.add(call.source)
            receivers.add(call.receiver)
            for e in call.edges():
                if e in used:
                    errors.append(f"{tag}: edge {e} reused")
                used.add(e)
        for mc in rnd:
            holders[mc.message].add(mc.call.receiver)
    for msg, h in enumerate(holders):
        if len(h) != graph.n_vertices:
            errors.append(f"message {msg} incomplete: {len(h)}/{graph.n_vertices}")
    return errors


def find_multimessage_schedule(
    graph: Graph,
    source: int,
    k: int,
    n_messages: int,
    rounds: int,
    *,
    node_budget: int = 3_000_000,
) -> MultiMessageSchedule | None:
    """Complete search for an M-message broadcast within ``rounds``.

    Returns None only after exhausting the space (budget overrun raises).
    """
    if not graph.is_connected():
        raise InvalidParameterError("graph must be connected")
    if not (0 <= source < graph.n_vertices):
        raise InvalidParameterError(f"source {source} not a vertex")
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    if n_messages < 1:
        raise InvalidParameterError(f"need n_messages >= 1, got {n_messages}")
    n = graph.n_vertices
    kern = kernels_for(graph)
    full = kern.full_mask
    source_mask = 1 << source
    nodes = 0
    # Per-message holder sets and memo keys are bitmask ints (engine
    # encoding); a state is the tuple of holder masks plus the round.
    failed: set[tuple[tuple[int, ...], int]] = set()

    def capacity_ok(holders: tuple[int, ...], rounds_left: int) -> bool:
        cap = (1 << rounds_left) if rounds_left >= 0 else 1
        for h in holders:
            if h.bit_count() * cap < n:
                return False
        # source-emission bound: messages still held only by the source
        virgin = sum(1 for h in holders if h == source_mask)
        if virgin > rounds_left:
            return False
        return True

    def solve(holders: tuple[int, ...], r: int) -> list[list[MultiMessageCall]] | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"multi-message search exceeded {node_budget} nodes"
            )
        if all(h == full for h in holders):
            return []
        if r == rounds or not capacity_ok(holders, rounds - r):
            return None
        key = (holders, r)
        if key in failed:
            return None
        # candidate (caller, message) units: caller holds msg, msg not done
        units: list[tuple[int, int]] = []
        for msg, h in enumerate(holders):
            if h == full:
                continue
            units.extend((v, msg) for v in iter_bits(h))
        result: list[list[MultiMessageCall]] | None = None

        def assign(
            idx: int,
            used: int,
            callers: int,
            receivers: int,
            calls: list[MultiMessageCall],
        ) -> bool:
            nonlocal result, nodes
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded("multi-message search budget exceeded")
            if idx == len(units):
                if not calls:
                    return False
                new_holders = list(holders)
                for mc in calls:
                    new_holders[mc.message] |= 1 << mc.call.receiver
                rest = solve(tuple(new_holders), r + 1)
                if rest is not None:
                    result = [calls[:]] + rest
                    return True
                return False
            caller, msg = units[idx]
            if not (callers >> caller) & 1:
                targets = full & ~holders[msg] & ~receivers
                for path in kern.enumerate_paths(caller, k, used, targets):
                    edges = kern.path_edges_mask(path)
                    calls.append(MultiMessageCall(msg, Call.via(path)))
                    if assign(
                        idx + 1,
                        used | edges,
                        callers | (1 << caller),
                        receivers | (1 << path[-1]),
                        calls,
                    ):
                        return True
                    calls.pop()
            return assign(idx + 1, used, callers, receivers, calls)

        if assign(0, 0, 0, 0, []):
            assert result is not None
            return result
        failed.add(key)
        return None

    initial = tuple(source_mask for _ in range(n_messages))
    rounds_calls = solve(initial, 0)
    if rounds_calls is None:
        return None
    return MultiMessageSchedule(
        source=source, n_messages=n_messages, rounds=rounds_calls
    )


@scheduler(
    "multimsg_search", "exact multi-message search (M=1 reduces to k-line broadcast)"
)
def _multimsg_strategy(request: ScheduleRequest) -> tuple[Schedule | None, dict]:
    params = dict(request.params)
    n_messages = positive_param(params, "n_messages", 1)
    node_budget = positive_param(params, "node_budget", 3_000_000)
    if params:
        raise InvalidParameterError(f"multimsg_search: unknown params {sorted(params)}")
    if request.rounds is not None:
        budget = request.rounds
    else:
        budget = multimessage_lower_bound(
            request.graph.n_vertices, n_messages
        ) if n_messages > 1 else request.round_budget
    multi = find_multimessage_schedule(
        request.graph,
        request.source,
        request.k_effective,
        n_messages,
        budget,
        node_budget=node_budget,
    )
    stats: dict = {"n_messages": n_messages, "round_budget": budget}
    if multi is None:
        return None, stats
    if n_messages == 1:
        # M = 1 is exactly Definition-1 broadcast: flatten to a Schedule.
        builder = ScheduleBuilder(request.source)
        for rnd in multi.rounds:
            builder.add_round([mc.call.path for mc in rnd])
        return Schedule.from_frame(builder.build()), stats
    errors = validate_multimessage(request.graph, multi, request.k_effective)
    # An M > 1 schedule is not a Definition-1 Schedule, so the registry's
    # reference-validation step cannot apply; the multi-message validator
    # gates `found` instead, keeping the "validated before reported"
    # contract.
    stats["found"] = not errors
    stats["rounds"] = multi.num_rounds
    stats["errors"] = errors
    stats["multi_schedule_rounds"] = multi.num_rounds
    return None, stats
