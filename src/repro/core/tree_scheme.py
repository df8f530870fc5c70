"""A constructive minimum-time scheme for the Theorem-1 trees.

The paper proves Theorem 1 by citing Farley's line-broadcast theorem [14];
searching for schedules works for small h but the instances become
genuinely tight as h grows (the last-entered branch must sustain the
maximal growth rate ``x → 2x + 1`` every round).  This module gives an
explicit scheme, built from two primitives on complete binary trees that
we prove-by-validation in the test-suite:

**Pump P(s)** — tree ``T_s`` (height s, ``2^{s+1} − 1`` vertices), nothing
informed, an external *helper* adjacent to the root places one call into
the tree every round.  Round ``i`` (1-based) informs exactly level
``i − 1``:

* the helper calls the all-right vertex ``right^{i-1}(root)`` along the
  right spine;
* every informed vertex ``a`` at level ``ℓ ≤ i − 3`` calls
  ``(a.left · right^{i-3-ℓ}).right`` — one step left, then down the right
  chain;
* every vertex at level ``i − 2`` calls its left child.

Each call descends, and the (left-step, right-chain) decomposition of a
target's parent is unique, so calls are pairwise edge-disjoint; the
helper's pure right spine is disjoint from all chains (they start with a
left step).  ``T_s`` completes in ``s + 1`` rounds — the minimum.

**Root-fed Q(s)** — ``T_s`` with only the root informed, no helper.
Round 1: root calls its left child.  Rounds 2..s+1: the left subtree runs
``Q(s-1)`` while the root *pumps* the right subtree as the helper of
``P(s-1)``.  Completes in ``s + 1`` rounds — also the minimum, and the
right subtree is exactly the tight pump case.

**Composition on B_h** (centre c, three branches ``T_{h-1}``), budget
``⌈log₂(3·2^h − 2)⌉ = h + 2`` rounds (h ≥ 2):

* source = centre: round 1 ``c→r₁`` (branch 1 then runs Q), round 2
  ``c→r₂`` (branch 2 runs Q), rounds 3..h+2: c pumps branch 3 via P.
* source in a branch at depth d: round 1 ``s→c`` (length d ≤ h), round 2
  ``s→r_b`` (up its own branch) after which branch b runs Q; the centre
  seeds one other branch at round 2 and pumps the last one from round 3.

Every call has length ≤ h < 2h, so the scheme actually certifies
membership in ``G_h``, strictly stronger than Theorem 1's ``G_{2h}``
claim (pinned by ``TestTernarySchedule.test_call_lengths_at_most_h`` in
``tests/core/test_tree_scheme.py``).
"""

from __future__ import annotations

from repro.frame import ScheduleFrame
from repro.graphs.trees import balanced_ternary_core_tree
from repro.types import InvalidParameterError, Schedule

__all__ = ["pump_calls", "rootfed_calls", "ternary_tree_schedule"]


class _HeapTree:
    """Local coordinates of a complete binary tree of height ``s``:
    index 0 is the root, children of i are 2i+1 / 2i+2."""

    def __init__(self, height: int, to_global) -> None:
        self.s = height
        self.size = (1 << (height + 1)) - 1
        self.to_global = to_global

    def level(self, i: int) -> int:
        return (i + 1).bit_length() - 1

    def level_range(self, ell: int) -> range:
        return range((1 << ell) - 1, (1 << (ell + 1)) - 1)

    def left(self, i: int) -> int:
        return 2 * i + 1

    def right(self, i: int) -> int:
        return 2 * i + 2

    def right_chain(self, i: int, steps: int) -> list[int]:
        out = [i]
        for _ in range(steps):
            out.append(self.right(out[-1]))
        return out


def pump_calls(
    tree: _HeapTree, helper_prefix: list[int], pump_round: int
) -> list[tuple[int, ...]]:
    """The calls (as global-vertex paths) of P's round ``pump_round``.

    ``helper_prefix`` is the global path from the helper vertex up to (but
    excluding) the tree's root; the helper call is
    ``helper_prefix + [root, right, …, right^{i-1}]``.
    """
    i = pump_round
    if not (1 <= i <= tree.s + 1):
        raise InvalidParameterError(f"pump round {i} out of range 1..{tree.s + 1}")
    calls: list[tuple[int, ...]] = []
    # helper: right spine down to level i-1
    spine = tree.right_chain(0, i - 1)
    calls.append(tuple(helper_prefix + [tree.to_global(x) for x in spine]))
    # levels ℓ <= i-3: left step, right chain, then the right child
    for ell in range(0, i - 2):
        for a in tree.level_range(ell):
            chain = tree.right_chain(tree.left(a), i - 3 - ell)
            path = [a] + chain + [tree.right(chain[-1])]
            calls.append(tuple(tree.to_global(x) for x in path))
    # level i-2: left child directly
    if i >= 2:
        for a in tree.level_range(i - 2):
            calls.append((tree.to_global(a), tree.to_global(tree.left(a))))
    return calls


def rootfed_calls(tree: _HeapTree, q_round: int) -> list[tuple[int, ...]]:
    """The calls of Q's round ``q_round`` (root informed, no helper).

    Implemented by unrolling the recursion: Q(s) round 1 is root→left;
    round j ≥ 2 is Q(s-1) round j-1 on the left subtree plus P(s-1) round
    j-1 on the right subtree with the root as helper.
    """
    j = q_round
    if tree.s == 0:
        return []
    if not (1 <= j <= tree.s + 1):
        raise InvalidParameterError(f"Q round {j} out of range 1..{tree.s + 1}")
    if j == 1:
        return [(tree.to_global(0), tree.to_global(tree.left(0)))]
    calls: list[tuple[int, ...]] = []
    left_sub = _HeapTree(tree.s - 1, lambda x: tree.to_global(_embed(x, tree.left(0))))
    right_sub = _HeapTree(
        tree.s - 1, lambda x: tree.to_global(_embed(x, tree.right(0)))
    )
    calls.extend(rootfed_calls(left_sub, j - 1))
    calls.extend(pump_calls(right_sub, [tree.to_global(0)], j - 1))
    return calls


def _embed(local: int, sub_root: int) -> int:
    """Map a heap index within a subtree to the heap index in the parent
    tree whose subtree root has index ``sub_root``."""
    # walk the path bits of `local` starting from sub_root
    if local == 0:
        return sub_root
    path = []
    i = local
    while i > 0:
        path.append(i % 2)  # 1 => left child (i = 2p+1), 0 => right (i = 2p+2)
        i = (i - 1) // 2
    node = sub_root
    for bit in reversed(path):
        node = 2 * node + 1 if bit == 1 else 2 * node + 2
    return node


def ternary_tree_schedule(h: int, source: int) -> Schedule:
    """The constructive minimum-time schedule on B_h from any source.

    Completes in ``⌈log₂(3·2^h − 2)⌉`` rounds with every call of length at
    most ``max(2, h)``; validated against Definition 1 by the callers in
    tests/benches.
    """
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    graph = balanced_ternary_core_tree(h)
    n = graph.n_vertices
    if not (0 <= source < n):
        raise InvalidParameterError(f"source {source} not a vertex of B_{h}")
    block = (1 << h) - 1
    roots = [1 + b * block for b in range(3)]

    if h == 1:  # K_{1,3}: 2 rounds, handled directly
        if source == 0:
            r1, r2, r3 = roots
            star_rounds = [[(0, r1)], [(0, r2), (r1, 0, r3)]]
        else:
            others = [r for r in roots if r != source]
            star_rounds = [[(source, 0)], [(source, 0, others[0]), (0, others[1])]]
        return Schedule.from_frame(ScheduleFrame.from_paths(source, star_rounds))

    def branch_tree(b: int) -> _HeapTree:
        base = roots[b]
        return _HeapTree(h - 1, lambda x, base=base: base + x)

    total_rounds = h + 2
    rounds: list[list[tuple[int, ...]]] = [[] for _ in range(total_rounds)]

    if source == 0:
        # r1: c→r1 (branch 0 runs Q from round 2)
        rounds[0].append((0, roots[0]))
        for j in range(1, h + 1):
            rounds[j].extend(rootfed_calls(branch_tree(0), j))
        # r2: c→r2 (branch 1 runs Q from round 3)
        rounds[1].append((0, roots[1]))
        for j in range(1, h + 1):
            rounds[j + 1].extend(rootfed_calls(branch_tree(1), j))
        # rounds 3..h+2: centre pumps branch 2
        for j in range(1, h + 1):
            rounds[j + 1].extend(pump_calls(branch_tree(2), [0], j))
    else:
        b_src = (source - 1) // block
        others = [b for b in range(3) if b != b_src]
        # r1: s→c (up the branch, then the centre edge)
        up_path = _path_to_root(source, roots[b_src])
        rounds[0].append(tuple(up_path + [0]))
        # source's own branch: reach its root at r2 (if needed), then Q.
        # Q covers every non-root branch vertex, including the source —
        # drop the one call that would re-inform it (the source simply
        # starts participating at its scheduled Q slot).
        if source == roots[b_src]:
            for j in range(1, h + 1):
                rounds[j].extend(
                    p for p in rootfed_calls(branch_tree(b_src), j) if p[-1] != source
                )
        else:
            rounds[1].append(tuple(up_path))
            for j in range(1, h + 1):
                rounds[j + 1].extend(
                    p for p in rootfed_calls(branch_tree(b_src), j) if p[-1] != source
                )
        # r2: c seeds the first other branch, which runs Q from r3
        rounds[1].append((0, roots[others[0]]))
        for j in range(1, h + 1):
            rounds[j + 1].extend(rootfed_calls(branch_tree(others[0]), j))
        # rounds 3..h+2: c pumps the second other branch
        for j in range(1, h + 1):
            rounds[j + 1].extend(pump_calls(branch_tree(others[1]), [0], j))

    return Schedule.from_frame(ScheduleFrame.from_paths(source, rounds))


def _path_to_root(v: int, branch_root: int) -> list[int]:
    """Global path from ``v`` up to its branch root (heap parent walk)."""
    base = branch_root
    local = v - base
    path = [v]
    while local != 0:
        local = (local - 1) // 2
        path.append(base + local)
    return path
