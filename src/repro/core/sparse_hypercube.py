"""The :class:`SparseHypercube` structure: graph + recursion metadata.

A sparse hypercube ``Construct(k, (n, n_{k-1}, …, n_1))`` admits a *flat*
description that this class records (DESIGN.md, decision 4).  Write
``n_0 = 0`` and ``n_k = n``.  Then for every vertex ``u ∈ {0,1}^n``:

* **Base dimensions** ``1 ≤ i ≤ n_1``: the edge ``{u, ⊕_i u}`` always
  exists (Rule 1 applied recursively bottoms out in the complete ``Q_{n_1}``
  of ``Construct_BASE``).

* **Level-t dimensions** ``n_{t-1} < i ≤ n_t`` (for ``t = 2 .. k``): the
  edge ``{u, ⊕_i u}`` exists iff the *level-t label* of ``u`` owns
  dimension ``i``.  The level-t label is ``f*_t`` applied to the bit block
  ``(n_{t-2}, n_{t-1}]`` of ``u``  (for t = 2 this is the length-``n_1``
  suffix, exactly Construct_BASE's ``g``), and ownership is given by the
  level's partition ``S_1, …, S_{λ_t}`` of ``{n_{t-1}+1, …, n_t}``.

This is literally the paper's Rule 1 / Rule 2 pair unrolled across the
recursion: Rule 1 at level t copies the level-(t−1) graph into each
``n_{t-1}``-suffix subcube, and since each level's label depends only on
suffix bits, the lifted rules coincide with the flat rules above.  The
test-suite verifies flat-vs-recursive equality explicitly.

Both endpoints of a level-t edge share the label block (they differ only in
bit ``i > n_{t-1}``), so the edge rule is symmetric — the paper's remark
that ``g(u) = g(⊕_i u)`` for Rule-2 edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.domination.labeling import ConditionALabeling
from repro.graphs.base import Graph
from repro.types import InvalidParameterError

__all__ = ["Level", "SparseHypercube"]


@dataclass(frozen=True)
class Level:
    """Level ``t`` of the flattened construction (t = 2 .. k).

    Attributes
    ----------
    t:
        The level index (equals the ``k`` of the recursive call that
        created this level; level 2 is ``Construct_BASE``'s own level).
    top:
        ``n_t`` — the highest dimension this level connects.
    threshold:
        ``n_{t-1}`` — dimensions ``threshold+1 .. top`` are this level's
        Rule-2 dimensions.
    block_lo:
        ``n_{t-2}`` — the level's label block is bits
        ``block_lo+1 .. threshold``.
    labeling:
        A Condition-A labeling of ``Q_{threshold - block_lo}``.
    partition:
        ``S_1, …, S_λ`` as a tuple of tuples of dimensions; entry ``j``
        (0-based) lists the dimensions owned by label ``j``.  Subset sizes
        differ by at most one (Step 2/3 of the procedures); empty subsets
        are allowed when there are fewer dimensions than labels.
    """

    t: int
    top: int
    threshold: int
    block_lo: int
    labeling: ConditionALabeling
    partition: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not (0 <= self.block_lo < self.threshold < self.top):
            raise InvalidParameterError(
                f"level {self.t}: need 0 <= block_lo < threshold < top, got "
                f"({self.block_lo}, {self.threshold}, {self.top})"
            )
        block_len = self.threshold - self.block_lo
        if self.labeling.m != block_len:
            raise InvalidParameterError(
                f"level {self.t}: labeling is of Q_{self.labeling.m}, "
                f"block has length {block_len}"
            )
        if len(self.partition) != self.labeling.num_labels:
            raise InvalidParameterError(
                f"level {self.t}: partition has {len(self.partition)} parts, "
                f"labeling has {self.labeling.num_labels} labels"
            )
        dims = sorted(d for part in self.partition for d in part)
        expected = list(range(self.threshold + 1, self.top + 1))
        if dims != expected:
            raise InvalidParameterError(
                f"level {self.t}: partition covers dims {dims}, expected {expected}"
            )
        sizes = [len(p) for p in self.partition]
        if max(sizes) - min(sizes) > 1:
            raise InvalidParameterError(
                f"level {self.t}: partition sizes {sizes} differ by more than 1"
            )

    @cached_property
    def dim_owner(self) -> dict[int, int]:
        """Map dimension → 0-based label index owning it."""
        return {d: j for j, part in enumerate(self.partition) for d in part}

    @property
    def block_len(self) -> int:
        return self.threshold - self.block_lo

    @property
    def num_labels(self) -> int:
        return self.labeling.num_labels

    @property
    def rule2_dims(self) -> range:
        return range(self.threshold + 1, self.top + 1)

    def block_value(self, u: int) -> int:
        """The label block ``u_{threshold} … u_{block_lo+1}`` as an int."""
        return (u >> self.block_lo) & ((1 << self.block_len) - 1)

    def label_of(self, u: int) -> int:
        """The level label ``g_t(u)`` (0-based; paper's ``c_j`` is j-1)."""
        return self.labeling.label_of(self.block_value(u))

    def owns_edge(self, u: int, dim: int) -> bool:
        """Rule 2: does the edge ``{u, ⊕_dim u}`` exist at this level?"""
        if dim not in self.dim_owner:
            raise InvalidParameterError(
                f"dimension {dim} is not a level-{self.t} dimension "
                f"({self.threshold + 1}..{self.top})"
            )
        return self.dim_owner[dim] == self.label_of(u)

    def max_owned(self) -> int:
        """``max_j |S_j|`` — this level's contribution to Δ(G)."""
        return max(len(p) for p in self.partition)


@dataclass
class SparseHypercube:
    """A constructed sparse hypercube with its full recursion metadata.

    Attributes
    ----------
    n:
        Number of dimensions; the graph has ``2^n`` vertices.
    k:
        The call-length parameter the construction targets (the graph is a
        k-mlbg; Theorems 4 and 6).
    thresholds:
        ``(n_1, n_2, …, n_{k-1})`` — strictly increasing, all < n.
    levels:
        ``k - 1`` :class:`Level` records, levels[0] being level 2 (the
        base) and levels[-1] being level k (the outermost).
    """

    n: int
    k: int
    thresholds: tuple[int, ...]
    levels: list[Level] = field(repr=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidParameterError(f"need k >= 2, got {self.k}")
        if len(self.thresholds) != self.k - 1:
            raise InvalidParameterError(
                f"k={self.k} needs {self.k - 1} thresholds, got {self.thresholds}"
            )
        seq = (0,) + self.thresholds + (self.n,)
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise InvalidParameterError(
                f"thresholds must satisfy 0 < n_1 < … < n_{{k-1}} < n, got "
                f"{self.thresholds} with n={self.n}"
            )
        if len(self.levels) != self.k - 1:
            raise InvalidParameterError(
                f"expected {self.k - 1} levels, got {len(self.levels)}"
            )

    # -- structure ----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return 1 << self.n

    @property
    def base_dims(self) -> int:
        """``n_1`` — the dimensions of the complete core cube."""
        return self.thresholds[0]

    def level_owning(self, dim: int) -> Level | None:
        """The level whose Rule-2 range contains ``dim``; None for base dims."""
        if not (1 <= dim <= self.n):
            raise InvalidParameterError(f"dimension {dim} out of range 1..{self.n}")
        if dim <= self.base_dims:
            return None
        for level in self.levels:
            if level.threshold < dim <= level.top:
                return level
        raise AssertionError("unreachable: levels cover all dims")  # pragma: no cover

    def has_edge_rule(self, u: int, dim: int) -> bool:
        """Flat edge rule: does ``{u, ⊕_dim u}`` exist?"""
        level = self.level_owning(dim)
        if level is None:
            return True  # complete core cube
        return level.owns_edge(u, dim)

    def degree_formula(self) -> int:
        """Exact Δ(G) from the metadata (Lemma 1 generalized).

        Δ(G) = n_1 + Σ_t max_j |S_j^{(t)}|: the per-level label blocks
        occupy disjoint bit ranges, so some vertex simultaneously carries a
        maximizing label at every level.  Verified against the built graph
        in the test-suite.
        """
        return self.base_dims + sum(level.max_owned() for level in self.levels)

    def degree_of(self, u: int) -> int:
        """Degree of vertex ``u`` from the metadata (no graph needed)."""
        return self.base_dims + sum(
            len(level.partition[level.label_of(u)]) for level in self.levels
        )

    def edge_count_formula(self) -> int:
        """|E(G)| from the metadata: sum of degrees / 2."""
        total = self.n_vertices * self.base_dims
        for level in self.levels:
            # each label class has (2^block_len / num block values)… count
            # exactly: vertices with label j: (class size / 2^block_len) * 2^n
            block_total = 1 << level.block_len
            for j, part in enumerate(level.partition):
                class_size = len(level.labeling.class_of(j))
                n_vertices_with_label = (self.n_vertices // block_total) * class_size
                total += n_vertices_with_label * len(part)
        return total // 2

    # -- graph materialization ------------------------------------------------

    @cached_property
    def graph(self) -> Graph:
        """Materialize the edge set as a :class:`Graph` (cached).

        Edge generation is vectorized per dimension (the construction's
        only hot loop): for each Rule-2 dimension we select, in one NumPy
        expression, the vertices whose label owns it.
        """
        import numpy as np

        edges: list[tuple[int, int]] = []
        verts = np.arange(self.n_vertices, dtype=np.int64)
        # base dimensions: complete subcubes over dims 1..n_1
        for i in range(1, self.base_dims + 1):
            bit = 1 << (i - 1)
            lower = verts[(verts & bit) == 0]
            edges.extend((int(u), int(u) | bit) for u in lower)
        # level dimensions: Rule 2, one vectorized mask per dimension
        for level in self.levels:
            block_vals = (verts >> level.block_lo) & ((1 << level.block_len) - 1)
            vertex_labels = level.labeling.labels[block_vals]
            for dim in level.rule2_dims:
                j = level.dim_owner[dim]
                bit = 1 << (dim - 1)
                lower = verts[((verts & bit) == 0) & (vertex_labels == j)]
                edges.extend((int(u), int(u) | bit) for u in lower)
        return Graph(self.n_vertices, edges)

    def label_summary(self) -> list[dict[str, object]]:
        """Human-readable per-level summary (used by examples and the CLI)."""
        rows = []
        for level in self.levels:
            rows.append(
                {
                    "level": level.t,
                    "dims": f"{level.threshold + 1}..{level.top}",
                    "label block bits": f"{level.block_lo + 1}..{level.threshold}",
                    "labels": level.num_labels,
                    "labeling": level.labeling.name,
                    "partition": [list(p) for p in level.partition],
                }
            )
        return rows

    def describe(self) -> str:
        lines = [
            f"SparseHypercube(n={self.n}, k={self.k}, "
            f"thresholds={self.thresholds}): N={self.n_vertices}, "
            f"Δ={self.degree_formula()} (vs Δ(Q_{self.n})={self.n})"
        ]
        for row in self.label_summary():
            lines.append(
                f"  level {row['level']}: dims {row['dims']} owned via "
                f"{row['labels']}-labeling ({row['labeling']}) of bits "
                f"{row['label block bits']}; partition {row['partition']}"
            )
        return "\n".join(lines)
