"""The binary n-cube ``Q_n`` and structural helpers specific to it.

``Q_n`` is the Cayley graph on ``V = {0,1}^n`` with ``{u, v} ∈ E`` iff
``v = ⊕_i u`` for some dimension ``i`` (paper, Section 3).  It has
``Δ(Q_n) = n`` and ``n · 2^{n-1}`` edges, and is the graph the sparse
hypercube constructions *delete edges from*.

Edge generation is vectorized: for each dimension we emit the ``2^{n-1}``
edges ``{u, u ^ (1 << (i-1))}`` with ``u``'s i-th bit clear, in one NumPy
expression per dimension.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import Graph
from repro.types import InvalidParameterError
from repro.util.bits import all_vertices

__all__ = [
    "MAX_DIMENSION",
    "hypercube",
    "hypercube_edge_array",
    "dimension_of_edge",
    "subcube_vertices",
]

# The largest cube dimension built (Q_24: 2^24 vertices, 24·2^23 edges);
# Q_n's edge array and every sparse hypercube are checked against it.
MAX_DIMENSION = 24


def hypercube_edge_array(n: int) -> np.ndarray:
    """All edges of ``Q_n`` as an ``(n * 2^{n-1}, 2)`` uint64 array.

    Row order: dimension 1 edges first (sorted by lower endpoint), then
    dimension 2, etc.  Each row is ``(u, u ^ 2^{i-1})`` with ``u < v``.
    """
    if n < 0 or n > MAX_DIMENSION:
        raise InvalidParameterError(
            f"hypercube dimension out of range [0, {MAX_DIMENSION}]: {n}"
        )
    verts = all_vertices(n)
    rows = []
    for i in range(1, n + 1):
        mask = np.uint64(1 << (i - 1))
        lower = verts[(verts & mask) == 0]
        rows.append(np.stack([lower, lower | mask], axis=1))
    if not rows:
        return np.empty((0, 2), dtype=np.uint64)
    return np.concatenate(rows, axis=0)


def hypercube(n: int) -> Graph:
    """The complete binary n-cube ``Q_n`` on ``2^n`` vertices."""
    edges = hypercube_edge_array(n)  # checks the dimension first
    return Graph(1 << n, [(int(u), int(v)) for u, v in edges])


def dimension_of_edge(u: int, v: int) -> int:
    """The dimension ``i`` (1-indexed) such that ``v = ⊕_i u``.

    Raises if ``{u, v}`` is not a hypercube edge (Hamming distance ≠ 1).
    """
    x = u ^ v
    if x == 0 or (x & (x - 1)) != 0:
        raise InvalidParameterError(
            f"({u}, {v}) is not a hypercube edge: endpoints differ in "
            f"{int(x).bit_count()} bits"
        )
    return x.bit_length()


def subcube_vertices(n: int, fixed_prefix: int, m: int) -> np.ndarray:
    """Vertices of the m-subcube of ``Q_n`` with prefix value ``fixed_prefix``.

    The subcube consists of all vertices ``u`` with ``u >> m == fixed_prefix``;
    these are the vertex sets the paper's Phase 1/Phase 2 argument partitions
    the cube into.
    """
    if not (0 <= m <= n):
        raise InvalidParameterError(f"need 0 <= m <= n, got m={m}, n={n}")
    if not (0 <= fixed_prefix < (1 << (n - m))):
        raise InvalidParameterError(
            f"prefix {fixed_prefix} out of range for n-m = {n - m} bits"
        )
    base = np.uint64(fixed_prefix << m)
    return base + all_vertices(m)
