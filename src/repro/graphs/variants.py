"""Hypercube variants and classic interconnection topologies.

Section 1 and Section 3 of the paper situate the sparse hypercube among the
classic degree/diameter trade-off topologies: cube-connected cycles,
folded hypercubes, de Bruijn graphs, star graphs, tori, cycles.  We
implement the ones used by experiment E14's comparison table.  Each is a
from-scratch construction over integer vertex ids with an explicit,
documented vertex encoding.
"""

from __future__ import annotations

from itertools import permutations

from repro.graphs.base import Graph
from repro.types import InvalidParameterError

__all__ = [
    "cycle_graph",
    "torus",
    "folded_hypercube",
    "cube_connected_cycles",
    "de_bruijn",
    "star_graph_permutation",
    "crossed_cube",
    "mobius_cube",
]


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n`` (n >= 3)."""
    if n < 3:
        raise InvalidParameterError(f"cycle needs >= 3 vertices, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def torus(rows: int, cols: int) -> Graph:
    """The 2-D torus (wrap-around mesh).  Vertex ``(r, c)`` is ``r*cols + c``.

    Degenerate wrap edges that would duplicate (2-long rings) are kept
    simple: rows/cols must be >= 3.
    """
    if rows < 3 or cols < 3:
        raise InvalidParameterError(f"torus needs dims >= 3, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return Graph(rows * cols, edges)


def folded_hypercube(n: int) -> Graph:
    """``Q_n`` plus all complement edges ``{u, ~u}`` (El-Amawy & Latifi).

    Degree ``n + 1``, diameter ``⌈n/2⌉``: the classic "shorter diameter by
    adding edges" variant the paper contrasts with its "smaller degree by
    deleting edges" approach.
    """
    from repro.graphs.hypercube import hypercube

    if n < 1:
        raise InvalidParameterError(f"folded hypercube needs n >= 1, got {n}")
    edges = list(hypercube(n).edges())
    full = (1 << n) - 1
    edges.extend((u, u ^ full) for u in range(1 << (n - 1)))
    return Graph(1 << n, edges)


def cube_connected_cycles(n: int) -> Graph:
    """CCC(n): each ``Q_n`` vertex is replaced by an n-cycle (Preparata &
    Vuillemin).  Vertex ``(u, i)`` — cube position ``u``, cycle position
    ``i ∈ [0, n)`` — is encoded as ``u * n + i``.

    Degree 3 for n >= 3: the classic constant-degree hypercube derivative
    the paper cites as prior degree-reduction work (at the cost of a larger
    diameter; the sparse hypercube instead preserves minimum *broadcast
    time* under k-line calls).
    """
    if n < 3:
        raise InvalidParameterError(f"CCC needs n >= 3, got {n}")
    edges = []
    for u in range(1 << n):
        for i in range(n):
            v = u * n + i
            edges.append((v, u * n + (i + 1) % n))  # cycle edge
            w = u ^ (1 << i)
            if u < w:  # cube edge in dimension i+1
                edges.append((v, w * n + i))
    return Graph(n * (1 << n), edges)


def de_bruijn(symbols: int, length: int) -> Graph:
    """Undirected de Bruijn graph ``UB(symbols, length)``.

    Vertices are length-``length`` strings over ``symbols`` letters
    (encoded base-``symbols``); ``u`` and ``v`` are adjacent iff one is a
    shift of the other (ignoring direction, dropping self-loops and
    parallel edges).  Degree ≤ 2·symbols.
    """
    if symbols < 2 or length < 1:
        raise InvalidParameterError(
            f"de Bruijn needs symbols >= 2, length >= 1, got {symbols}, {length}"
        )
    n = symbols**length
    edges = []
    for u in range(n):
        shifted = (u * symbols) % n
        for a in range(symbols):
            v = shifted + a
            if u != v:
                edges.append((u, v))
    return Graph(n, edges)


def crossed_cube(n: int) -> Graph:
    """The crossed cube ``CQ_n`` (Efe 1991) — n-regular, diameter ⌈(n+1)/2⌉.

    Another of the §3 "shorter diameter by replacing edges" variants.
    Definition (Efe): pairs of bits ``(u_{2i}, u_{2i-1})`` and
    ``(v_{2i}, v_{2i-1})`` are *pair related* iff equal or complementary
    (00~00, 10~10, 01~11, 11~01); ``u`` and ``v`` are adjacent across
    "dimension" d iff they agree above d, differ at d, all lower bit
    pairs are pair related, and (for even d) ``u_{d-1} = v_{d-1}``.

    Implemented literally from the definition; O(N²·n) construction, so
    keep n ≤ 12.
    """
    if n < 1 or n > 12:
        raise InvalidParameterError(f"crossed cube supported for 1 <= n <= 12, got {n}")

    def pair_related(a: int, b: int) -> bool:
        # Efe's relation R = {(00,00),(10,10),(01,11),(11,01)} on 2-bit
        # values: equal when the low bit is 0, complementary-in-the-high-
        # bit when the low bit is 1
        if a == b:
            return (a & 1) == 0
        return {a, b} == {1, 3}

    def adjacent(u: int, v: int) -> bool:
        x = u ^ v
        if x == 0:
            return False
        d = x.bit_length()  # highest differing dimension (1-indexed)
        # bits above d must agree (they do by construction of d)
        # check lower pairs: bits 1..d-1 grouped in pairs from the bottom
        if d % 2 == 0:
            # u_{d-1} must equal v_{d-1}
            if ((u >> (d - 2)) & 1) != ((v >> (d - 2)) & 1):
                return False
            top_pairs = (d - 2) // 2
        else:
            top_pairs = (d - 1) // 2
        for i in range(top_pairs):
            ua = (u >> (2 * i)) & 3
            va = (v >> (2 * i)) & 3
            if not pair_related(ua, va):
                return False
        return True

    edges = []
    for u in range(1 << n):
        for v in range(u + 1, 1 << n):
            if adjacent(u, v):
                edges.append((u, v))
    return Graph(1 << n, edges)


def mobius_cube(n: int) -> Graph:
    """The 0-Möbius cube (Cull & Larson) — a twisted-cube-family variant.

    Vertex ``u`` connects across dimension i to ``u`` with bit i flipped
    when bit i+1 of u is 0 (plain hypercube edge), and to ``u`` with bits
    1..i all flipped when bit i+1 is 1.  n-regular, diameter ≈ (n+2)/2 —
    included as the twisted-cube representative from the paper's §3
    variant survey [1,12,21].
    """
    if n < 1 or n > 16:
        raise InvalidParameterError(f"möbius cube supported for 1 <= n <= 16, got {n}")
    edges = []
    for u in range(1 << n):
        for i in range(1, n + 1):
            above = (u >> i) & 1 if i < n else 0  # bit i+1 (0 for i = n)
            if above == 0:
                v = u ^ (1 << (i - 1))
            else:
                v = u ^ ((1 << i) - 1)  # flip bits 1..i
            if u != v:
                edges.append((u, v))
    return Graph(1 << n, edges)


def star_graph_permutation(n: int) -> Graph:
    """The star graph ``S_n`` on permutations of ``{0..n-1}`` (Akers et al.).

    Adjacent iff one permutation is the other with positions 0 and ``i``
    swapped (i ≥ 1).  Degree ``n - 1``; ``n!`` vertices.  Included as the
    representative "Cayley graph with sublogarithmic degree" topology from
    the paper's Section 1 survey.  Vertex ids are the lexicographic ranks
    of the permutations.
    """
    if n < 2 or n > 7:
        raise InvalidParameterError(f"star graph supported for 2 <= n <= 7, got {n}")
    perms = sorted(permutations(range(n)))
    rank = {p: i for i, p in enumerate(perms)}
    edges = []
    for p, u in rank.items():
        for i in range(1, n):
            q = list(p)
            q[0], q[i] = q[i], q[0]
            v = rank[tuple(q)]
            if u < v:
                edges.append((u, v))
    return Graph(len(perms), edges)
