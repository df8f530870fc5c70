"""Textual graph specs for the CLI and experiment parameterization.

A spec is ``name`` or ``name:arg1:arg2...`` with integer arguments —
``hypercube:4``, ``theorem1:3``, ``path:16``, ``random-tree:24:7`` — so a
graph family can be named in a shell command (``repro schedule --graph
hypercube:3 ...``), a cached experiment parameter, or a benchmark id
without importing builders.  Specs are deterministic: the same string
always builds the same graph.
"""

from __future__ import annotations

import inspect
from typing import Callable

from repro.graphs.base import Graph
from repro.types import InvalidParameterError

__all__ = [
    "graph_from_spec",
    "parse_spec",
    "spec_names",
    "spec_vertices",
    "validate_spec",
]


def _sparse(n: int, m: int) -> Graph:
    from repro.core.construct import construct_base

    return construct_base(n, m).graph


def _hypercube(n: int) -> Graph:
    from repro.graphs.hypercube import hypercube

    return hypercube(n)


def _theorem1(h: int) -> Graph:
    from repro.graphs.trees import balanced_ternary_core_tree

    return balanced_ternary_core_tree(h)


def _path(n: int) -> Graph:
    from repro.graphs.trees import path_graph

    return path_graph(n)


def _star(n: int) -> Graph:
    from repro.graphs.trees import star

    return star(n)


def _cycle(n: int) -> Graph:
    from repro.graphs.variants import cycle_graph

    return cycle_graph(n)


def _complete_binary(h: int) -> Graph:
    from repro.graphs.trees import complete_binary_tree

    return complete_binary_tree(h)


def _random_tree(n: int, seed: int = 0) -> Graph:
    from repro.graphs.generators import random_tree

    return random_tree(n, seed=seed)


def _random_graph(n: int, extra_edges: int, seed: int = 0) -> Graph:
    from repro.graphs.generators import random_connected_graph

    return random_connected_graph(n, extra_edges, seed=seed)


def _knodel(delta: int, n: int) -> Graph:
    from repro.graphs.knodel import knodel_graph

    return knodel_graph(delta, n)


# name -> (builder, usage string, vertex count); the builder and the
# count both take the spec's int arguments.  The counts build no graph
# (campaigns rank their scenarios by them) and stay total on arguments a
# builder rejects, so ranking never fails where building would.
_BUILDERS: dict[str, tuple[Callable[..., Graph], str, Callable[..., int]]] = {
    "hypercube": (_hypercube, "hypercube:N_DIMS", lambda n: 1 << max(n, 0)),
    "theorem1": (_theorem1, "theorem1:H", lambda h: 3 * (1 << max(h, 0)) - 2),
    "path": (_path, "path:N", lambda n: n),
    "star": (_star, "star:N", lambda n: n),
    "cycle": (_cycle, "cycle:N", lambda n: n),
    "complete-binary": (
        _complete_binary,
        "complete-binary:HEIGHT",
        lambda h: (2 << max(h, 0)) - 1,
    ),
    "random-tree": (_random_tree, "random-tree:N[:SEED]", lambda n, seed=0: n),
    "random-graph": (
        _random_graph,
        "random-graph:N:EXTRA_EDGES[:SEED]",
        lambda n, extra_edges, seed=0: n,
    ),
    "sparse": (_sparse, "sparse:N_DIMS:M", lambda n, m: 1 << max(n, 0)),
    "knodel": (_knodel, "knodel:DELTA:N", lambda delta, n: n),
}


def spec_names() -> list[str]:
    """Known spec family names with their usage strings."""
    return [usage for _fn, usage, _order in _BUILDERS.values()]


def parse_spec(spec: str) -> tuple[str, list[int]]:
    """Split ``spec`` into its family name and integer arguments.

    Raises :class:`InvalidParameterError` for unknown families and
    non-integer arguments; does **not** build the graph, so callers (the
    campaign expander) can reject a whole grid of bad specs upfront.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in _BUILDERS:
        raise InvalidParameterError(
            f"unknown graph spec {spec!r}; known: {', '.join(sorted(_BUILDERS))}"
        )
    usage = _BUILDERS[name][1]
    try:
        args = [int(a) for a in rest.split(":")] if rest else []
    except ValueError:
        raise InvalidParameterError(
            f"graph spec arguments must be integers: {spec!r} (usage: {usage})"
        ) from None
    return name, args


def validate_spec(spec: str) -> None:
    """Check ``spec`` names a known family with a plausible argument count.

    A build-free sanity check: family and integer parsing via
    :func:`parse_spec`, arity against the builder's signature.  Value
    errors (e.g. a hypercube dimension of -3) still surface at build
    time.
    """
    name, args = parse_spec(spec)
    fn, usage, _order = _BUILDERS[name]
    params = inspect.signature(fn).parameters
    required = sum(1 for p in params.values() if p.default is inspect.Parameter.empty)
    if not required <= len(args) <= len(params):
        raise InvalidParameterError(
            f"wrong argument count in {spec!r} (usage: {usage})"
        )


def graph_from_spec(spec: str) -> Graph:
    """Build the graph named by ``spec`` (``family[:int[:int...]]``)."""
    name, args = parse_spec(spec)
    fn, usage, _order = _BUILDERS[name]
    try:
        return fn(*args)
    except TypeError:
        raise InvalidParameterError(
            f"wrong argument count in {spec!r} (usage: {usage})"
        ) from None


def spec_vertices(spec: str) -> int:
    """The vertex count of ``graph_from_spec(spec)``, from the family's
    formula: nothing is built.  Arguments the builder would reject still
    get a count; only the family and arity are checked."""
    name, args = parse_spec(spec)
    _fn, usage, order = _BUILDERS[name]
    try:
        return order(*args)
    except TypeError:
        raise InvalidParameterError(
            f"wrong argument count in {spec!r} (usage: {usage})"
        ) from None
