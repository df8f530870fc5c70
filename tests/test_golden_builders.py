"""Byte pins on the schedule producers that build object schedules, on
the exact search, and on kernel path enumeration.

Each schedule case hashes the v2 payload of one producer's schedule, the
way ``tests/schedulers/test_greedy.py::TestGoldenSchedules`` pins greedy:
a change in call order, round order or path choice shows up here.  The
enumeration cases hash the paths ``GraphKernels.enumerate_paths`` lists
from vertex 0 for k = 1, 2, 3, in the order it lists them."""

import hashlib
import json

import pytest

from repro import api, io
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct
from repro.core.tree_scheme import ternary_tree_schedule
from repro.engine.kernels import GraphKernels
from repro.graphs.knodel import knodel_broadcast
from repro.graphs.specs import graph_from_spec
from repro.schedulers.search import find_minimum_time_schedule
from repro.util.bits import mask_from_indices


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _sparse_6_3(source):
    return broadcast_schedule(api.construction("sparse:6:3"), source)


GOLDEN = [
    (
        "broadcast sparse:6:3 s=0",
        lambda: _sparse_6_3(0),
        "3e8bf8d91f3db6238577c1a2b0577f99b767f257e1cebedaaaf8d58e3b4f4776",
    ),
    (
        "broadcast sparse:6:3 s=21",
        lambda: _sparse_6_3(21),
        "78303157162e51fd19317096d86df7921da4a1f4faf7ab88d4f0f8699ba3260f",
    ),
    (
        "broadcast sparse:6:3 s=63",
        lambda: _sparse_6_3(63),
        "58a24db30fa194479160f8c7ad7060eb8b9d09ef87730612d73664a8c01c73d2",
    ),
    (
        "broadcast construct(3, 7, (2, 4)) s=5",
        lambda: broadcast_schedule(construct(3, 7, (2, 4)), 5),
        "f96e08fe9fb2e60d665546963eb4f4f4f203c95eb298eb0e1017810f1531c73b",
    ),
    (
        "ternary tree h=1 s=0",
        lambda: ternary_tree_schedule(1, 0),
        "d75465fd4196391a71ac1ef91a77d23880e3035c464705e45fcf70a48605ced8",
    ),
    (
        "ternary tree h=1 s=2",
        lambda: ternary_tree_schedule(1, 2),
        "0fe4d6304066de3b1042c187dbd6815bc071af0ba679487774213fe83a3c7e1b",
    ),
    (
        "ternary tree h=3 s=0",
        lambda: ternary_tree_schedule(3, 0),
        "caf93bc8e46c63dac531cf86fb5cba23e445128c7c9e6ea42fc030c0927d830c",
    ),
    (
        "ternary tree h=3 s=9",
        lambda: ternary_tree_schedule(3, 9),
        "f6217f440b668242216db7890aeb5766218346ab0cc8d67d27e0ed740f223ebf",
    ),
    (
        "knodel d=3 n=16 s=3",
        lambda: knodel_broadcast(3, 16, 3),
        "29c50e3944a3a9ac869c7bebe21ce999752e22e6df9ce1e4e842b7bc64abfc9f",
    ),
    (
        "knodel d=2 n=12 s=5",
        lambda: knodel_broadcast(2, 12, 5),
        "850ea5ccf30f08655c715342bbb1e2b0a06422b499b3c91d580f66bdc45188f0",
    ),
]


@pytest.mark.parametrize(
    "build,digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN]
)
def test_schedule_bytes_pinned(build, digest):
    sched = build()
    assert sched is not None
    assert _digest(io.frame_to_dict(sched)) == digest


# ((graph, source, k), sha256 of find_minimum_time_schedule's v2 payload)
SEARCH_GOLDEN = [
    (
        ("path:4", 1, 1),
        "d2da27068b8da162fc74612232f29af97ff29aaee1659fdbb0d706aa5b06fd7b",
    ),
    (
        ("star:7", 1, 2),
        "d213718983cea3996cae2daa237c814fc96533ec0bf9aa03348b3537c7721b01",
    ),
    (
        ("hypercube:3", 5, 1),
        "01dc34b2718383da87e1e3fb8e387b66fb4b474a9e12d39f0aafcaa18ab394ef",
    ),
    (
        ("theorem1:2", 0, 4),
        "b5db8f6f778974deaf42ca0759fec135fe69672608db5566effc4f259f8e798b",
    ),
    (
        ("sparse:4:2", 0, 2),
        "0fcf06ff9b88c0d38925d8034e04efcaf5854e63d617d0d0b8b2a509ad74d7bf",
    ),
]


@pytest.mark.parametrize(
    "case,digest",
    SEARCH_GOLDEN,
    ids=[f"{spec} s={source} k={k}" for (spec, source, k), _ in SEARCH_GOLDEN],
)
def test_search_bytes_pinned(case, digest):
    spec, source, k = case
    sched = find_minimum_time_schedule(graph_from_spec(spec), source, k)
    assert sched is not None
    assert _digest(io.frame_to_dict(sched)) == digest


# (graph, paths listed over k = 1, 2, 3, sha256 of {str(k): paths})
ENUMERATION_GOLDEN = [
    (
        "hypercube:3",
        33,
        "29a8a713175a0f477a3966cd75bfc289278b6aca762a975b7c8fe22f1c982b3e",
    ),
    (
        "sparse:5:2",
        62,
        "efdb8a6735f6d8f06e3da1ae8500bd4d494159a72808b1508c77cd338960c469",
    ),
    (
        "knodel:3:16",
        33,
        "49dc7e5fb3bb4b21fa94ce84ac7e5e2484d5a6796ec5e37bb3fee1dcba15bc98",
    ),
    (
        "cycle:10",
        12,
        "8a97a3c83a08bb52b85958ca69f2b35726945962603dc65c8d388bf5c9aa7989",
    ),
]


@pytest.mark.parametrize(
    "spec,n_paths,digest",
    ENUMERATION_GOLDEN,
    ids=[spec for spec, _, _ in ENUMERATION_GOLDEN],
)
def test_enumerate_paths_pinned(spec, n_paths, digest):
    graph = graph_from_spec(spec)
    kern = GraphKernels(graph)
    targets = mask_from_indices(range(1, graph.n_vertices))
    paths = {
        str(k): [list(p) for p in kern.enumerate_paths(0, k, 0, targets)]
        for k in (1, 2, 3)
    }
    assert sum(len(ps) for ps in paths.values()) == n_paths
    assert _digest(paths) == digest
