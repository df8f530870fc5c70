"""Byte pins on the schedule producers that build object schedules.

Each case hashes the v2 payload of one producer's schedule, the way
``tests/schedulers/test_greedy.py::TestGoldenSchedules`` pins greedy: a
change in call order, round order or path choice shows up here."""

import hashlib
import json

import pytest

from repro import api, io
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct
from repro.core.tree_scheme import ternary_tree_schedule
from repro.graphs.knodel import knodel_broadcast
from repro.graphs.trees import path_graph
from repro.schedulers.legacy import heuristic_line_broadcast_legacy


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
    (
        "legacy greedy path:8 s=0",
        lambda: heuristic_line_broadcast_legacy(
            path_graph(8), 0, None, restarts=50, seed=0
        ),
        "554a067eefeda148f76168c0d2da493fb1547591e805724850493c11c46a8f8b",
    ),
]


@pytest.mark.parametrize(
    "build,digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN]
)
def test_schedule_bytes_pinned(build, digest):
    sched = build()
    assert sched is not None
    blob = json.dumps(io.frame_to_dict(sched), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
