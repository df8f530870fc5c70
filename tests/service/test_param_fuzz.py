"""Fuzz: no scheduler ``params`` value answers 500.

Each registry scheduler gets each of its parameter names, plus one it
does not know, with values of every JSON type, on ``hypercube:2``
through ``ReproService(workers=1).dispatch``.  Every answer is a 200, a
400 (a value that cannot run) or a 422 (a budget that ran out).
Integers stay small, so no draw runs long.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.registry import scheduler_names
from repro.service.app import ReproService

# The parameters each registry scheduler reads.
PARAMS = {
    "greedy": ("restarts", "sample_cap"),
    "multimsg_search": ("n_messages", "node_budget"),
    "search": ("node_budget",),
    "store_forward": (),
}
CASES = [(name, key) for name, keys in PARAMS.items() for key in (*keys, "bogus")]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),  # NaN and ±infinity among them
    st.just(float("inf")),  # sent as 1e400, which parses to infinity
    st.text(max_size=4),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=3),
)


@pytest.fixture(scope="module")
def service():
    svc = ReproService(workers=1)
    yield svc
    svc.close()


def test_every_registry_scheduler_is_fuzzed():
    assert sorted(PARAMS) == scheduler_names()


@pytest.mark.parametrize("scheduler, key", CASES)
@settings(max_examples=25, deadline=None)
@given(value=VALUES)
def test_params_never_answer_500(service, scheduler, key, value):
    params = json.dumps({key: value}).replace("Infinity", "1e400")
    body = (
        f'{{"graph": "hypercube:2", "scheduler": "{scheduler}", '
        f'"params": {params}}}'
    ).encode()
    status, payload = asyncio.run(service.dispatch("POST", "/v1/schedule", body))
    assert status in (200, 400, 422), (body, payload)
