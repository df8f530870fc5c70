"""Every registered experiment at bench sizes: table, timing and claims.

One bench parametrized over the registry (``python -m repro list``):
each experiment prints its table once, is timed with pytest-benchmark,
and its rows must pass the experiment's claim check.  The cheap
experiments are timed over calibrated rounds, the rest in one round.
"""

import functools

import pytest

from repro.analysis import registry

# experiment id → bench-size overrides (registry defaults otherwise)
SIZES = {
    "e01": {"max_h": 6, "schedule_h": 4, "sources_cap": 8},
    "e09": {"n_values": (3, 4, 5, 6, 7, 8, 10), "sources_cap": 12},
    "e12": {"sources_cap": 10},
    "e19": {"trials": 25},
}
CALIBRATED = {"e02", "e06", "e08", "e10", "e11", "e16"}


@pytest.mark.parametrize("name", registry.experiment_ids())
def test_experiment(benchmark, print_once, name):
    spec = registry.get_experiment(name)
    params = registry.effective_params(spec, SIZES.get(name))
    run = functools.partial(spec.fn, **params)
    if name in CALIBRATED:
        rows = benchmark(run)
    else:
        rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_once(name, rows, f"[{name.upper()}] {spec.title}")
    assert spec.claims(rows, params) == []
