"""The paper's claims hold at tier-1 sizes, and every claim check can fail.

Each registered experiment carries its claim check
(``@experiment(..., claims=fn)``).  Here every experiment runs at small
sizes and each claim must hold; ``repro run`` checks the same claims at
the registry defaults and ``benchmarks/bench_experiments.py`` at the
bench sizes.
"""

import functools

import pytest

from repro.analysis import registry

# experiment id → the parameter overrides of each tier-1 run; an
# experiment not listed runs once, at its defaults
SIZES = {
    "e01": (
        {"max_h": 4, "schedule_h": 4, "sources_cap": 6},
        {"max_h": 5, "schedule_h": 0},
    ),
    "e02": ({"n_values": (16, 36, 64)}, {"n_values": (25, 49)}),
    "e05": ({"max_m": 8, "exact_max_m": 4}, {"max_m": 4, "exact_max_m": 4}),
    "e09": ({"n_values": (3, 4, 5, 6), "sources_cap": 8},),
    "e10": ({"n_values": tuple(range(2, 40, 3))},),
    "e12": ({"cases": ((3, 7, (2, 4)), (4, 9, (2, 4, 6))), "sources_cap": 6},),
    "e13": ({"ks": (3, 4), "n_values": (8, 16, 24)},),
    "e14": ({"n": 9},),
    "e15": ({"cases": ((8, 3),)},),
    "e16": ({"n_values": (4, 6)},),
    "e17": ({"cases": ((4, 2), (6, 3))},),
    "e18": ({"cases": ((2, 8, (3,)), (3, 8, (2, 5)))},),
    "e19": ({"failure_counts": (1, 4, 16), "trials": 15},),
    "e20": ({"cases": ((2, 6, (2,)),), "sources_cap": 4},),
    "e21": ({"n": 8, "flit_sizes": (1, 16)},),
}
RUNS = [
    (name, index)
    for name in registry.experiment_ids()
    for index in range(len(SIZES.get(name, ({},))))
]


@functools.cache
def _run(name, index):
    """One tier-1 run's rows and effective params, computed once."""
    spec = registry.get_experiment(name)
    params = registry.effective_params(spec, SIZES.get(name, ({},))[index])
    return spec.fn(**params), params


@pytest.mark.parametrize("name, index", RUNS)
def test_claims_hold(name, index):
    rows, params = _run(name, index)
    assert registry.get_experiment(name).claims(rows, params) == []


def _corruptions(rows):
    """Every copy of ``rows`` with one value corrupted: a boolean
    flipped, or a number moved 1000 down or up."""
    for i, row in enumerate(rows):
        for key, value in row.items():
            if isinstance(value, bool):
                bad = [not value]
            elif isinstance(value, (int, float)):
                bad = [value - 1000, value + 1000]
            else:
                continue
            for new in bad:
                yield [*rows[:i], {**row, key: new}, *rows[i + 1 :]]


@pytest.mark.parametrize("name", registry.experiment_ids())
def test_claim_check_reports_a_corrupted_value(name):
    rows, params = _run(name, 0)
    claims = registry.get_experiment(name).claims
    assert any(claims(bad, params) for bad in _corruptions(rows))
