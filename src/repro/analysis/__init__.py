"""Experiment harness: registry, parallel runner, and table builders.

Each ``experiment_eXX`` function regenerates one artifact of the paper
(see DESIGN.md's per-experiment index) and returns plain rows
(``list[dict]``) so the same code backs the pytest benchmarks, the CLI
(``python -m repro``), and EXPERIMENTS.md.

Experiments live in five themed modules (``exp_foundations``,
``exp_constructions``, ``exp_theorems``, ``exp_extensions``,
``exp_schedulers``) and declare themselves to
:mod:`repro.analysis.registry`; this package re-exports every
experiment function, and the CLI and
:mod:`repro.analysis.runner` (parallel execution + result caching)
consume the registry rather than hand-kept tables.
"""

from repro.analysis.common import sample_sources
from repro.analysis.exp_constructions import (
    experiment_e06_g42,
    experiment_e07_g153,
    experiment_e08_fig4,
    experiment_e11_rec742,
    experiment_e14_topology_compare,
    experiment_e18_diameter,
    paper_g42,
)
from repro.analysis.exp_extensions import (
    experiment_e15_congestion,
    experiment_e17_gossip,
    experiment_e19_faults,
    experiment_e20_vertex_disjoint,
    experiment_e21_wormhole,
    experiment_e22_multimessage,
)
from repro.analysis.exp_foundations import (
    experiment_e01_theorem1,
    experiment_e02_lower_bounds,
    experiment_e04_labelings,
    experiment_e05_lambda_m,
)
from repro.analysis.exp_schedulers import experiment_e23_scheduler_registry
from repro.analysis.exp_theorems import (
    experiment_e09_broadcast2,
    experiment_e10_theorem5,
    experiment_e12_broadcastk,
    experiment_e13_theorem7,
    experiment_e16_baseline_k1,
)
from repro.analysis.registry import (
    ExperimentSpec,
    all_experiments,
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.analysis.tables import format_table

__all__ = [
    "format_table",
    "sample_sources",
    "ExperimentSpec",
    "all_experiments",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
    "paper_g42",
    "experiment_e01_theorem1",
    "experiment_e02_lower_bounds",
    "experiment_e04_labelings",
    "experiment_e05_lambda_m",
    "experiment_e06_g42",
    "experiment_e07_g153",
    "experiment_e08_fig4",
    "experiment_e09_broadcast2",
    "experiment_e10_theorem5",
    "experiment_e11_rec742",
    "experiment_e12_broadcastk",
    "experiment_e13_theorem7",
    "experiment_e14_topology_compare",
    "experiment_e15_congestion",
    "experiment_e16_baseline_k1",
    "experiment_e17_gossip",
    "experiment_e18_diameter",
    "experiment_e19_faults",
    "experiment_e20_vertex_disjoint",
    "experiment_e21_wormhole",
    "experiment_e22_multimessage",
    "experiment_e23_scheduler_registry",
]
