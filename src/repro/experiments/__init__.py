"""Experiment harness: configs, runner, and the paper's tables and figures.

The runner is spec-driven: a trial batch is one
:class:`repro.api.SimulationSpec` and a :class:`SweepConfig` a grid of
them, and the registry's experiments regenerate the paper's artefacts
through the same specs and per-trial seeds as the :func:`repro.simulate`
facade the CLI and scheduler use.
"""

from repro.experiments.config import (
    FIGURE3_DEFAULT,
    TABLE1_DEFAULT,
    SweepConfig,
)
from repro.experiments.figure3 import (
    figure3_report,
    figure3_series,
    potential_curve,
    runtime_curve,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    get_experiment,
    run_experiment,
)
from repro.experiments.runner import (
    run_sweep,
    run_trial,
    run_trials,
    summarize_trials,
)
from repro.experiments.smoothness import (
    adaptive_time_scaling,
    smoothness_contrast,
    stage_potential_trajectory,
    threshold_excess_probes_curve,
)
from repro.experiments.stage_analysis import (
    CatchupStatistics,
    lemma32_catchup,
    lemma34_potential_drift,
)
from repro.experiments.table1 import TABLE1_PROTOCOLS, table1_measured, table1_rows

__all__ = [
    "FIGURE3_DEFAULT",
    "TABLE1_DEFAULT",
    "SweepConfig",
    "figure3_report",
    "figure3_series",
    "potential_curve",
    "runtime_curve",
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "run_experiment",
    "run_sweep",
    "run_trial",
    "run_trials",
    "summarize_trials",
    "adaptive_time_scaling",
    "smoothness_contrast",
    "stage_potential_trajectory",
    "threshold_excess_probes_curve",
    "TABLE1_PROTOCOLS",
    "table1_measured",
    "table1_rows",
    "CatchupStatistics",
    "lemma32_catchup",
    "lemma34_potential_drift",
]
