"""Registry mapping experiment identifiers to the code that regenerates them.

Every reproducible artefact is indexed here so the CLI (and curious users)
can enumerate them and run one by name, e.g. ``repro-experiment table1`` or
``repro-experiment figure3a --scale 0.05``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.api.spec import SimulationSpec
from repro.errors import ExperimentError
from repro.experiments import figure3, smoothness, table1
from repro.experiments.config import FIGURE3_DEFAULT

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible artefact of the paper.

    Attributes
    ----------
    experiment_id:
        Short identifier (``table1``, ``figure3a`` …).
    paper_reference:
        Which table / figure / theorem of the paper it reproduces.
    description:
        One-line description of the artefact.
    runner:
        Callable executing a (possibly scaled-down) version of the experiment;
        accepts ``scale`` in ``(0, 1]`` plus experiment-specific overrides and
        returns JSON-serialisable data (rows / dicts).
    bench_target:
        The benchmark module regenerating the artefact at benchmark scale.
    """

    experiment_id: str
    paper_reference: str
    description: str
    runner: Callable[..., Any]
    bench_target: str


def _run_table1(scale: float = 1.0, **kwargs: Any) -> Any:
    n_balls = max(200, int(16_000 * scale))
    n_bins = max(50, int(2_000 * scale))
    trials = kwargs.pop("trials", max(2, int(10 * scale)))
    return table1.table1_rows(
        measured=table1.table1_measured(
            n_balls=n_balls, n_bins=n_bins, trials=trials, **kwargs
        )
    )


def _run_figure3(panel: str, scale: float = 1.0, **kwargs: Any) -> Any:
    sweep = FIGURE3_DEFAULT.scaled(scale)
    if scale < 1.0:
        sweep = replace(sweep, trials=max(3, int(FIGURE3_DEFAULT.trials * scale)))
    rows = figure3.figure3_series(sweep, **kwargs)
    if panel == "a":
        grid, series = figure3.runtime_curve(rows)
    else:
        grid, series = figure3.potential_curve(rows)
    return {"grid": grid, "series": series, "rows": rows}


def _run_figure3a(scale: float = 1.0, **kwargs: Any) -> Any:
    return _run_figure3("a", scale, **kwargs)


def _run_figure3b(scale: float = 1.0, **kwargs: Any) -> Any:
    return _run_figure3("b", scale, **kwargs)


def _run_theorem31(scale: float = 1.0, **kwargs: Any) -> Any:
    n_bins = max(100, int(2_000 * scale))
    return smoothness.adaptive_time_scaling(n_bins=n_bins, **kwargs)


def _run_theorem41(scale: float = 1.0, **kwargs: Any) -> Any:
    n_bins = max(100, int(2_000 * scale))
    return smoothness.threshold_excess_probes_curve(n_bins=n_bins, **kwargs)


def _run_smoothness(scale: float = 1.0, **kwargs: Any) -> Any:
    sizes = tuple(max(32, int(n * scale)) for n in (128, 256, 512))
    return smoothness.smoothness_contrast(n_bins_values=sizes, **kwargs)


#: The weighted sweep's protocol/parameter grid (the weighted analogue of
#: the Table 1 comparison).
_WEIGHTED_PROTOCOLS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("weighted-adaptive", {}),
    ("weighted-threshold", {}),
    ("weighted-greedy", {"d": 2}),
    ("weighted-left", {"d": 2}),
    ("weighted-memory", {"d": 1, "k": 1}),
)
_WEIGHTED_DISTRIBUTIONS = ("pareto", "exponential", "bimodal")


def _run_weighted(
    scale: float = 1.0, trials: int = 3, seed: int = 2013, **kwargs: Any
) -> Any:
    """Weighted protocols under heavy-tailed weight families.

    For every (protocol, weight distribution) pair, run one ``trials``-trial
    :class:`~repro.api.SimulationSpec` through the experiment runner (seeds
    from the single-homed per-trial table) and report ball-count and
    weighted-load balance alongside the probe cost — the weighted analogue
    of the Table 1 sweep.
    """
    import numpy as np

    from repro.experiments.runner import run_trials

    n_balls = max(500, int(200_000 * scale))
    n_bins = max(50, int(5_000 * scale))
    rows = []
    for dist in _WEIGHTED_DISTRIBUTIONS:
        for name, params in _WEIGHTED_PROTOCOLS:
            records = run_trials(
                SimulationSpec(
                    protocol=name,
                    n_balls=n_balls,
                    n_bins=n_bins,
                    seed=seed,
                    trials=trials,
                    params={"weight_dist": dist, **params, **kwargs},
                ),
                as_records=True,
            )
            rows.append(
                {
                    "protocol": name,
                    "weight_dist": dist,
                    "n_balls": n_balls,
                    "n_bins": n_bins,
                    "trials": len(records),
                    "mean_probes_per_ball": float(
                        np.mean([r["probes_per_ball"] for r in records])
                    ),
                    "mean_count_gap": float(np.mean([r["gap"] for r in records])),
                    "mean_weighted_max_load": float(
                        np.mean([r["weighted_max_load"] for r in records])
                    ),
                    "mean_weighted_gap": float(
                        np.mean([r["weighted_gap"] for r in records])
                    ),
                }
            )
    return rows


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "table1",
            "Table 1",
            "Allocation time and maximum load of all protocols",
            _run_table1,
            "benchmarks/bench_table1.py",
        ),
        ExperimentSpec(
            "figure3a",
            "Figure 3(a)",
            "Average runtime of ADAPTIVE vs THRESHOLD as a function of m",
            _run_figure3a,
            "benchmarks/bench_figure3a_runtime.py",
        ),
        ExperimentSpec(
            "figure3b",
            "Figure 3(b)",
            "Average final quadratic potential of ADAPTIVE vs THRESHOLD",
            _run_figure3b,
            "benchmarks/bench_figure3b_potential.py",
        ),
        ExperimentSpec(
            "theorem31",
            "Theorem 3.1",
            "ADAPTIVE allocation time is linear in m",
            _run_theorem31,
            "benchmarks/bench_theorem31_linear_time.py",
        ),
        ExperimentSpec(
            "theorem41",
            "Theorem 4.1",
            "THRESHOLD excess probes scale like m^(3/4) n^(1/4)",
            _run_theorem41,
            "benchmarks/bench_theorem41_excess.py",
        ),
        ExperimentSpec(
            "smoothness",
            "Corollary 3.5 / Lemma 4.2",
            "Smoothness contrast between ADAPTIVE and THRESHOLD at m = n^2",
            _run_smoothness,
            "benchmarks/bench_smoothness_contrast.py",
        ),
        ExperimentSpec(
            "weighted",
            "Extension (weighted balls)",
            "Weighted ADAPTIVE/THRESHOLD/greedy under heavy-tailed weights",
            _run_weighted,
            "benchmarks/bench_weighted_throughput.py",
        ),
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Return the :class:`ExperimentSpec` registered under ``experiment_id``."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str, scale: float = 1.0, **kwargs: Any) -> Any:
    """Run the experiment registered under ``experiment_id`` at ``scale``."""
    if not 0.0 < scale <= 1.0:
        raise ExperimentError(f"scale must be in (0, 1], got {scale}")
    return get_experiment(experiment_id).runner(scale=scale, **kwargs)
