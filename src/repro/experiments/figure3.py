"""Figure 3: runtime and quadratic-potential curves of ADAPTIVE vs THRESHOLD.

The paper's only figure plots, against ``m`` (with ``m · 10^-4`` on the
x-axis running from 20 to 100):

* **(a)** the average allocation time ("runtime") of ADAPTIVE and THRESHOLD,
  each point averaged over 100 simulations — THRESHOLD converges to ``m``
  while ADAPTIVE converges to a small constant times ``m``;
* **(b)** the average final quadratic potential ``Ψ`` (scaled by 1/5000 on the
  paper's axis) — ADAPTIVE's potential quickly becomes independent of ``m``
  while THRESHOLD's keeps growing.

The functions below produce those two series for an arbitrary
:class:`~repro.experiments.config.SweepConfig`, and
:func:`figure3_report` renders them into CSV-ready rows plus ASCII plots.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ExperimentError
from repro.experiments.config import FIGURE3_DEFAULT, SweepConfig
from repro.experiments.runner import run_sweep
from repro.reporting.ascii_plot import ascii_plot

__all__ = [
    "runtime_curve",
    "potential_curve",
    "figure3_series",
    "figure3_report",
]

#: Scale factor applied to the quadratic potential on the paper's y-axis.
PAPER_POTENTIAL_SCALE: float = 1.0 / 5000.0


def figure3_series(
    sweep: SweepConfig = FIGURE3_DEFAULT,
    *,
    workers: int | None = None,
) -> list[dict[str, Any]]:
    """Run the Figure 3 sweep and return one row per (protocol, m) point.

    Rows contain the mean allocation time and mean quadratic potential (with
    confidence bounds), which back both panels of the figure.  ``workers``
    defaults to the sweep config's own field; ``workers > 1`` fans the
    sweep out over the cluster, with identical rows.
    """
    return run_sweep(
        sweep,
        metrics=("allocation_time", "probes_per_ball", "quadratic_potential", "gap"),
        workers=workers,
    )


def _series_by_protocol(
    rows: list[dict[str, Any]], value_key: str
) -> tuple[list[int], dict[str, list[float]]]:
    protocols = sorted({row["protocol"] for row in rows})
    grid = sorted({int(row["n_balls"]) for row in rows})
    series: dict[str, list[float]] = {}
    for protocol in protocols:
        by_m = {
            int(row["n_balls"]): float(row[value_key])
            for row in rows
            if row["protocol"] == protocol
        }
        missing = [m for m in grid if m not in by_m]
        if missing:
            raise ExperimentError(
                f"protocol {protocol!r} is missing sweep points {missing}"
            )
        series[protocol] = [by_m[m] for m in grid]
    return grid, series


def runtime_curve(
    rows: list[dict[str, Any]] | None = None,
    sweep: SweepConfig = FIGURE3_DEFAULT,
    *,
    workers: int | None = None,
) -> tuple[list[int], dict[str, list[float]]]:
    """Figure 3(a): mean allocation time per protocol as a function of ``m``."""
    if rows is None:
        rows = figure3_series(sweep, workers=workers)
    return _series_by_protocol(rows, "allocation_time_mean")


def potential_curve(
    rows: list[dict[str, Any]] | None = None,
    sweep: SweepConfig = FIGURE3_DEFAULT,
    *,
    workers: int | None = None,
) -> tuple[list[int], dict[str, list[float]]]:
    """Figure 3(b): mean final quadratic potential per protocol vs ``m``."""
    if rows is None:
        rows = figure3_series(sweep, workers=workers)
    return _series_by_protocol(rows, "quadratic_potential_mean")


def figure3_report(
    sweep: SweepConfig = FIGURE3_DEFAULT, *, workers: int | None = None
) -> dict[str, Any]:
    """Run the sweep once and return rows plus ASCII renderings of both panels."""
    rows = figure3_series(sweep, workers=workers)
    grid, runtimes = runtime_curve(rows)
    _, potentials = potential_curve(rows)
    scaled_potentials = {
        name: [v * PAPER_POTENTIAL_SCALE for v in values]
        for name, values in potentials.items()
    }
    x_axis = [m / 1e4 for m in grid]
    return {
        "rows": rows,
        "grid": grid,
        "runtime_plot": ascii_plot(
            x_axis,
            {k: [v / 1e4 for v in vals] for k, vals in runtimes.items()},
            title="Figure 3(a): average runtime / 10^4 vs m / 10^4",
            x_label="m * 1e-4",
            y_label="runtime * 1e-4",
        ),
        "potential_plot": ascii_plot(
            x_axis,
            scaled_potentials,
            title="Figure 3(b): average quadratic potential / 5000 vs m / 10^4",
            x_label="m * 1e-4",
            y_label="potential / 5000",
        ),
    }
