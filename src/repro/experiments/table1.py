"""Table 1: allocation time and maximum load across allocation schemes.

The paper's Table 1 lists, for every protocol, the asymptotic allocation time
and maximum load together with the conditions on ``m`` and ``n``.  This
experiment produces the *measured* counterpart: for each protocol it reports
the average allocation time, probes per ball, maximum load and the max−min
gap over repeated trials, next to the published asymptotic expression and
its numeric leading term, so the two can be compared side by side.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.api.spec import SimulationSpec
from repro.errors import ConfigurationError
from repro.experiments.runner import summarize_specs
from repro.theory.bounds import TABLE1_ROWS, table1_bounds

__all__ = ["TABLE1_PROTOCOLS", "table1_rows", "table1_measured"]

#: Protocols included in the measured Table 1, with the parameters used.
TABLE1_PROTOCOLS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("single-choice", {}),
    ("greedy", {"d": 2}),
    ("left", {"d": 2}),
    ("memory", {"d": 1, "k": 1}),
    ("rebalancing", {"d": 2}),
    ("threshold", {}),
    ("adaptive", {}),
)


def table1_measured(
    n_balls: int = 16_000,
    n_bins: int = 2_000,
    *,
    trials: int = 10,
    seed: int = 2013,
    protocols: Sequence[tuple[str, dict[str, Any]]] = TABLE1_PROTOCOLS,
    workers: int = 1,
) -> list[dict[str, Any]]:
    """Measure every protocol of Table 1 on one problem size.

    Returns one row per protocol with measured means (allocation time, probes
    per ball, max load, gap) and the corresponding theoretical leading term.
    ``workers > 1`` shards the protocols over that many cluster workers
    (see :func:`~repro.experiments.runner.summarize_specs`); the table is
    identical for any ``workers`` count.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    d_for_bounds = 2
    bounds = table1_bounds(n_balls, n_bins, d=d_for_bounds)
    specs = [
        SimulationSpec(
            protocol=name,
            n_balls=n_balls,
            n_bins=n_bins,
            seed=seed,
            trials=trials,
            params=dict(params),
        )
        for name, params in protocols
    ]
    rows: list[dict[str, Any]] = []
    for (name, params), summaries in zip(
        protocols, summarize_specs(specs, workers=workers)
    ):
        rows.append(
            {
                "protocol": name,
                "params": params,
                "allocation_time_mean": summaries["allocation_time"].mean,
                "probes_per_ball_mean": summaries["probes_per_ball"].mean,
                "max_load_mean": summaries["max_load"].mean,
                "max_load_max": summaries["max_load"].maximum,
                "gap_mean": summaries["gap"].mean,
                "quadratic_potential_mean": summaries["quadratic_potential"].mean,
                "bound_max_load": bounds.get(name, float("nan")),
            }
        )
    return rows


def table1_rows(
    measured: Sequence[dict[str, Any]] | None = None, **kwargs: Any
) -> list[dict[str, Any]]:
    """Merge the paper's asymptotic Table 1 rows with measured values.

    Parameters
    ----------
    measured:
        Output of :func:`table1_measured`; computed on the fly with ``kwargs``
        when omitted.
    """
    if measured is None:
        measured = table1_measured(**kwargs)
    measured_by_name = {row["protocol"]: row for row in measured}
    merged: list[dict[str, Any]] = []
    for paper_row in TABLE1_ROWS:
        name = paper_row["protocol"]
        row = dict(paper_row)
        if name in measured_by_name:
            m_row = measured_by_name[name]
            row.update(
                {
                    "measured_time": m_row["allocation_time_mean"],
                    "measured_probes_per_ball": m_row["probes_per_ball_mean"],
                    "measured_max_load": m_row["max_load_mean"],
                    "bound_max_load": m_row["bound_max_load"],
                }
            )
        merged.append(row)
    # single-choice is not a row of the paper's table but is the natural
    # reference point; append it last when measured.
    if "single-choice" in measured_by_name:
        m_row = measured_by_name["single-choice"]
        merged.append(
            {
                "protocol": "single-choice",
                "paper_time": "m",
                "paper_load": "m/n + Θ(√(m log n / n))",
                "conditions": "(reference)",
                "measured_time": m_row["allocation_time_mean"],
                "measured_probes_per_ball": m_row["probes_per_ball_mean"],
                "measured_max_load": m_row["max_load_mean"],
                "bound_max_load": m_row["bound_max_load"],
            }
        )
    return merged
