#!/usr/bin/env python3
"""Reproduce Table 1: every allocation scheme side by side.

Runs all seven protocols (the paper's ADAPTIVE and THRESHOLD plus the
baselines greedy[d], left[d], (1,1)-memory, CRS-style rebalancing, and
single-choice) on the same problem size, and prints the measured allocation
time, probes per ball, maximum load and smoothness next to the asymptotic
expressions the paper lists in Table 1.

The sweep runs through :func:`~repro.experiments.runner.run_trials`, which
runs each cell's trials in memory-bounded blocks; the script ends by timing
one ADAPTIVE cell against a ``run_trial`` call per trial index and printing
the measured batched/looped throughput ratio.

Run it with ``python examples/table1_comparison.py [--scale 0.25]``.
"""

from __future__ import annotations

import argparse
import time

from repro.api import SimulationSpec
from repro.experiments.runner import run_trial, run_trials
from repro.experiments.table1 import table1_measured, table1_rows
from repro.reporting import format_markdown_table


def _cell_rate(spec: SimulationSpec, *, batch: bool) -> float:
    """Whole-cell throughput in trials/second: batched ``run_trials``, or
    one ``run_trial`` call per trial index."""
    start = time.perf_counter()
    if batch:
        run_trials(spec)
    else:
        for i in range(spec.trials):
            run_trial(spec, i)
    return spec.trials / (time.perf_counter() - start)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale factor for the problem size (default 1.0 = n=2000, m=8n)",
    )
    parser.add_argument("--trials", type=int, default=20, help="trials per protocol")
    args = parser.parse_args()

    n_bins = max(100, int(2_000 * args.scale))
    n_balls = 8 * n_bins

    print(f"Table 1 reproduction: m={n_balls}, n={n_bins}, {args.trials} trials\n")
    measured = table1_measured(
        n_balls=n_balls, n_bins=n_bins, trials=args.trials, seed=2013
    )

    print("Measured values (averaged over trials):\n")
    print(
        format_markdown_table(
            measured,
            [
                "protocol",
                "allocation_time_mean",
                "probes_per_ball_mean",
                "max_load_mean",
                "gap_mean",
                "quadratic_potential_mean",
                "bound_max_load",
            ],
        )
    )

    print("\nSide by side with the paper's asymptotic Table 1 rows:\n")
    print(
        format_markdown_table(
            table1_rows(measured=measured),
            [
                "protocol",
                "paper_time",
                "paper_load",
                "conditions",
                "measured_probes_per_ball",
                "measured_max_load",
            ],
        )
    )

    by_name = {row["protocol"]: row for row in measured}
    guarantee = n_balls // n_bins + 1
    assert by_name["adaptive"]["max_load_max"] <= guarantee
    assert by_name["threshold"]["max_load_max"] <= guarantee
    print(
        f"\nADAPTIVE and THRESHOLD met the deterministic guarantee of {guarantee} "
        "in every trial, while using ~1x-1.5x m probes (vs 2m for the "
        "two-choice baselines)."
    )

    # Time one ADAPTIVE cell two ways: run_trials' trial blocks (what the
    # table above used) against one run_trial call per trial index.
    bench = SimulationSpec(
        "adaptive", n_balls, n_bins, seed=2013, trials=max(100, args.trials)
    )
    batched = _cell_rate(bench, batch=True)
    looped = _cell_rate(bench, batch=False)
    print(
        f"\nBatched run_trials sweep: {batched:,.0f} trials/s vs "
        f"{looped:,.0f} trials/s for the per-trial loop on the ADAPTIVE "
        f"cell ({bench.trials} trials, bit-identical results): "
        f"batched/looped ratio {batched / looped:.2f}."
    )


if __name__ == "__main__":
    main()
