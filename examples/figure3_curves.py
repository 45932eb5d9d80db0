#!/usr/bin/env python3
"""Reproduce Figure 3: runtime and potential curves of ADAPTIVE vs THRESHOLD.

Sweeps ``m`` over the paper's x-axis (``m · 10^-4`` from 20 to 100), averages
the allocation time and the final quadratic potential over repeated trials,
and renders both panels as ASCII plots plus CSV files.

At full paper scale (``--scale 1.0``: n = 10^4, 100 trials per point) the
sweep takes a few minutes; the default ``--scale 0.1`` finishes in seconds
and shows the same shapes.

Run it with ``python examples/figure3_curves.py [--scale 0.1] [--out-dir out]``.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

from repro.experiments.config import FIGURE3_DEFAULT
from repro.experiments.figure3 import figure3_report
from repro.reporting import write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1, help="problem-size scale")
    parser.add_argument(
        "--trials", type=int, default=None, help="trials per point (default: scaled)"
    )
    parser.add_argument(
        "--out-dir", type=Path, default=None, help="write CSV series to this directory"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="cluster worker processes (1: in-process)"
    )
    args = parser.parse_args()

    sweep = FIGURE3_DEFAULT.scaled(args.scale)
    trials = args.trials or max(3, int(FIGURE3_DEFAULT.trials * args.scale))
    sweep = dataclasses.replace(sweep, trials=trials)

    print(
        f"Figure 3 sweep: n={sweep.n_bins}, m in {list(sweep.ball_grid)}, "
        f"{sweep.trials} trials per point\n"
    )
    report = figure3_report(sweep, workers=args.workers)

    print(report["runtime_plot"])
    print()
    print(report["potential_plot"])

    if args.out_dir is not None:
        path = write_csv(args.out_dir / "figure3_series.csv", report["rows"])
        print(f"\nwrote per-point series to {path}")


if __name__ == "__main__":
    main()
