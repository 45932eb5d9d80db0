"""Trial-axis sweep throughput: ``run_trials`` vs the per-trial loop.

The paper's tables and figures average hundreds of independent trials per
cell, so the quantity that decides whether a sweep is interactive is
**trials per second**, not balls per second.  This benchmark measures
whole-cell throughput on representative Table-1 cells two ways —
``run_trials`` (the ``batched`` rows) and one ``run_trial`` call per trial
index (the ``looped`` rows) — and records both as a
``BENCH_sweep_throughput.json`` regression baseline.

Inside ``run_trials`` ADAPTIVE fills each stage window for a block of
trials with the single-run engine, one trial's row at a time, while
THRESHOLD runs the per-trial loop: a THRESHOLD trial is one window, which
the single-run engine fills as fast as a trial-axis one.  The ``batched``
rows therefore time ``run_trials``' own trial-block loops, and no speedup
gate is asserted.

Run it directly: ``python benchmarks/bench_sweep_throughput.py --quick``.
"""

from __future__ import annotations

import time

from repro.experiments.config import TrialConfig
from repro.experiments.runner import run_trial, run_trials

from conftest import BENCH_SEED, TABLE1_BALLS, TABLE1_BINS, write_bench_json

#: The headline cell: 1000 trials of THRESHOLD at n=10^4 balls into 10^3
#: bins (a Table-1-sized column).
CELL_PROTOCOL = "threshold"
CELL_BALLS = 10_000
CELL_BINS = 1_000
CELL_TRIALS = 1_000


def run_cell(config: TrialConfig, *, batch: bool) -> None:
    """One whole cell: batched ``run_trials``, or ``run_trial`` per index."""
    if batch:
        run_trials(config)
    else:
        for i in range(config.trials):
            run_trial(config, i)


def trials_per_second(
    protocol: str,
    n_balls: int,
    n_bins: int,
    trials: int,
    *,
    batch: bool,
    reps: int = 3,
) -> float:
    """Best-of-``reps`` whole-cell throughput in trials/s.

    A half-size warm-up run absorbs one-time costs (imports, allocator
    growth, branch warm-up) before timing; best-of-N is the standard
    noise-robust throughput estimator on shared machines (every slowdown
    source is additive).
    """
    config = TrialConfig(
        protocol=protocol,
        n_balls=n_balls,
        n_bins=n_bins,
        trials=max(1, trials // 2),
        seed=BENCH_SEED,
    )
    run_cell(config, batch=batch)
    config = TrialConfig(
        protocol=protocol, n_balls=n_balls, n_bins=n_bins, trials=trials, seed=BENCH_SEED
    )
    best = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        run_cell(config, batch=batch)
        seconds = time.perf_counter() - start
        best = max(best, trials / seconds)
    return best


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run at CI smoke scale")
    args = parser.parse_args()

    # (protocol, n_balls, n_bins, full-scale trials, quick trials)
    scenarios = [
        (CELL_PROTOCOL, CELL_BALLS, CELL_BINS, CELL_TRIALS, 200),
        ("adaptive", CELL_BALLS, CELL_BINS, 400, 100),
        (CELL_PROTOCOL, TABLE1_BALLS, TABLE1_BINS, 400, 100),
    ]
    entries = []
    print(f"{'cell':<32} {'batched tr/s':>13} {'looped tr/s':>12} {'speedup':>8}")
    for protocol, n_balls, n_bins, full, quick in scenarios:
        trials = quick if args.quick else full
        batched = trials_per_second(protocol, n_balls, n_bins, trials, batch=True)
        looped = trials_per_second(protocol, n_balls, n_bins, trials, batch=False)
        cell = f"{protocol}_{n_balls}x{n_bins}"
        speedup = batched / looped
        for mode, ops in (("batched", batched), ("looped", looped)):
            entries.append(
                {
                    "label": f"{cell}_{mode}",
                    "protocol": protocol,
                    "n_balls": n_balls,
                    "n_bins": n_bins,
                    "trials": trials,
                    "ops": trials,
                    "ops_per_second": ops,
                    "speedup_vs_looped": speedup,
                }
            )
        print(f"{cell:<32} {batched:>13,.0f} {looped:>12,.0f} {speedup:>7.2f}x")
    path = write_bench_json("sweep_throughput", entries)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
