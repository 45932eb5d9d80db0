"""Cluster sweep throughput: specs/sec at 1, 2 and 4 coordinator workers.

The coordinator exists to trade processes for wall-clock: a sweep's shards
(one :class:`~repro.api.SimulationSpec` cell each) are independent, so N
workers should complete nearly N cells in the time one completes one.  This
benchmark measures whole-sweep throughput in **specs per second** through
:func:`repro.cluster.run_cluster_sweep` at ``workers`` ∈ {1, 2, 4}, plus
the in-process ``workers=0`` reference, on a uniform grid of THRESHOLD
cells.

The acceptance floor is **>= 1.7x specs/sec at 2 workers over 1 worker**
on multi-core runners.  On single-vCPU containers (``os.cpu_count() == 1``)
there is no parallel speedup to be had — worker processes time-share one
core and the floor is physically unreachable — so, following the
established precedent for the process-pool benchmarks, the gate is
**report-only** there: the numbers are still measured and recorded, and the
assertion arms only when ``os.cpu_count() >= 2``.

Beside the gate, report-only, the slow test prints two controls: a
pure-CPU two-process spin (the speedup two processes reach on this host
with no IPC at all, the ceiling for the gate) and the 1-worker time over
the in-process time of a larger sweep (``GATE_SHARDS`` x
``RATIO_TRIALS``), the coordinator's per-shard overhead.

Run under pytest for the gate, or directly
(``python benchmarks/bench_cluster_throughput.py --quick``) for the
one-shot numbers recorded as a ``BENCH_cluster_throughput.json`` regression
baseline.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time

import pytest

from repro.cluster import run_cluster_sweep
from repro.experiments.config import SweepConfig

from conftest import BENCH_SEED, write_bench_json

#: Gate scenario: enough same-cost shards that the fan-out's steady state
#: dominates spawn overhead.
GATE_PROTOCOL = "threshold"
GATE_BINS = 500
GATE_BALLS = 5_000
GATE_SHARDS = 8
GATE_TRIALS = 30
GATE_SPEEDUP = 1.7
#: Trials per shard of the sweep whose 1-worker/in-process ratio is logged.
RATIO_TRIALS = 300
#: Iterations of the pure-CPU control's spin (~0.2-0.3 s of Python).
SPIN_ITERATIONS = 4_000_000


def gate_sweep(shards: int, trials: int) -> SweepConfig:
    """A uniform sweep of ``shards`` equal-cost THRESHOLD cells."""
    return SweepConfig(
        protocols=(GATE_PROTOCOL,),
        n_bins=GATE_BINS,
        # Distinct ball counts (same magnitude) keep the cells honest shards
        # of one sweep rather than one cell repeated.
        ball_grid=tuple(GATE_BALLS + 10 * i for i in range(shards)),
        trials=trials,
        seed=BENCH_SEED,
    )


def specs_per_second(
    sweep: SweepConfig, workers: int, reps: int = 2
) -> float:
    """Best-of-``reps`` whole-sweep throughput in specs (shards) per second.

    Worker spawn/teardown is deliberately *inside* the timed region — it is
    part of what a user pays per sweep — which is why the gate compares 2
    workers against 1 worker (both pay it) rather than against the
    in-process path (which doesn't).
    """
    n_specs = len(sweep.specs())
    best = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        rows = run_cluster_sweep(sweep, workers=workers)
        seconds = time.perf_counter() - start
        assert len(rows) == n_specs * sweep.trials
        best = max(best, n_specs / seconds)
    return best


def _spin(iterations: int) -> None:
    total = 0
    for i in range(iterations):
        total += i


def two_process_cpu_speedup(reps: int = 5) -> float:
    """Median speedup of two concurrent spins over one, over ``reps`` pairs.

    Two processes each spin ``SPIN_ITERATIONS``; one process spins once;
    the two layouts alternate so host drift hits both.  Nothing is shared
    or sent, so this is what 2 workers could reach here if the coordinator
    cost nothing.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def seconds(processes: int) -> float:
        spins = [
            ctx.Process(target=_spin, args=(SPIN_ITERATIONS,))
            for _ in range(processes)
        ]
        start = time.perf_counter()
        for spin in spins:
            spin.start()
        for spin in spins:
            spin.join()
        return time.perf_counter() - start

    return statistics.median(2 * seconds(1) / seconds(2) for _ in range(reps))


def test_cluster_rows_match_reference_smoke():
    """Cheap wiring check: the fanned-out sweep emits the reference rows."""
    sweep = gate_sweep(shards=2, trials=3)
    reference = run_cluster_sweep(sweep, workers=0)
    fanned = run_cluster_sweep(sweep, workers=2)
    key = lambda r: (r["shard"], r["trial"])  # noqa: E731
    assert sorted(fanned, key=key) == sorted(reference, key=key)


@pytest.mark.slow
def test_gate_two_worker_speedup():
    """The acceptance floor: >= 1.7x specs/sec at 2 workers (multi-core)."""
    sweep = gate_sweep(GATE_SHARDS, GATE_TRIALS)
    one = specs_per_second(sweep, workers=1)
    two = specs_per_second(sweep, workers=2)
    speedup = two / one
    cores = os.cpu_count() or 1
    control = two_process_cpu_speedup()
    ratio_sweep = gate_sweep(GATE_SHARDS, RATIO_TRIALS)
    overhead = specs_per_second(ratio_sweep, workers=0) / specs_per_second(
        ratio_sweep, workers=1
    )
    print(
        f"\ngate sweep {GATE_SHARDS} shards x {GATE_TRIALS} trials: "
        f"1 worker {one:.2f} specs/s, 2 workers {two:.2f} specs/s, "
        f"speedup {speedup:.2f}x ({cores} cores); "
        f"pure-CPU two-process control {control:.2f}x; "
        f"{GATE_SHARDS} x {RATIO_TRIALS} on 1 worker takes {overhead:.2f}x "
        "the in-process time"
    )
    if cores < 2:
        pytest.skip(
            f"single-vCPU runner ({cores} core): 2-worker speedup "
            f"{speedup:.2f}x is report-only — the {GATE_SPEEDUP}x floor "
            "needs real cores"
        )
    assert speedup >= GATE_SPEEDUP, (
        f"2 workers deliver only {speedup:.2f}x specs/sec over 1 worker "
        f"({two:.2f} vs {one:.2f}); the floor on multi-core runners is "
        f"{GATE_SPEEDUP}x"
    )


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run at CI smoke scale")
    args = parser.parse_args()

    # Quick mode still uses enough trials per shard that the in-process
    # row is not timing a sub-millisecond region (the regression gate
    # compares within 30%).
    shards = 4 if args.quick else GATE_SHARDS
    trials = 50 if args.quick else GATE_TRIALS
    sweep = gate_sweep(shards, trials)
    cores = os.cpu_count() or 1

    entries = []
    print(f"cores: {cores}")
    print(f"{'mode':<14} {'specs/s':>10} {'vs 1 worker':>12}")
    baseline = None
    for workers in (0, 1, 2, 4):
        ops = specs_per_second(sweep, workers=workers)
        if workers == 1:
            baseline = ops
        ratio = None if baseline is None else ops / baseline
        label = "in-process" if workers == 0 else f"workers-{workers}"
        entries.append(
            {
                "label": f"cluster_{label}",
                "workers": workers,
                "shards": shards,
                "trials": trials,
                "cores": cores,
                "ops": shards,
                "ops_per_second": ops,
                "speedup_vs_one_worker": ratio,
            }
        )
        shown = f"{ratio:>11.2f}x" if ratio is not None else f"{'n/a':>12}"
        print(f"{label:<14} {ops:>10.2f} {shown}")
    path = write_bench_json("cluster_throughput", entries)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
