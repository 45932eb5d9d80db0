"""Throughput benchmark of the chunked vectorised baseline engine.

Guards the acceptance claim of the baseline refactor: on 1M balls / 10k bins
the chunked engine must be at least 10x faster than the seed per-ball loops
(kept verbatim as :mod:`repro.baselines.reference`) for greedy[2] and
left[2], while producing bit-identical loads — the equivalence half is
certified by ``tests/test_baseline_equivalence.py``, this file measures the
speed half and records per-baseline throughput in balls/second.  The
(d,k)-memory and rebalancing baselines are reported as well (their hand-off
and sweep phases are accelerated but not held to the 10x bar).

Run under pytest (``pytest benchmarks/bench_baseline_throughput.py``) or
directly::

    python benchmarks/bench_baseline_throughput.py          # full 1M / 10k
    python benchmarks/bench_baseline_throughput.py --quick  # CI smoke scale
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import (
    GreedyProtocol,
    LeftProtocol,
    MemoryProtocol,
    RebalancingProtocol,
    reference_greedy,
    reference_left,
    reference_memory,
    reference_rebalancing,
)
from repro.baselines.memory_engine import chunked_memory_hand_off
from repro.core.backend import use_backend
from repro.runtime.probes import RandomProbeStream

from conftest import BENCH_SEED, write_bench_json

#: Acceptance scale: 1M balls into 10k bins.
FULL_BALLS = 1_000_000
FULL_BINS = 10_000
#: CI smoke scale (the speedup is already unambiguous here).
QUICK_BALLS = 100_000
QUICK_BINS = 1_000
#: Required advantage of the chunked engine over the per-ball loops.
MIN_SPEEDUP = 10.0
#: Smoke-scale bar: a 10x smaller problem amortises 10x less NumPy overhead
#: per chunk (left[2]'s reference is also unusually cheap per ball), so CI
#: only checks that the advantage is unambiguous, not the full-scale factor.
SMOKE_SPEEDUP = 3.0
#: Required advantage of (1,1)-memory, which runs its own two-candidate
#: loop, over the general (d,k) hand-off loop at d = k = 1 (the same bulk
#: fresh draws feeding the plain-int rule, which builds, deduplicates and
#: sorts each ball's candidate list).  The gate predates the two-candidate
#: loop and is kept; the measured number is printed and recorded in the
#: JSON for the regression tracker.
MIN_MEMORY_SPEEDUP = 3.5
#: Smoke-scale memory bar (100k balls / 1k bins).
SMOKE_MEMORY_SPEEDUP = 1.3

_PROTOCOLS = {
    "greedy[2]": (
        lambda m, n: GreedyProtocol(d=2).allocate(m, n, seed=BENCH_SEED),
        lambda m, n: reference_greedy(m, n, seed=BENCH_SEED, d=2),
    ),
    "left[2]": (
        lambda m, n: LeftProtocol(d=2).allocate(m, n, seed=BENCH_SEED),
        lambda m, n: reference_left(m, n, seed=BENCH_SEED, d=2),
    ),
    "memory(1,1)": (
        lambda m, n: MemoryProtocol(d=1, k=1).allocate(m, n, seed=BENCH_SEED),
        lambda m, n: reference_memory(m, n, seed=BENCH_SEED, d=1, k=1),
    ),
    "rebalancing[2]": (
        lambda m, n: RebalancingProtocol(d=2).allocate(m, n, seed=BENCH_SEED),
        lambda m, n: reference_rebalancing(m, n, seed=BENCH_SEED, d=2),
    ),
    # The (1,1) loop against the general hand-off loop: the baseline here
    # is NOT the per-ball NumPy reference (as above) but
    # chunked_memory_hand_off, the plain-int loop every other (d,k)
    # configuration runs.
    "memory-engine(1,1)": (
        lambda m, n: MemoryProtocol(d=1, k=1).allocate(m, n, seed=BENCH_SEED),
        lambda m, n: _hand_off_loop(m, n),
    ),
}


def _hand_off_loop(m: int, n: int) -> None:
    """The general (d,k)-memory loop at d = k = 1: bulk fresh draws feeding
    the sequential plain-int rule."""
    counts = [0] * n
    chunked_memory_hand_off(
        RandomProbeStream(n, BENCH_SEED), counts, [], m, 1, 1
    )
    np.asarray(counts, dtype=np.int64)


def measure_backend_scenarios(n_balls: int, n_bins: int) -> list[dict]:
    """Report-only: the deliberately-scalar memory(2,2) regime, scalar backend.

    This is the regime the ROADMAP kept scalar because every vectorised
    treatment measured slower (on numpy it runs the same scalar loop).
    No regression floor — the number lands in the JSON and the printed
    table.
    """
    name = "scalar"
    label = f"memory(2,2)[{name}]"
    with use_backend(name):
        # Warm-up outside the timed region.
        MemoryProtocol(d=2, k=2).allocate(min(n_balls, 2000), n_bins, seed=BENCH_SEED)
        start = time.perf_counter()
        MemoryProtocol(d=2, k=2).allocate(n_balls, n_bins, seed=BENCH_SEED)
        seconds = time.perf_counter() - start
    print(f"{label:<18} {seconds:>9.3f}s {n_balls / seconds:>12,.0f} balls/s")
    return [
        {
            "label": label,
            "ops_per_second": n_balls / seconds,
            "backend": name,
            "n_balls": n_balls,
            "n_bins": n_bins,
            "seconds": seconds,
            "balls_per_second": n_balls / seconds,
        }
    ]


def measure_speedup(name: str, n_balls: int, n_bins: int) -> dict[str, float]:
    """Time the chunked engine vs the per-ball reference for one baseline."""
    vectorised, reference = _PROTOCOLS[name]
    start = time.perf_counter()
    vectorised(n_balls, n_bins)
    vectorised_seconds = time.perf_counter() - start
    start = time.perf_counter()
    reference(n_balls, n_bins)
    reference_seconds = time.perf_counter() - start
    return {
        "baseline": name,
        "n_balls": n_balls,
        "n_bins": n_bins,
        "vectorised_seconds": vectorised_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / vectorised_seconds,
        "balls_per_second": n_balls / vectorised_seconds,
    }


def test_greedy_speedup_full_scale():
    """Acceptance criterion: greedy[2] >= 10x on 1M balls / 10k bins."""
    stats = measure_speedup("greedy[2]", FULL_BALLS, FULL_BINS)
    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"chunked greedy[2] only {stats['speedup']:.1f}x faster than the "
        f"per-ball loop (required {MIN_SPEEDUP:.0f}x)"
    )


def test_left_speedup_full_scale():
    """Acceptance criterion: left[2] >= 10x on 1M balls / 10k bins."""
    stats = measure_speedup("left[2]", FULL_BALLS, FULL_BINS)
    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"chunked left[2] only {stats['speedup']:.1f}x faster than the "
        f"per-ball loop (required {MIN_SPEEDUP:.0f}x)"
    )


def test_speedup_smoke_scale():
    """Both acceptance baselines stay clearly ahead at the CI smoke scale."""
    for name in ("greedy[2]", "left[2]"):
        stats = measure_speedup(name, QUICK_BALLS, QUICK_BINS)
        assert stats["speedup"] >= SMOKE_SPEEDUP, (
            f"{name}: {stats['speedup']:.1f}x < {SMOKE_SPEEDUP:.0f}x"
        )


def test_memory_engine_speedup_full_scale():
    """The (1,1) loop beats the general hand-off loop at 1M/10k."""
    stats = measure_speedup("memory-engine(1,1)", FULL_BALLS, FULL_BINS)
    assert stats["speedup"] >= MIN_MEMORY_SPEEDUP, (
        f"(1,1) loop only {stats['speedup']:.1f}x faster than the "
        f"general hand-off loop (required {MIN_MEMORY_SPEEDUP:.1f}x)"
    )


def test_memory_engine_speedup_smoke_scale():
    stats = measure_speedup("memory-engine(1,1)", QUICK_BALLS, QUICK_BINS)
    assert stats["speedup"] >= SMOKE_MEMORY_SPEEDUP, (
        f"(1,1) loop: {stats['speedup']:.1f}x < {SMOKE_MEMORY_SPEEDUP:.1f}x"
    )


def test_all_baselines_allocate_smoke_scale_fast():
    """Every accelerated baseline sustains well over 10^5 balls/s."""
    for name in _PROTOCOLS:
        vectorised, _ = _PROTOCOLS[name]
        start = time.perf_counter()
        vectorised(QUICK_BALLS, QUICK_BINS)
        seconds = time.perf_counter() - start
        assert QUICK_BALLS / seconds > 1e5, f"{name} too slow: {seconds:.2f}s"


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run at CI smoke scale")
    args = parser.parse_args()
    n_balls = QUICK_BALLS if args.quick else FULL_BALLS
    n_bins = QUICK_BINS if args.quick else FULL_BINS
    required = SMOKE_SPEEDUP if args.quick else MIN_SPEEDUP

    print(f"Baseline throughput: {n_balls:,} balls into {n_bins:,} bins\n")
    header = (
        f"{'baseline':<15} {'chunked':>10} {'per-ball':>10} {'speedup':>9} "
        f"{'balls/s':>12}"
    )
    print(header)
    print("-" * len(header))
    acceptance = {}
    entries = []
    for name in _PROTOCOLS:
        stats = measure_speedup(name, n_balls, n_bins)
        acceptance[name] = stats["speedup"]
        entries.append(
            {
                "label": name,
                "ops_per_second": stats["balls_per_second"],
                **stats,
            }
        )
        print(
            f"{name:<15} {stats['vectorised_seconds']:>9.3f}s "
            f"{stats['reference_seconds']:>9.2f}s "
            f"{stats['speedup']:>8.1f}x "
            f"{stats['balls_per_second']:>12,.0f}"
        )
    print("\nbackend scenarios (report-only; d>1/k>=2 memory regime):")
    entries.extend(measure_backend_scenarios(n_balls, n_bins))
    path = write_bench_json("baseline_throughput", entries)
    print(f"\nwrote {path}")
    worst = min(acceptance["greedy[2]"], acceptance["left[2]"])
    verdict = "PASS" if worst >= required else "FAIL"
    print(
        f"\nacceptance (greedy[2] and left[2] >= {required:.0f}x): "
        f"{verdict} (worst {worst:.1f}x)"
    )
    memory_required = SMOKE_MEMORY_SPEEDUP if args.quick else MIN_MEMORY_SPEEDUP
    memory_measured = acceptance["memory-engine(1,1)"]
    memory_verdict = "PASS" if memory_measured >= memory_required else "FAIL"
    print(
        f"acceptance ((1,1) loop vs general hand-off loop >= "
        f"{memory_required:.1f}x): {memory_verdict} ({memory_measured:.1f}x "
        "measured)"
    )
    if verdict == "FAIL" or memory_verdict == "FAIL":
        raise SystemExit(1)


if __name__ == "__main__":
    main()
