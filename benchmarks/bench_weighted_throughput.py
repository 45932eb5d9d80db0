"""Throughput benchmark of the chunked weighted-allocation engine.

Guards the acceptance claim of the weighted subsystem: on 1M balls / 10k
bins the chunked engine behind ``run_weighted_adaptive`` must be at least
10x faster than the seed per-ball loop (kept verbatim as
``reference_weighted_adaptive``) for both a mildly heterogeneous (uniform)
and a heavy-tailed (Pareto) weight family, while producing bit-identical
loads — the equivalence half is certified by
``tests/test_weighted_equivalence.py``, this file measures the speed half
and records per-scenario throughput in balls/second.  The weighted
THRESHOLD and greedy[2] engines are reported as well.

Run under pytest (``pytest benchmarks/bench_weighted_throughput.py``) or
directly::

    python benchmarks/bench_weighted_throughput.py          # full 1M / 10k
    python benchmarks/bench_weighted_throughput.py --quick  # CI smoke scale
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.weighted import (
    reference_weighted_adaptive,
    reference_weighted_greedy,
    reference_weighted_left,
    reference_weighted_memory,
    reference_weighted_threshold,
    run_weighted_adaptive,
    run_weighted_greedy,
    run_weighted_left,
    run_weighted_memory,
    run_weighted_threshold,
)

from conftest import BENCH_SEED, write_bench_json

#: Acceptance scale: 1M balls into 10k bins.
FULL_BALLS = 1_000_000
FULL_BINS = 10_000
#: CI smoke scale (the speedup is already unambiguous here).
QUICK_BALLS = 100_000
QUICK_BINS = 1_000
#: Required advantage of the chunked engine over the per-ball loop.
MIN_SPEEDUP = 10.0
#: Smoke-scale bar: smaller problems amortise less NumPy overhead per
#: block, so CI only checks that the advantage is unambiguous.
SMOKE_SPEEDUP = 3.0
#: To keep the reference's contribution to wall-clock sane, it runs on a
#: subsample of the balls and is scaled up (its cost is linear in m: one
#: Python iteration per ball, independent of everything else).
REFERENCE_FRACTION = 10


def make_weights(kind: str, m: int) -> np.ndarray:
    rng = np.random.default_rng(BENCH_SEED)
    if kind == "uniform":
        return rng.uniform(0.5, 1.5, m)
    if kind == "pareto":
        return rng.pareto(1.8, m) + 1.0
    raise ValueError(kind)


_RUNNERS = {
    "adaptive": (run_weighted_adaptive, reference_weighted_adaptive),
    "threshold": (run_weighted_threshold, reference_weighted_threshold),
    "greedy[2]": (
        lambda w, n, **kw: run_weighted_greedy(w, n, d=2, **kw),
        lambda w, n, **kw: reference_weighted_greedy(w, n, d=2, **kw),
    ),
    "left[2]": (
        lambda w, n, **kw: run_weighted_left(w, n, d=2, **kw),
        lambda w, n, **kw: reference_weighted_left(w, n, d=2, **kw),
    ),
    # Weighted (d,k)-memory runs the chunk-drawn scalar commit, like the
    # unweighted rule — reported, never held to a speedup bar.
    "memory(1,1)": (
        lambda w, n, **kw: run_weighted_memory(w, n, d=1, k=1, **kw),
        lambda w, n, **kw: reference_weighted_memory(w, n, d=1, k=1, **kw),
    ),
}

#: Scalar-committed scenarios exempt from the throughput floor below.
_SCALAR_RUNNERS = {"memory(1,1)"}


def measure_speedup(
    runner: str, family: str, n_balls: int, n_bins: int
) -> dict[str, float]:
    """Time the chunked engine vs the per-ball reference for one scenario."""
    vectorised, reference = _RUNNERS[runner]
    weights = make_weights(family, n_balls)
    start = time.perf_counter()
    vectorised(weights, n_bins, seed=BENCH_SEED)
    vectorised_seconds = time.perf_counter() - start
    sample = weights[: max(1, n_balls // REFERENCE_FRACTION)]
    start = time.perf_counter()
    reference(sample, n_bins, seed=BENCH_SEED)
    reference_seconds = (time.perf_counter() - start) * (n_balls / sample.size)
    return {
        "label": f"{runner}/{family}",
        "n_balls": n_balls,
        "n_bins": n_bins,
        "vectorised_seconds": vectorised_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / vectorised_seconds,
        "ops_per_second": n_balls / vectorised_seconds,
    }


def test_adaptive_speedup_full_scale():
    """Acceptance criterion: >= 10x on 1M balls / 10k bins, both families."""
    for family in ("uniform", "pareto"):
        stats = measure_speedup("adaptive", family, FULL_BALLS, FULL_BINS)
        assert stats["speedup"] >= MIN_SPEEDUP, (
            f"chunked weighted adaptive ({family}) only {stats['speedup']:.1f}x "
            f"faster than the per-ball loop (required {MIN_SPEEDUP:.0f}x)"
        )


def test_speedup_smoke_scale():
    """The engine stays clearly ahead at the CI smoke scale."""
    for family in ("uniform", "pareto"):
        stats = measure_speedup("adaptive", family, QUICK_BALLS, QUICK_BINS)
        assert stats["speedup"] >= SMOKE_SPEEDUP, (
            f"adaptive/{family}: {stats['speedup']:.1f}x < {SMOKE_SPEEDUP:.0f}x"
        )


def test_all_weighted_engines_fast_smoke_scale():
    """Every vectorised weighted engine sustains well over 10^5 balls/s."""
    for runner in _RUNNERS:
        if runner in _SCALAR_RUNNERS:
            continue
        weights = make_weights("pareto", QUICK_BALLS)
        vectorised, _ = _RUNNERS[runner]
        start = time.perf_counter()
        vectorised(weights, QUICK_BINS, seed=BENCH_SEED)
        seconds = time.perf_counter() - start
        assert QUICK_BALLS / seconds > 1e5, f"{runner} too slow: {seconds:.2f}s"


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run at CI smoke scale")
    args = parser.parse_args()
    n_balls = QUICK_BALLS if args.quick else FULL_BALLS
    n_bins = QUICK_BINS if args.quick else FULL_BINS
    required = SMOKE_SPEEDUP if args.quick else MIN_SPEEDUP

    print(f"Weighted throughput: {n_balls:,} balls into {n_bins:,} bins\n")
    header = (
        f"{'scenario':<20} {'chunked':>10} {'per-ball':>10} {'speedup':>9} "
        f"{'balls/s':>12}"
    )
    print(header)
    print("-" * len(header))
    entries = []
    acceptance = []
    for runner in _RUNNERS:
        for family in ("uniform", "pareto"):
            stats = measure_speedup(runner, family, n_balls, n_bins)
            entries.append(stats)
            if runner == "adaptive":
                acceptance.append(stats["speedup"])
            print(
                f"{stats['label']:<20} {stats['vectorised_seconds']:>9.3f}s "
                f"{stats['reference_seconds']:>9.2f}s "
                f"{stats['speedup']:>8.1f}x "
                f"{stats['ops_per_second']:>12,.0f}"
            )
    path = write_bench_json("weighted_throughput", entries)
    print(f"\nwrote {path}")
    worst = min(acceptance)
    verdict = "PASS" if worst >= required else "FAIL"
    print(
        f"acceptance (adaptive uniform and pareto >= {required:.0f}x): "
        f"{verdict} (worst {worst:.1f}x)"
    )
    if verdict == "FAIL":
        raise SystemExit(1)


if __name__ == "__main__":
    main()
