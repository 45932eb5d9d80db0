"""The ``trials`` workload: ``repro.simulate`` over paper-shaped cells.

Each cell is a multi-trial :class:`~repro.api.SimulationSpec`: ADAPTIVE,
THRESHOLD, greedy[2], left[2], (1,1)-memory and weighted ADAPTIVE at
``n = 10^4`` bins with ``m/n`` in {10, 100}, plus one ADAPTIVE cell at
``n = 10^6`` whose per-trial arrays overflow L2.  A run repeats whole
passes over the cells; a pass is one table of results, and its time is
the workload's latency.  Every trial is checked (``loads.sum() == m``, and ``max load <=
ceil(m/n) + 1`` for ADAPTIVE and THRESHOLD) and every pass's digest of
loads and probe counts must equal the first pass's.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from common import (
    KERNELS,
    MEASURED,
    SETUP_REPEATS,
    TMP,
    Pace,
    Tracer,
    median,
    now,
    timed_backend,
    timed_setup,
)

PROTOCOLS = ("adaptive", "threshold", "greedy", "left", "memory", "weighted-adaptive")
BINS = 10_000
RATIOS = (10, 100)
BIG_BINS = 1_000_000
TRIALS = 2
#: Passes every run makes, however fast the program; the slowest of them
#: is the latency tail, a statistic that does not move with run speed.
TAIL_PASSES = 3
#: Protocols whose maximum load the paper bounds by ceil(m/n) + 1.
BOUNDED = ("adaptive", "threshold")
#: Engine entry points that bypass the kernel backend, by the module that
#: calls them and the name it calls them under -> layer name.
ENGINES = {
    ("repro.core.session", "fill_window_batch"): "core.fill_window_batch",
    ("repro.baselines.greedy", "batched_argmin_commit"): "baselines.batched_argmin_commit",
    ("repro.baselines.left", "batched_argmin_commit"): "baselines.batched_argmin_commit",
    ("repro.baselines.memory", "chunked_memory_commit"): "baselines.memory_commit",
    ("repro.core.weighted", "chunked_weighted_assign"): "core.weighted_assign",
}


def cells(seed: int):
    from repro.api import SimulationSpec

    rng = np.random.default_rng([seed, 5])

    def cell(protocol, n_balls, n_bins):
        return SimulationSpec(
            protocol, n_balls, n_bins, seed=int(rng.integers(2**31)), trials=TRIALS
        )

    specs = [cell(p, BINS * r, BINS) for p in PROTOCOLS for r in RATIOS]
    specs.append(cell("adaptive", BIG_BINS, BIG_BINS))
    return specs


def setup(workload: str, seed: int):
    """Imports, inputs and a warm-up pass over every protocol."""
    from repro.api import SimulationSpec, simulate

    specs = cells(seed)
    for protocol in PROTOCOLS:
        simulate(SimulationSpec(protocol, 2000, 200, seed=0, trials=TRIALS))
    return specs


def check(spec, results, digest) -> int:
    """Failed trials of one cell; feeds the cell's loads into ``digest``."""
    failed = 0
    limit = math.ceil(spec.n_balls / spec.n_bins) + 1
    for result in results:
        loads = np.asarray(result.loads)
        ok = int(loads.sum()) == spec.n_balls
        if spec.protocol in BOUNDED:
            ok = ok and int(loads.max()) <= limit
        failed += not ok
        digest.update(loads.astype(np.int64).tobytes())
        digest.update(int(result.allocation_time).to_bytes(8, "little"))
    return failed


def measure(specs, seconds: float, tracer: Tracer | None = None) -> dict:
    """Whole passes over the cells until ``seconds`` have gone by."""
    from repro.api import simulate

    trials = failed = 0
    calls: list[float] = []  # seconds per cell, in call order
    digests = []
    probes = {p: 0 for p in PROTOCOLS}
    placed = {p: 0 for p in PROTOCOLS}
    pace = Pace()
    pace.mark()
    deadline = now() + seconds
    while now() < deadline or len(digests) < TAIL_PASSES:
        digest = hashlib.sha256()
        for spec in specs:
            frame = tracer.open(f"experiments.cell.{spec.protocol}") if tracer else None
            started = now()
            results = simulate(spec)
            elapsed = now() - started
            if frame is not None:
                tracer.close(frame)
            calls.append(elapsed)
            pace.mark()
            trials += spec.trials
            failed += check(spec, results, digest)
            probes[spec.protocol] += sum(int(r.allocation_time) for r in results)
            placed[spec.protocol] += spec.n_balls * spec.trials
        digests.append(digest.hexdigest())
    failed += sum(d != digests[0] for d in digests) * len(specs) * TRIALS
    return {
        **figures(specs, pace.paced(calls)),
        "raw": figures(specs, calls),
        "pace_ms": pace.median_ms(),
        "busy_s": sum(calls),
        "latency_samples": len(digests),
        "attempted": trials,
        "failed": failed,
        "passes": len(digests),
        "digest": digests[0],
        "probes_per_ball": {p: probes[p] / placed[p] for p in PROTOCOLS},
    }


def figures(specs, times: list[float]) -> dict:
    """End-to-end figures from the cell times, in call order, of whole passes.

    Rates take each cell's median over the passes, which keeps a momentary
    stall in one pass out of them.  Cells differ in size by orders of
    magnitude, so the latency is that of a whole pass, one table of
    results: a percentile over mixed cells would flip between cells.  A
    run holds too few passes for a p99, so ``latency_p99_ms`` is the
    slowest of the first ``TAIL_PASSES`` passes.
    """
    cells = len(specs)
    per_cell = [median(times[i::cells]) for i in range(cells)]
    passes = [sum(times[i : i + cells]) * 1e3 for i in range(0, len(times), cells)]
    return {
        "balls_per_s": sum(s.n_balls * s.trials for s in specs) / sum(per_cell),
        "latency_p50_ms": median(passes),
        "latency_p99_ms": max(passes[:TAIL_PASSES]),
    }


def traced(specs, seconds: float) -> tuple[dict, Tracer]:
    """The same passes with every layer wrapped from outside.

    Kernels are timed by a timing backend handed to ``use_backend``; trial
    blocks and the engines that bypass the backend are timed by swapping
    the name their caller looks them up under, restored afterwards.
    """
    import importlib

    from repro.core.backend import use_backend

    tracer = Tracer()
    patches = {("repro.experiments.runner", "_run_trial_block"): "experiments.trial_block"}
    patches.update(ENGINES)
    originals = {}
    for (module_name, attr), layer in patches.items():
        module = importlib.import_module(module_name)
        originals[module, attr] = getattr(module, attr)
        setattr(module, attr, tracer.wrap(layer, originals[module, attr]))
    try:
        with use_backend(timed_backend(tracer)):
            result = measure(specs, seconds, tracer)
    finally:
        for (module, attr), original in originals.items():
            setattr(module, attr, original)
    return result, tracer


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, raw_setup_s = timed_setup(workload, seed, SETUP_REPEATS)
    specs = setup(workload, seed)
    base = measure(specs, seconds)
    out = {
        "correct": base["failed"] == 0,
        "attempted": base["attempted"],
        "failed": base["failed"],
        "e2e": {
            "setup_s": setup_s,
            **{name: base[name] for name in MEASURED},
        },
        "samples": {
            "latency": base["latency_samples"],
            "latency_tail_of_first": TAIL_PASSES,
            "operations": base["attempted"],
            "passes": base["passes"],
            "setup": SETUP_REPEATS,
        },
        "info": {
            "digest": base["digest"],
            "raw": dict(base["raw"], setup_s=raw_setup_s),
            "pace_ms": base["pace_ms"],
        },
    }
    if not trace:
        return out
    again, tracer = traced(specs, seconds)
    layers = {
        f"experiments.cell.{p}.s": tracer.seconds(f"experiments.cell.{p}")
        for p in PROTOCOLS
    }
    layers["experiments.trial_blocks"] = tracer.calls.get("experiments.trial_block", 0)
    for protocol, ratio in base["probes_per_ball"].items():
        layers[f"runtime.probes_per_ball.{protocol}"] = ratio
    layers.update(tracer.layer_metrics([*KERNELS.values(), *set(ENGINES.values())]))
    layers["latency.samples"] = again["latency_samples"]
    layers["trace_overhead"] = base["balls_per_s"] / again["balls_per_s"] - 1
    out["layers"] = layers
    out["attempted"] += again["attempted"]
    out["failed"] += again["failed"] + (again["digest"] != base["digest"])
    out["correct"] = out["failed"] == 0
    tracer.write(TMP / f"{workload}.spans.jsonl")
    out["info"]["layers"] = tracer.summary(again["busy_s"])
    return out
