"""Seeded multi-trial experiment runner.

The runner is the single place that turns a declarative
:class:`~repro.api.SimulationSpec` into repeated, independently seeded
protocol runs.  The legacy :class:`~repro.experiments.config.TrialConfig` is
accepted everywhere a spec is (it is converted on the way in), and the
derived per-trial seeds are identical either way — and identical to what
:func:`repro.simulate` derives for multi-trial specs.

Every trial runs in-process through the protocol's
:meth:`~repro.core.protocol.AllocationProtocol.allocate_batch`, in
memory-bounded blocks of :func:`default_trial_block` trials, each block one
:func:`_run_trial_block` call under the spec's backend.  ``allocate_batch``
alone chooses between the trial axis and the per-trial loop: the unit
greedy[d] and left[d] baselines commit a block's trials as one combined
instance and ADAPTIVE fills each stage window for the whole block, but
only under a ``vectorised`` backend and without a trace; everything else
runs the exact per-trial loop.  The results are bit-identical either way.
Sweeps fan out only through the
:mod:`repro.cluster` coordinator (``workers > 1``), which runs each spec as
one shard through this same runner.

Every path derives per-trial seeds from the single-homed
:func:`repro.runtime.rng.trial_seed_table`, so composing them can never
double-derive or skew seeds.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Sequence

from repro.api.session import Simulation
from repro.api.spec import SimulationSpec
from repro.core.backend import get_backend, use_backend
from repro.core.result import RunResult
from repro.errors import ConfigurationError
from repro.experiments.config import SweepConfig, TrialConfig
from repro.runtime.rng import trial_seed, trial_seed_table
from repro.stats.summary import TrialSummary, summarize_records

__all__ = [
    "run_trial",
    "run_trials",
    "summarize_trials",
    "summarize_specs",
    "run_sweep",
    "summarize_shard_records",
    "as_spec",
    "default_trial_block",
]

#: Target resident size of one batched trial block (bytes).  Deliberately a
#: small fraction of the container's memory: the batched engines' speedup
#: saturates at a few hundred trials per block, so larger blocks only cost
#: RSS (the regression test in ``tests/test_batched_trials.py`` holds a
#: 10k-trial sweep to a stated budget).
_TRIAL_BLOCK_MEMORY_BUDGET = 256 << 20


def default_trial_block(n_balls: int, n_bins: int, trials: int | None = None) -> int:
    """Trials per batched block, auto-sized from the problem's footprint.

    A batched trial holds its ``n_bins``-long int64 loads row plus engine
    transients of a few rows more and — for the d-choice protocols —
    up-front candidate/priority matrices of a few ``n_balls`` entries, so
    the per-trial footprint is estimated as
    ``8 * (8 * n_bins + 4 * n_balls)`` bytes and the block sized to keep a
    block under :data:`_TRIAL_BLOCK_MEMORY_BUDGET`, capped at ``trials``.
    """
    if n_bins <= 0:
        raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    per_trial = 8 * (8 * n_bins + 4 * n_balls)
    block = max(1, _TRIAL_BLOCK_MEMORY_BUDGET // max(per_trial, 1))
    if trials is not None:
        block = min(block, max(1, trials))
    return int(block)

#: Metrics aggregated by default when summarising trials.
DEFAULT_METRICS: tuple[str, ...] = (
    "allocation_time",
    "probes_per_ball",
    "max_load",
    "gap",
    "quadratic_potential",
)


def as_spec(config: SimulationSpec | TrialConfig) -> SimulationSpec:
    """Coerce a legacy :class:`TrialConfig` (or pass a spec through)."""
    if isinstance(config, SimulationSpec):
        return config
    if isinstance(config, TrialConfig):
        return config.to_spec()
    raise ConfigurationError(
        "expected a SimulationSpec or TrialConfig, got "
        f"{type(config).__name__}"
    )


def run_trial(
    config: SimulationSpec | TrialConfig, trial_index: int = 0
) -> RunResult:
    """Run a single trial of ``config`` (trial ``trial_index`` of the batch)."""
    spec = as_spec(config)
    seed = trial_seed(spec.seed, trial_index, spec.trials)
    return Simulation(spec, seed=seed).run()


def _run_trial_block(
    spec: SimulationSpec, start: int, stop: int
) -> list[RunResult]:
    """Run trials ``start … stop-1`` of ``spec`` as one batched block.

    Seeds are a slice of the single-homed per-trial table, so a block's
    trial ``i`` sees exactly the seed :func:`run_trial` derives for trial
    ``i``, however the trials are partitioned.
    """
    protocol = spec.build_protocol()
    seeds = trial_seed_table(spec.seed, spec.trials)[start:stop]
    scope = (
        nullcontext()
        if spec.backend is None
        else use_backend(get_backend(spec.backend))
    )
    with scope:
        return protocol.allocate_batch(
            spec.n_balls, spec.n_bins, seeds, record_trace=spec.record_trace
        )


def run_trials(
    config: SimulationSpec | TrialConfig, *, as_records: bool = False
) -> list[RunResult] | list[dict[str, Any]]:
    """Run every trial of ``config`` in-process.

    Parameters
    ----------
    config:
        The trial batch to execute (a :class:`~repro.api.SimulationSpec`;
        legacy :class:`TrialConfig` accepted).
    as_records:
        When true, return flattened record dictionaries instead of
        :class:`~repro.core.result.RunResult` objects.
    """
    spec = as_spec(config)
    block = default_trial_block(spec.n_balls, spec.n_bins, spec.trials)
    results = []
    for start in range(0, spec.trials, block):
        results.extend(_run_trial_block(spec, start, min(start + block, spec.trials)))
    if as_records:
        return [r.as_record() for r in results]
    return results


def summarize_trials(
    config: SimulationSpec | TrialConfig,
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> dict[str, TrialSummary]:
    """Run ``config`` and summarise the requested metrics across trials."""
    return summarize_records(run_trials(config, as_records=True), metrics)


def summarize_specs(
    specs: Sequence[SimulationSpec],
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    workers: int = 1,
    out: str | None = None,
    resume: bool = False,
) -> list[dict[str, TrialSummary]]:
    """Run every spec and summarise its trials, one dict per spec in order.

    ``workers=1`` runs the specs in-process.  ``workers > 1`` shards them
    over that many :mod:`repro.cluster` workers, one spec per shard.
    ``out`` streams the per-trial record rows to JSONL as shards complete
    (in-process when ``workers=1``), and ``resume`` continues a truncated
    ``out`` file without re-running finished shards.  The summaries are
    identical on every path: per-trial rows are bit-identical and each
    spec's rows are summarised on their own.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    if workers == 1 and out is None and not resume:
        return [summarize_trials(spec, metrics=metrics) for spec in specs]
    from repro.cluster import run_cluster_sweep

    records = run_cluster_sweep(
        list(specs), workers=workers if workers > 1 else 0, out=out, resume=resume
    )
    return _shard_summaries(specs, records, metrics)


def run_sweep(
    sweep: SweepConfig,
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    workers: int | None = None,
    out: str | None = None,
    resume: bool = False,
) -> list[dict[str, Any]]:
    """Run a full sweep and return one summary row per (protocol, m) point.

    Each row contains the protocol name, the problem size, and for every
    metric ``k`` the keys ``k_mean``, ``k_std``, ``k_ci_low`` and
    ``k_ci_high``.  ``workers`` defaults to the sweep config's own field;
    ``workers``, ``out`` and ``resume`` are as in :func:`summarize_specs`.
    The rows are identical for any ``workers`` count.
    """
    specs = sweep.specs()
    summaries = summarize_specs(
        specs,
        metrics=metrics,
        workers=sweep.workers if workers is None else workers,
        out=out,
        resume=resume,
    )
    return [_summary_row(spec, s) for spec, s in zip(specs, summaries)]


def summarize_shard_records(
    specs: Sequence[SimulationSpec],
    records: Sequence[dict[str, Any]],
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> list[dict[str, Any]]:
    """Fold cluster record rows into :func:`run_sweep`-shaped summary rows.

    ``records`` are provenance-tagged schema-v1 rows (each carries the
    ``shard`` id of the spec that produced it); the output is one row per
    spec in spec order, identical to what :func:`run_sweep` produces for
    the same sweep.
    """
    summaries = _shard_summaries(specs, records, metrics)
    return [_summary_row(spec, s) for spec, s in zip(specs, summaries)]


def _shard_summaries(
    specs: Sequence[SimulationSpec],
    records: Sequence[dict[str, Any]],
    metrics: Sequence[str],
) -> list[dict[str, TrialSummary]]:
    """Summarise cluster rows per shard, in spec order."""
    by_shard: dict[int, list[dict[str, Any]]] = {}
    for record in records:
        by_shard.setdefault(int(record["shard"]), []).append(record)
    return [
        summarize_records(by_shard.get(shard_id, []), metrics)
        for shard_id in range(len(specs))
    ]


def _summary_row(
    spec: SimulationSpec, summaries: dict[str, TrialSummary]
) -> dict[str, Any]:
    row: dict[str, Any] = {
        "protocol": spec.protocol,
        "n_balls": spec.n_balls,
        "n_bins": spec.n_bins,
        "trials": spec.trials,
    }
    for key, summary in summaries.items():
        row[f"{key}_mean"] = summary.mean
        row[f"{key}_std"] = summary.std
        row[f"{key}_ci_low"] = summary.ci_low
        row[f"{key}_ci_high"] = summary.ci_high
    return row
