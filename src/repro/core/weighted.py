"""Weighted-balls extension of the paper's protocols.

The paper analyses unit-weight balls.  A natural extension (and the setting
of most follow-up work on the heavily loaded case) gives every ball ``i`` a
weight ``w_i`` and measures bin load as the *sum of weights*.  The ADAPTIVE
rule generalises directly: ball ``i`` is accepted into a bin whose current
weight is strictly below ``W_i/n + w_max``, where ``W_i`` is the total weight
of the balls placed so far (including ball ``i``) and ``w_max`` an upper bound
on the individual weights.  With unit weights this is exactly the paper's
threshold ``i/n + 1`` — probe for probe, since integer loads satisfy
``load < i/n + 1`` iff ``load <= ceil(i/n)`` — and the same argument gives
the deterministic guarantee ``max load ≤ W/n + 2·w_max``.

Five weighted protocols are provided, mirroring the unit-weight family:

* :func:`run_weighted_adaptive` — the moving-threshold rule above;
* :func:`run_weighted_threshold` — the THRESHOLD analogue with the fixed
  bound ``W/n + w_max`` (needs the total weight up front);
* :func:`run_weighted_greedy` — greedy[d] on weighted loads (place into the
  least-weighted of ``d`` uniform draws);
* :func:`run_weighted_left` — Vöcking's left[d] on weighted loads (one bin
  per group, leftmost least-weighted wins);
* :func:`run_weighted_memory` — the (d,k)-memory rule on weighted loads
  (``d`` fresh draws plus the ``k`` least weighted-loaded remembered bins).

All five run through chunked exact vectorised engines — the moving
threshold is bracketed per chunk by the engine of
:mod:`repro.core.weighted_engine`, the d-choice rules reuse the
conflict-free commit engine of :mod:`repro.baselines.engine` with weighted
increments, and the memory rule drives the chunk-drawn scalar commit of
:mod:`repro.baselines.memory_engine`.  The original ball-by-ball loops are
kept as ``reference_weighted_*`` (mirroring :mod:`repro.baselines.reference`)
so the test-suite can certify bit-identical replay equivalence, and every
ADAPTIVE/THRESHOLD probe loop is capped by ``max_probes`` (raising
:class:`~repro.errors.SimulationError` instead of spinning forever on a
probe source that never offers an acceptable bin).

Each rule is one streaming :class:`~repro.core.protocol.AllocationProtocol`
registered as ``"weighted-adaptive"``, ``"weighted-threshold"``,
``"weighted-greedy"``, ``"weighted-left"`` or ``"weighted-memory"``, and
each runner above is that protocol's session on the caller's weights (its
``begin_weights``), run to completion.  Registry runs draw their weights
from a named family of :data:`repro.stats.distributions.WEIGHT_DISTRIBUTIONS`
(Pareto, exponential, bimodal, …) via the stream's auxiliary generator, so
experiment configurations stay serialisable and replay-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.baselines.greedy import DChoiceSession
from repro.baselines.left import left_source, replay_group_map, seeded_group_choices
from repro.baselines.memory import _MemorySession
from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import RunResult, register_record_kind
from repro.core.session import ProtocolSession
from repro.core.weighted_engine import (
    adaptive_weighted_thresholds,
    chunked_weighted_assign,
    fixed_weighted_threshold,
    resolve_max_probes,
    sequential_weighted_place,
)
from repro.errors import ConfigurationError
from repro.runtime.costs import CostModel
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike
from repro.stats.distributions import WEIGHT_DISTRIBUTIONS, make_weights

__all__ = [
    "WeightedAllocationResult",
    "WeightedRunResult",
    "run_weighted_adaptive",
    "reference_weighted_adaptive",
    "run_weighted_threshold",
    "reference_weighted_threshold",
    "run_weighted_greedy",
    "reference_weighted_greedy",
    "run_weighted_left",
    "reference_weighted_left",
    "run_weighted_memory",
    "reference_weighted_memory",
    "weighted_gap_bound",
    "WeightedAdaptiveProtocol",
    "WeightedThresholdProtocol",
    "WeightedGreedyProtocol",
    "WeightedLeftProtocol",
    "WeightedMemoryProtocol",
]


@dataclass
class WeightedRunResult(RunResult):
    """Unified record of a weighted protocol run.

    Part of the :class:`~repro.core.result.RunResult` hierarchy: ``loads``
    holds the per-bin *ball counts* (so every base-class invariant and
    downstream consumer keeps working) and the weighted view lives in the
    extra fields.  ``WeightedAllocationResult`` is a thin alias of this class
    kept for backwards compatibility.

    Attributes
    ----------
    weights:
        The ball weights, in placement order.
    weighted_loads:
        Final per-bin total weight (the weighted load vector).
    w_max_used:
        The weight bound of the run: the one the ADAPTIVE/THRESHOLD
        acceptance thresholds were computed with, and the weights' maximum
        (``1.0`` with no balls) for the rules that use no bound.  The
        ball-by-ball d-choice references leave it ``None``.
    """

    weights: np.ndarray | None = None
    weighted_loads: np.ndarray | None = None
    w_max_used: float | None = None

    @property
    def counts(self) -> np.ndarray:
        """Per-bin ball counts (alias of ``loads`` under its weighted name)."""
        return self.loads

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum()) if self.weights is not None else 0.0

    @property
    def weighted_max_load(self) -> float:
        if self.weighted_loads is None or not self.weighted_loads.size:
            return 0.0
        return float(self.weighted_loads.max())

    @property
    def weighted_average_load(self) -> float:
        return self.total_weight / self.n_bins if self.n_bins else 0.0

    @property
    def weighted_gap(self) -> float:
        if self.weighted_loads is None or not self.weighted_loads.size:
            return 0.0
        return float(self.weighted_loads.max() - self.weighted_loads.min())

    record_kind = "weighted"

    def as_record(self, arrays: bool = True) -> dict[str, Any]:
        record = super().as_record(arrays=arrays)
        record["total_weight"] = float(self.total_weight)
        record["weighted_max_load"] = float(self.weighted_max_load)
        record["weighted_gap"] = float(self.weighted_gap)
        record["w_max_used"] = (
            None if self.w_max_used is None else float(self.w_max_used)
        )
        if arrays:
            record["weights"] = (
                None
                if self.weights is None
                else np.asarray(self.weights, dtype=np.float64).tolist()
            )
            record["weighted_loads"] = (
                None
                if self.weighted_loads is None
                else np.asarray(self.weighted_loads, dtype=np.float64).tolist()
            )
        return record

    @classmethod
    def _record_kwargs(cls, record: Mapping[str, Any]) -> dict[str, Any]:
        from repro.core.result import _record_field

        kwargs = super()._record_kwargs(record)
        weights = _record_field(record, "weights")
        weighted_loads = _record_field(record, "weighted_loads")
        w_max_used = _record_field(record, "w_max_used")
        kwargs["weights"] = (
            None if weights is None else np.asarray(weights, dtype=np.float64)
        )
        kwargs["weighted_loads"] = (
            None
            if weighted_loads is None
            else np.asarray(weighted_loads, dtype=np.float64)
        )
        kwargs["w_max_used"] = None if w_max_used is None else float(w_max_used)
        return kwargs


register_record_kind(WeightedRunResult.record_kind, WeightedRunResult)

#: Backwards-compatible alias: the weighted runners used to return a separate
#: ``WeightedAllocationResult`` record; they now return the unified
#: :class:`WeightedRunResult` directly.
WeightedAllocationResult = WeightedRunResult


def weighted_gap_bound(weights: np.ndarray, n_bins: int) -> float:
    """Deterministic max-load bound of the weighted ADAPTIVE rule.

    ``max load ≤ W/n + 2·w_max``: the bin accepted the last ball while below
    ``W/n + w_max`` and the ball itself weighs at most ``w_max``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ConfigurationError("weights must be a non-empty 1-D array")
    if not np.isfinite(weights).all():
        raise ConfigurationError("weights must be finite")
    if np.any(weights <= 0):
        raise ConfigurationError("weights must be positive")
    if n_bins <= 0:
        raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
    return float(weights.sum() / n_bins + 2.0 * weights.max())


def _validate_weighted_run(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike,
    probe_stream: ProbeStream | None,
    w_max: float | None,
) -> tuple[np.ndarray, ProbeStream, float]:
    """Shared validation of the weighted sessions and references.

    Returns the resolved ``(weights, stream, w_max)``; runs before any probe
    is drawn.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ConfigurationError("weights must be a 1-D array")
    if not np.isfinite(weights).all():
        raise ConfigurationError("weights must be finite")
    if weights.size and np.any(weights <= 0):
        raise ConfigurationError("weights must be positive")
    if n_bins <= 0:
        raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
    if w_max is None:
        w_max = float(weights.max()) if weights.size else 1.0
    elif not 0 < w_max < np.inf:
        raise ConfigurationError(f"w_max must be positive and finite, got {w_max}")
    elif weights.size and w_max < weights.max():
        raise ConfigurationError("w_max must dominate every ball weight")
    stream = probe_stream or RandomProbeStream(n_bins, seed)
    if stream.n_bins != n_bins:
        raise ConfigurationError(
            "probe_stream.n_bins does not match the requested n_bins"
        )
    return weights, stream, float(w_max)


class _CountTally:
    """What a weighted session adds to the engine session it runs on.

    Per-bin ball counts tallied from ``assignments``: each read of
    :attr:`loads` bins only the balls placed since the previous read, so a
    traced or polled run pays for its new balls and the bins at each stage,
    not for every ball placed so far.  ``w_max`` is the weight bound the
    session resolved, and the finished record is the unified
    :class:`WeightedRunResult` with the protocol's registry parameters.
    """

    def _start_tally(self, n_bins: int, w_max: float) -> None:
        self.w_max = w_max
        self._counts = np.zeros(n_bins, dtype=np.int64)
        self._tallied = 0

    @property
    def loads(self) -> np.ndarray:
        new = self.assignments[self._tallied : self.placed]
        self._counts += np.bincount(new, minlength=self.n_bins)
        self._tallied = self.placed
        return self._counts

    def _finalize(self) -> WeightedRunResult:
        run = _result(
            self.protocol.name,
            self._weights,
            self.weighted_loads,
            self.loads,
            self.probes,
            self.w_max,
        )
        run.params = self.protocol.params()
        return run


def _result(
    protocol: str,
    weights: np.ndarray,
    weighted_loads: np.ndarray,
    counts: np.ndarray,
    probes: int,
    w_max: float | None = None,
) -> WeightedRunResult:
    return WeightedRunResult(
        protocol=protocol,
        n_balls=int(weights.size),
        n_bins=int(weighted_loads.size),
        loads=counts,
        allocation_time=probes,
        costs=CostModel(probes=probes),
        weights=weights.copy(),
        weighted_loads=weighted_loads,
        w_max_used=w_max,
    )


# --------------------------------------------------------------------- #
# Weighted ADAPTIVE
# --------------------------------------------------------------------- #
def run_weighted_adaptive(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    probe_stream: ProbeStream | None = None,
    w_max: float | None = None,
    chunk_size: int | None = None,
    max_probes: int | None = None,
) -> WeightedRunResult:
    """Allocate weighted balls with the generalised ADAPTIVE rule.

    This is :class:`WeightedAdaptiveProtocol`'s session on ``weights``, run
    to completion through the chunked vectorised engine of
    :mod:`repro.core.weighted_engine`; the result (loads, counts and probe
    consumption) is bit-identical to :func:`reference_weighted_adaptive` for
    the same probe stream.

    Parameters
    ----------
    weights:
        Positive, finite ball weights, processed in order.
    n_bins:
        Number of bins.
    seed / probe_stream:
        Randomness source (same conventions as the unit-weight protocols).
    w_max:
        Upper bound on the weights used in the acceptance threshold; defaults
        to ``weights.max()``.  Must dominate every weight.
    chunk_size:
        Balls per engine chunk (default: ambiguity-balancing heuristic).
    max_probes:
        Per-ball probe cap; exceeding it raises
        :class:`~repro.errors.SimulationError`.
    """
    protocol = WeightedAdaptiveProtocol(w_max=w_max, chunk_size=chunk_size)
    return _run(
        protocol.begin_weights(
            weights, n_bins, seed, probe_stream=probe_stream, max_probes=max_probes
        )
    )


def reference_weighted_adaptive(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    probe_stream: ProbeStream | None = None,
    w_max: float | None = None,
    max_probes: int | None = None,
) -> WeightedRunResult:
    """Ball-by-ball weighted ADAPTIVE (the seed implementation, kept verbatim).

    One Python loop iteration per ball, following the rule literally; used by
    the test-suite to certify the chunked engine and by the throughput
    benchmark as the speedup baseline.  The probe loop is capped by
    ``max_probes`` per ball (the seed's unbounded ``while True`` could spin
    forever on a probe source that never offers an acceptable bin).
    """
    weights, stream, w_max = _validate_weighted_run(
        weights, n_bins, seed, probe_stream, w_max
    )
    cap = resolve_max_probes(max_probes, n_bins)
    loads = np.zeros(n_bins, dtype=np.float64)
    counts = np.zeros(n_bins, dtype=np.int64)
    probes = 0
    placed_weight = 0.0

    for weight in weights:
        placed_weight += float(weight)
        threshold = placed_weight / n_bins + w_max
        j, used = sequential_weighted_place(loads, threshold, stream, cap)
        probes += used
        loads[j] += float(weight)
        counts[j] += 1

    return _result("weighted-adaptive", weights, loads, counts, probes, w_max)


# --------------------------------------------------------------------- #
# Weighted THRESHOLD
# --------------------------------------------------------------------- #
def run_weighted_threshold(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    probe_stream: ProbeStream | None = None,
    w_max: float | None = None,
    chunk_size: int | None = None,
    max_probes: int | None = None,
) -> WeightedRunResult:
    """Weighted THRESHOLD: fixed acceptance bound ``W/n + w_max``.

    Requires the full weight vector up front (as the unit-weight THRESHOLD
    requires ``m``).  The bound always leaves at least one bin acceptable
    (if every bin reached ``W/n + w_max`` the total placed weight would
    exceed ``W``), so the rule terminates for any fair probe source.  This
    is :class:`WeightedThresholdProtocol`'s session on ``weights``, run to
    completion; the keywords are :func:`run_weighted_adaptive`'s.
    """
    protocol = WeightedThresholdProtocol(w_max=w_max, chunk_size=chunk_size)
    return _run(
        protocol.begin_weights(
            weights, n_bins, seed, probe_stream=probe_stream, max_probes=max_probes
        )
    )


def reference_weighted_threshold(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    probe_stream: ProbeStream | None = None,
    w_max: float | None = None,
    max_probes: int | None = None,
) -> WeightedRunResult:
    """Ball-by-ball weighted THRESHOLD (validation / benchmark baseline)."""
    weights, stream, w_max = _validate_weighted_run(
        weights, n_bins, seed, probe_stream, w_max
    )
    cap = resolve_max_probes(max_probes, n_bins)
    loads = np.zeros(n_bins, dtype=np.float64)
    counts = np.zeros(n_bins, dtype=np.int64)
    probes = 0
    if weights.size:
        bound = fixed_weighted_threshold(weights, n_bins, w_max)
        for weight in weights:
            j, used = sequential_weighted_place(loads, bound, stream, cap)
            probes += used
            loads[j] += float(weight)
            counts[j] += 1
    return _result("weighted-threshold", weights, loads, counts, probes, w_max)


# --------------------------------------------------------------------- #
# Weighted greedy[d]
# --------------------------------------------------------------------- #
def run_weighted_greedy(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    tie_break: str = "random",
    probe_stream: ProbeStream | None = None,
    chunk_size: int | None = None,
) -> WeightedRunResult:
    """Weighted greedy[d]: place into the least-*weighted* of ``d`` draws.

    This is :class:`WeightedGreedyProtocol`'s session on ``weights``, run to
    completion: the chunked conflict-free commit engine of
    :mod:`repro.baselines.engine` with weighted increments.  The replay
    contract (one ``(m, d)`` probe matrix in ball order, tie-break priorities
    from ``stream.derive_generator(seed)``) matches the unit-weight
    greedy[d] exactly, and with all-equal weights the per-bin *counts*
    reproduce the unit protocol's loads.
    """
    protocol = WeightedGreedyProtocol(d=d, tie_break=tie_break, chunk_size=chunk_size)
    return _run(protocol.begin_weights(weights, n_bins, seed, probe_stream=probe_stream))


def reference_weighted_greedy(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    tie_break: str = "random",
    probe_stream: ProbeStream | None = None,
) -> WeightedRunResult:
    """Ball-by-ball weighted greedy[d] (validation / benchmark baseline).

    Mirrors :func:`repro.baselines.reference.reference_greedy` with float
    loads and per-ball weight increments.
    """
    if d < 1:
        raise ConfigurationError(f"d must be at least 1, got {d}")
    if tie_break not in ("random", "first"):
        raise ConfigurationError(
            f"tie_break must be 'random' or 'first', got {tie_break!r}"
        )
    weights, stream, _ = _validate_weighted_run(
        weights, n_bins, seed, probe_stream, None
    )
    loads = np.zeros(n_bins, dtype=np.float64)
    counts = np.zeros(n_bins, dtype=np.int64)
    m = weights.size
    priorities = None
    if m and tie_break == "random":
        priorities = stream.derive_generator(seed).random(size=(m, d))
    for i in range(m):
        row = stream.take(d)
        candidate_loads = loads[row]
        min_load = candidate_loads.min()
        mask = candidate_loads == min_load
        if priorities is None or mask.sum() == 1:
            target = row[int(np.argmax(mask))]
        else:
            tied = np.flatnonzero(mask)
            target = row[tied[int(np.argmin(priorities[i][tied]))]]
        loads[target] += weights[i]
        counts[target] += 1
    return _result("weighted-greedy", weights, loads, counts, m * d)


# --------------------------------------------------------------------- #
# Weighted left[d]
# --------------------------------------------------------------------- #
def run_weighted_left(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    probe_stream: ProbeStream | None = None,
    chunk_size: int | None = None,
) -> WeightedRunResult:
    """Weighted left[d]: one bin per group, leftmost least-*weighted* wins.

    Vöcking's asymmetric tie break is exactly the first-minimum rule of the
    chunked conflict-free commit engine, here with weighted increments; this
    is :class:`WeightedLeftProtocol`'s session on ``weights``, run to
    completion.  The replay contract matches the unit left[d]: with a
    ``probe_stream`` the groups must be of equal size and the ``g``-th probe
    of a ball maps to ``g·(n/d) + probe mod (n/d)``; seeded runs draw the
    one-per-group choices from an up-front float-offset matrix (any group
    sizes), via :func:`repro.baselines.left.left_source`.  With all-equal
    weights the per-bin counts reproduce the unit protocol's loads
    probe-for-probe.
    """
    protocol = WeightedLeftProtocol(d=d, chunk_size=chunk_size)
    return _run(protocol.begin_weights(weights, n_bins, seed, probe_stream=probe_stream))


def reference_weighted_left(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    probe_stream: ProbeStream | None = None,
) -> WeightedRunResult:
    """Ball-by-ball weighted left[d] (validation / benchmark baseline).

    Mirrors :func:`repro.baselines.reference.reference_left` with float
    loads and per-ball weight increments.
    """
    if d < 1:
        raise ConfigurationError(f"d must be at least 1, got {d}")
    weights, stream, _ = _validate_weighted_run(
        weights, n_bins, seed, probe_stream, None
    )
    loads = np.zeros(n_bins, dtype=np.float64)
    counts = np.zeros(n_bins, dtype=np.int64)
    m = weights.size
    if probe_stream is not None:
        group_base, size = replay_group_map(n_bins, d)
        for i in range(m):
            row = group_base + stream.take(d) % size
            target = row[int(np.argmin(loads[row]))]
            loads[target] += weights[i]
            counts[target] += 1
    elif m:
        choices = seeded_group_choices(n_bins, d, m, stream.generator)
        for i in range(m):
            row = choices[i]
            target = row[int(np.argmin(loads[row]))]
            loads[target] += weights[i]
            counts[target] += 1
    return _result("weighted-left", weights, loads, counts, m * d)


# --------------------------------------------------------------------- #
# Weighted (d,k)-memory
# --------------------------------------------------------------------- #
def run_weighted_memory(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 1,
    k: int = 1,
    probe_stream: ProbeStream | None = None,
    chunk_size: int | None = None,
) -> WeightedRunResult:
    """Weighted (d,k)-memory: remembered bins compete on weighted load.

    Candidates are the ``d`` fresh draws followed by the ``k`` remembered
    bins; the first least weighted-loaded candidate receives the ball's
    weight, and the ``k`` least loaded distinct candidates are remembered.
    Runs through :func:`repro.baselines.memory_engine.chunked_memory_commit`
    given the weights — the unit protocol's scalar hand-off on float loads,
    and the conflict-free commit engine at ``k = 0``.  With all-equal
    weights the per-bin counts reproduce the unit protocol probe-for-probe.
    This is :class:`WeightedMemoryProtocol`'s session on ``weights``, run to
    completion.
    """
    protocol = WeightedMemoryProtocol(d=d, k=k, chunk_size=chunk_size)
    return _run(protocol.begin_weights(weights, n_bins, seed, probe_stream=probe_stream))


def reference_weighted_memory(
    weights: np.ndarray,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 1,
    k: int = 1,
    probe_stream: ProbeStream | None = None,
) -> WeightedRunResult:
    """Ball-by-ball weighted (d,k)-memory (validation baseline).

    Mirrors :func:`repro.baselines.reference.reference_memory` with float
    loads and per-ball weight increments: the remembered set holds the
    ``k`` least weighted-loaded *distinct* candidates, stable order.
    """
    if d < 1:
        raise ConfigurationError(f"d must be at least 1, got {d}")
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    weights, stream, _ = _validate_weighted_run(
        weights, n_bins, seed, probe_stream, None
    )
    loads = np.zeros(n_bins, dtype=np.float64)
    counts = np.zeros(n_bins, dtype=np.int64)
    memory: np.ndarray = np.empty(0, dtype=np.int64)
    for i in range(weights.size):
        candidates = np.concatenate((stream.take(d), memory))
        target = candidates[int(np.argmin(loads[candidates]))]
        loads[target] += weights[i]
        counts[target] += 1
        if k:
            _, first = np.unique(candidates, return_index=True)
            unique = candidates[np.sort(first)]
            keep = np.argsort(loads[unique], kind="stable")[:k]
            memory = unique[keep]
    return _result(
        "weighted-memory", weights, loads, counts, int(weights.size) * d
    )


# --------------------------------------------------------------------- #
# Registry protocols and their sessions
# --------------------------------------------------------------------- #
def _run(session: ProtocolSession) -> WeightedRunResult:
    """A runner's record: its session run to completion.

    The runner's caller gave the weights instead of a weight distribution,
    so the record carries no registry parameters.
    """
    run = session.result()
    run.params = {}
    return run


class _WeightedProtocolBase(AllocationProtocol):
    """Shared scaffolding of the weighted registry protocols.

    Weights are drawn up front from the probe stream's auxiliary generator
    (:meth:`~repro.runtime.probes.ProbeStream.derive_generator`), so a run is
    a pure function of ``(seed, weight_dist, dist params)`` for seeded
    streams and replay-deterministic for fixed streams — the same contract
    as the greedy tie-break noise.

    ``batches`` stays ``False`` for the whole weighted family: the weighted
    ADAPTIVE/THRESHOLD engine's probe consumption is data-dependent on the
    evolving *float* loads (no rank shortcut), and the weighted commit
    regimes are deliberately scalar per the roadmap's standing constraints —
    so multi-trial batches honestly run through the base-class per-trial
    :meth:`~repro.core.protocol.AllocationProtocol.allocate_batch` loop
    rather than a second trial-axis engine.
    """

    def __init__(
        self,
        weight_dist: str = "pareto",
        w_max: float | None = None,
        chunk_size: int | None = None,
        **dist_params: Any,
    ) -> None:
        if weight_dist not in WEIGHT_DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown weight distribution {weight_dist!r}; "
                f"available: {sorted(WEIGHT_DISTRIBUTIONS)}"
            )
        if w_max is not None and not 0 < w_max < np.inf:
            raise ConfigurationError(f"w_max must be positive and finite, got {w_max}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
        self.weight_dist = weight_dist
        self.w_max = w_max
        self.chunk_size = chunk_size
        self.dist_params = dict(dist_params)

    def params(self) -> dict[str, Any]:
        return {
            "weight_dist": self.weight_dist,
            "w_max": self.w_max,
            "chunk_size": self.chunk_size,
            **self.dist_params,
        }

    def begin(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> ProtocolSession:
        self.validate_size(n_balls, n_bins)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        if stream.n_bins != n_bins:
            raise ConfigurationError(
                "probe_stream.n_bins does not match the requested n_bins"
            )
        weights = make_weights(
            self.weight_dist, n_balls, stream.derive_generator(seed), **self.dist_params
        )
        if probe_stream is None:
            # Keep the generator the weights were spawned from: a fresh one
            # seeded from ``seed`` would spawn the weights' child again for
            # the greedy tie priorities.
            seed = stream.generator
        return self.begin_weights(
            weights,
            n_bins,
            seed,
            probe_stream=probe_stream,
            record_trace=record_trace,
        )

    def begin_weights(
        self,
        weights: np.ndarray,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> ProtocolSession:
        """Start this rule's session placing ``weights``, in order.

        :meth:`begin` draws the weights and calls this; the
        ``run_weighted_*`` runners call it on their caller's weights.
        ``seed``, ``probe_stream`` and ``record_trace`` follow the
        unit-weight conventions; a stage record's loads are ball counts.
        """
        raise NotImplementedError


class _WeightedEngineSession(_CountTally, ProtocolSession):
    """Streaming weighted ADAPTIVE/THRESHOLD via the chunked engine.

    The full weight vector and the per-ball thresholds are fixed up front,
    so each :meth:`place` call simply drives
    :func:`~repro.core.weighted_engine.chunked_weighted_assign` over the
    next slice — the engine's chunk invariance makes any split of the
    placement bit-identical.  Each ball's bin lands in ``assignments``,
    from which the per-bin ball counts are tallied; ``w_max`` is the weight
    bound the session resolved and ``max_probes`` the runners' per-ball cap.
    """

    def __init__(
        self,
        protocol: _WeightedProtocolBase,
        n_bins: int,
        stream: ProbeStream,
        weights: np.ndarray,
        w_max: float,
        record_trace: bool,
        thresholds: np.ndarray,
        max_probes: int | None,
    ) -> None:
        super().__init__(
            protocol, int(weights.size), n_bins, stream, record_trace=record_trace
        )
        self._weights = weights
        self._wloads = np.zeros(n_bins, dtype=np.float64)
        self.assignments = np.empty(weights.size, dtype=np.int64)
        self._start_tally(n_bins, w_max)
        self._thresholds = thresholds
        self._max_probes = max_probes
        self._probes = 0

    @property
    def weighted_loads(self) -> np.ndarray:
        return self._wloads

    @property
    def probes(self) -> int:
        return self._probes

    def _place(self, k: int) -> None:
        start = self.placed
        self._probes += chunked_weighted_assign(
            self._wloads,
            self._weights[start : start + k],
            self._thresholds[start : start + k],
            self.stream,
            chunk_size=self.protocol.chunk_size,
            assignments=self.assignments[start : start + k],
            max_probes=self._max_probes,
        )


@register_protocol
class WeightedAdaptiveProtocol(_WeightedProtocolBase):
    """Registry protocol running :func:`run_weighted_adaptive`'s rule."""

    name = "weighted-adaptive"
    streaming = True

    def begin_weights(
        self,
        weights: np.ndarray,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
        max_probes: int | None = None,
    ) -> _WeightedEngineSession:
        weights, stream, w_max = _validate_weighted_run(
            weights, n_bins, seed, probe_stream, self.w_max
        )
        thresholds = adaptive_weighted_thresholds(weights, n_bins, w_max)
        return _WeightedEngineSession(
            self, n_bins, stream, weights, w_max, record_trace, thresholds, max_probes
        )


@register_protocol
class WeightedThresholdProtocol(_WeightedProtocolBase):
    """Registry protocol running :func:`run_weighted_threshold`'s rule."""

    name = "weighted-threshold"
    streaming = True

    def begin_weights(
        self,
        weights: np.ndarray,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
        max_probes: int | None = None,
    ) -> _WeightedEngineSession:
        weights, stream, w_max = _validate_weighted_run(
            weights, n_bins, seed, probe_stream, self.w_max
        )
        bound = fixed_weighted_threshold(weights, n_bins, w_max)
        return _WeightedEngineSession(
            self,
            n_bins,
            stream,
            weights,
            w_max,
            record_trace,
            np.full(weights.size, bound),
            max_probes,
        )


class _WeightedDChoiceSession(_CountTally, DChoiceSession):
    """Streaming weighted d-choice session finalising to the unified record.

    Shared by the weighted greedy[d] and weighted left[d] registry
    protocols: the engine-side behaviour is
    :class:`~repro.baselines.greedy.DChoiceSession` with weighted
    increments; only the finished record differs.
    """

    def __init__(
        self,
        protocol: _WeightedProtocolBase,
        n_bins: int,
        stream: ProbeStream,
        weights: np.ndarray,
        w_max: float,
        record_trace: bool,
        source,
        priorities: np.ndarray | None = None,
    ) -> None:
        super().__init__(
            protocol,
            int(weights.size),
            n_bins,
            stream,
            d=protocol.d,
            source=source,
            priorities=priorities,
            weights=weights,
            chunk_size=protocol.chunk_size,
            record_trace=record_trace,
        )
        self._start_tally(n_bins, w_max)


@register_protocol
class WeightedGreedyProtocol(_WeightedProtocolBase):
    """Registry protocol running :func:`run_weighted_greedy`'s rule."""

    name = "weighted-greedy"
    streaming = True

    def __init__(
        self,
        d: int = 2,
        tie_break: str = "random",
        weight_dist: str = "pareto",
        chunk_size: int | None = None,
        **dist_params: Any,
    ) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be at least 1, got {d}")
        if tie_break not in ("random", "first"):
            raise ConfigurationError(
                f"tie_break must be 'random' or 'first', got {tie_break!r}"
            )
        super().__init__(
            weight_dist=weight_dist, w_max=None, chunk_size=chunk_size, **dist_params
        )
        self.d = int(d)
        self.tie_break = tie_break

    def params(self) -> dict[str, Any]:
        params = super().params()
        params.pop("w_max", None)
        return {"d": self.d, "tie_break": self.tie_break, **params}

    def begin_weights(
        self,
        weights: np.ndarray,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> _WeightedDChoiceSession:
        weights, stream, w_max = _validate_weighted_run(
            weights, n_bins, seed, probe_stream, None
        )
        m, d = int(weights.size), self.d
        priorities = None
        if m and self.tie_break == "random":
            priorities = stream.derive_generator(seed).random(size=(m, d))
        return _WeightedDChoiceSession(
            self,
            n_bins,
            stream,
            weights,
            w_max,
            record_trace,
            source=lambda start, count: stream.take_matrix(count, d),
            priorities=priorities,
        )


@register_protocol
class WeightedLeftProtocol(_WeightedProtocolBase):
    """Registry protocol running :func:`run_weighted_left`'s rule.

    Mirrors :class:`~repro.baselines.left.LeftProtocol`'s replay contract:
    seeded runs sample each ball's in-group offsets up front (any group
    sizes); an explicit probe stream requires equal groups so uniform
    probes map onto uniform in-group choices.
    """

    name = "weighted-left"
    streaming = True

    def __init__(
        self,
        d: int = 2,
        weight_dist: str = "pareto",
        chunk_size: int | None = None,
        **dist_params: Any,
    ) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be at least 1, got {d}")
        super().__init__(
            weight_dist=weight_dist, w_max=None, chunk_size=chunk_size, **dist_params
        )
        self.d = int(d)

    def params(self) -> dict[str, Any]:
        params = super().params()
        params.pop("w_max", None)
        return {"d": self.d, **params}

    def begin_weights(
        self,
        weights: np.ndarray,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> _WeightedDChoiceSession:
        weights, stream, w_max = _validate_weighted_run(
            weights, n_bins, seed, probe_stream, None
        )
        source = left_source(
            n_bins, self.d, weights.size, stream, replay=probe_stream is not None
        )
        return _WeightedDChoiceSession(
            self, n_bins, stream, weights, w_max, record_trace, source
        )


class _WeightedMemorySession(_CountTally, _MemorySession):
    """Streaming weighted (d,k)-memory finalising to the unified record.

    The engine-side behaviour is
    :class:`~repro.baselines.memory._MemorySession` given the weights; only
    the finished record differs.
    """

    def __init__(self, protocol, n_bins, stream, weights, w_max, record_trace) -> None:
        super().__init__(
            protocol,
            int(weights.size),
            n_bins,
            stream,
            record_trace=record_trace,
            weights=weights,
            chunk_size=protocol.chunk_size,
        )
        self._start_tally(n_bins, w_max)


@register_protocol
class WeightedMemoryProtocol(_WeightedProtocolBase):
    """Registry protocol running :func:`run_weighted_memory`'s rule."""

    name = "weighted-memory"
    streaming = True

    def __init__(
        self,
        d: int = 1,
        k: int = 1,
        weight_dist: str = "pareto",
        chunk_size: int | None = None,
        **dist_params: Any,
    ) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be at least 1, got {d}")
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        super().__init__(
            weight_dist=weight_dist, w_max=None, chunk_size=chunk_size, **dist_params
        )
        self.d = int(d)
        self.k = int(k)

    def params(self) -> dict[str, Any]:
        params = super().params()
        params.pop("w_max", None)
        return {"d": self.d, "k": self.k, **params}

    def begin_weights(
        self,
        weights: np.ndarray,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> _WeightedMemorySession:
        weights, stream, w_max = _validate_weighted_run(
            weights, n_bins, seed, probe_stream, None
        )
        return _WeightedMemorySession(
            self, n_bins, stream, weights, w_max, record_trace
        )
