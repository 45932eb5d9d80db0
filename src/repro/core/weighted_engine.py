"""Chunked exact vectorised engine for weighted moving-threshold allocation.

The weighted ADAPTIVE rule (see :mod:`repro.core.weighted`) accepts ball
``i`` into bin ``j`` iff the bin's current *weight* is strictly below a
per-ball threshold ``T_i`` that moves with every ball (``W_i/n + w_max``).
Unlike the unit-weight protocols, whose acceptance limit is constant across a
whole stage (which is what :mod:`repro.core.window` exploits), here every
single placement shifts the threshold — which is why the seed implementation
ran one Python loop iteration per probe, the last per-ball hot loop in the
codebase.

The engine removes that loop without changing a single placement.  Balls are
processed in sequential *chunks*, and within a chunk the moving threshold is
bracketed by its chunk-start (conservative) and chunk-end (optimistic,
``T_hi``) values — thresholds are non-decreasing, so a bin at or above
``T_hi`` rejects every ball of the chunk.  Each chunk's probes are drawn in
one bulk :meth:`~repro.runtime.probes.ProbeStream.take` block and resolved
by *provisional exact simulation* (see :func:`_simulate_block`):

1. **Guess** — assume every probe not obviously rejected (bin already at
   ``T_hi``) is accepted.  That attributes each probe to a ball by
   cumulative count, which pins down both the exact weight every provisional
   acceptance adds and the exact threshold every probe is compared against.
2. **Verify** — a segmented prefix sum over the block's bin groups (the
   prefix-weight analogue of :func:`repro.core.window.occurrence_ranks`)
   yields each probe's load *at probe time* under the guess; comparing
   against the per-ball thresholds verifies or refutes every assumption in
   one vectorised pass.
3. **Iterate** — refuted probes flip to rejected and the simulation is
   re-verified; a fixpoint whose every status checks out *is* the sequential
   execution, by induction over probe order (a probe's outcome depends only
   on earlier probes).  Convergence is fast because a flip only perturbs the
   attribution of later probes by one ball (a threshold shift of
   ``w/n``).

Probes whose load lands within a tiny rounding margin of their threshold —
where the engine's partial-sum grouping could disagree with the sequential
accumulation by an ulp — are never decided vectorised: the block is
committed up to the first such probe, the tail handed back via
:meth:`~repro.runtime.probes.ProbeStream.give_back`, the single owning ball
resolved with the literal scalar rule, and the engine re-vectorises.
Committed per-bin additions are applied element-wise in ball order
(``np.add.at``), keeping every float accumulation bit-identical to the loop.
The result — loads, per-ball assignments and probe consumption — is
**bit-identical** to the ball-by-ball reference
(``tests/test_weighted_equivalence.py`` certifies this under shared
:class:`~repro.runtime.probes.FixedProbeStream` replay).

The default chunk size balances per-block NumPy overhead (favouring large
chunks) against guess quality — the further the threshold drifts within a
chunk, the more probes the optimistic first guess mispredicts (see
:func:`default_weighted_chunk_size`).  A *constant* threshold (the weighted
THRESHOLD protocol) makes the first guess near-perfect and the largest
chunks pay off.

Every probe loop in this module is guarded by ``max_probes``: a single ball
consuming more than the cap raises
:class:`~repro.errors.SimulationError` instead of spinning forever on a
probe source that never offers an acceptable bin.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.backend import active_backend
from repro.core.window import (
    _bin_sort_keys,
    _check_assignments,
    _check_weighted,
    _check_writeable,
)
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.probes import ProbeStream

__all__ = [
    "resolve_max_probes",
    "default_weighted_chunk_size",
    "adaptive_weighted_thresholds",
    "fixed_weighted_threshold",
    "sequential_weighted_place",
    "chunked_weighted_assign",
]

#: Relative margin around ``threshold - load`` inside which a probe is left
#: to the exact scalar rule.  The engine's segmented prefix sums accumulate
#: each bin's weights in the same order as the sequential process but with
#: different partial-sum grouping, so the two can disagree by a few ulps;
#: the margin (many orders of magnitude above that, many below any real
#: load gap) guarantees the vectorised classification never decides a
#: comparison the reference would decide the other way.
_PESSIMISM_SLACK = 1e-9

#: Bounds on the automatic chunk size (same rationale as the baseline
#: engine: tiny chunks drown in per-call overhead, huge chunks thrash on
#: fixpoint rounds as the in-chunk threshold drift mispredicts more probes).
_MIN_CHUNK = 64
_MAX_CHUNK = 1 << 13
#: Chunk size used when the threshold is constant across the whole run
#: (weighted THRESHOLD): the initial optimistic assumption is then almost
#: always right, so the largest chunk wins.
_CONSTANT_THRESHOLD_CHUNK = 1 << 13


def resolve_max_probes(max_probes: int | None, n_bins: int) -> int:
    """Return the per-ball probe cap, defaulting to a generous multiple of n.

    The weighted acceptance rules always leave at least one bin below the
    threshold, so a ball's probe count is geometric with success probability
    at least ``1/n``; ``100*n + 1000`` probes are exceeded with probability
    below ``e^-100`` per ball.  Hitting the cap therefore signals a probe
    source that cannot satisfy the rule (see
    :class:`~repro.errors.SimulationError`), not bad luck.
    """
    if max_probes is None:
        return 100 * n_bins + 1000
    if max_probes < 1:
        raise ConfigurationError(f"max_probes must be positive, got {max_probes}")
    return int(max_probes)


def default_weighted_chunk_size(n_bins: int, weights: np.ndarray) -> int:
    """Heuristic balls-per-chunk ``~8 * sqrt(n w_max / w_mean)``.

    A chunk of ``b`` balls moves the threshold by ``b*w_mean/n`` while the
    loads it probes are spread over a band of order ``w_max``, so the
    fraction of probes the optimistic first guess mispredicts — each
    mispredicted probe costs a fixpoint round or a scalar fallback — grows
    like ``b*w_mean/(n*w_max)``.  Scaling the chunk with
    ``sqrt(n*w_max/w_mean)`` keeps those rounds rare while amortising the
    per-block NumPy overhead; the constant was measured on the benchmark
    scale (1M balls / 10k bins).
    """
    if n_bins <= 0:
        raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
    w_max = float(weights.max())
    w_mean = float(weights.mean())
    if w_mean <= 0.0:
        raise ConfigurationError("weights must be positive")
    size = 8 * int(math.sqrt(n_bins * w_max / w_mean))
    return min(max(size, _MIN_CHUNK), _MAX_CHUNK)


def adaptive_weighted_thresholds(
    weights: np.ndarray, n_bins: int, w_max: float
) -> np.ndarray:
    """Per-ball thresholds ``W_i/n + w_max`` of the weighted ADAPTIVE rule.

    ``np.cumsum`` accumulates strictly left to right, so entry ``i`` is the
    bit-identical float a sequential ``placed += w`` loop would compute —
    the replay-equivalence contract between the chunked engine and the
    ball-by-ball reference depends on this.
    """
    weights = np.asarray(weights, dtype=np.float64)
    return np.cumsum(weights) / n_bins + w_max


def fixed_weighted_threshold(weights: np.ndarray, n_bins: int, w_max: float) -> float:
    """The constant threshold ``W/n + w_max`` of the weighted THRESHOLD rule.

    Shared by the engine and the reference so both compare against the exact
    same float.
    """
    weights = np.asarray(weights, dtype=np.float64)
    return float(weights.sum() / n_bins + w_max)


def sequential_weighted_place(
    loads: np.ndarray,
    threshold: float,
    stream: ProbeStream,
    max_probes: int,
) -> tuple[int, int]:
    """Place one ball with the literal scalar rule; return ``(bin, probes)``.

    This is the exact sequential primitive both the reference loop and the
    chunked engine's spill path execute: probe until a bin with load strictly
    below ``threshold`` turns up.  The caller adds the ball's weight (the
    rule itself does not need it).  Raises
    :class:`~repro.errors.SimulationError` once the ball has consumed
    ``max_probes`` probes without being accepted.
    """
    probes = 0
    while True:
        if probes >= max_probes:
            raise SimulationError(
                f"ball exceeded max_probes={max_probes} without finding a bin "
                f"below its threshold {threshold!r}; the probe source cannot "
                "satisfy the weighted acceptance rule"
            )
        j = stream.take_one()
        probes += 1
        if loads[j] < threshold:
            return j, probes


def _check_ball_budgets(
    accepted: np.ndarray, positions: np.ndarray, carry: int, max_probes: int
) -> int:
    """Enforce the per-ball probe cap over a determined block prefix.

    ``accepted`` is the boolean outcome of each determined probe,
    ``positions`` its acceptance indices, ``carry`` the number of probes the
    current front ball had already burned in earlier blocks.  Returns the
    trailing reject count (the new carry).  Raises
    :class:`~repro.errors.SimulationError` if any single ball consumed more
    than ``max_probes`` probes.

    The expensive per-ball gap scan only runs when the cap is reachable at
    all within this prefix — on healthy runs ``max_probes`` is orders of
    magnitude above any block size, so this is a single comparison.
    """
    if positions.size:
        trailing = int(accepted.size - positions[-1] - 1)
    else:
        trailing = carry + int(accepted.size)
    if carry + accepted.size > max_probes:
        if positions.size:
            # Probes consumed by the k-th placed ball: gap to the previous
            # acceptance (the first gap includes the carried-over rejects).
            first = int(positions[0]) + 1 + carry
            worst = max(first, int(np.diff(positions).max()) if positions.size > 1 else 0)
        else:
            worst = 0
        if worst > max_probes or trailing > max_probes:
            raise SimulationError(
                f"a ball exceeded max_probes={max_probes} without finding a "
                "bin below its threshold; the probe source cannot satisfy "
                "the weighted acceptance rule"
            )
    return trailing


def _commit_determined(
    loads: np.ndarray,
    bins: np.ndarray,
    positions: np.ndarray,
    weights: np.ndarray,
    ball_base: int,
    assignments: np.ndarray | None,
) -> None:
    """Fold the accepted probes of a determined prefix into ``loads``.

    The ``k``-th acceptance belongs to ball ``ball_base + k``.  ``np.add.at``
    applies the additions element by element in probe order, which is ball
    order — so each bin's float accumulation is bit-identical to the
    sequential loop's.
    """
    if not positions.size:
        return
    targets = bins[positions]
    batch = weights[ball_base : ball_base + positions.size]
    np.add.at(loads, targets, batch)
    if assignments is not None:
        assignments[ball_base : ball_base + positions.size] = targets


def chunked_weighted_assign(
    loads: np.ndarray,
    weights: np.ndarray,
    thresholds: np.ndarray,
    stream: ProbeStream,
    *,
    chunk_size: int | None = None,
    assignments: np.ndarray | None = None,
    max_probes: int | None = None,
) -> int:
    """Place all ``weights`` under per-ball ``thresholds``; return the probes.

    Parameters
    ----------
    loads:
        Current per-bin total weight (float64); **modified in place**.
    weights:
        Positive ball weights, in placement order.
    thresholds:
        Non-decreasing per-ball acceptance thresholds: ball ``i`` accepts a
        bin iff its current load is strictly below ``thresholds[i]`` (see
        :func:`adaptive_weighted_thresholds` / :func:`fixed_weighted_threshold`).
    stream:
        Probe stream to consume; its consumption is identical to the
        ball-by-ball process.
    chunk_size:
        Balls per chunk (default: :func:`default_weighted_chunk_size`, or a
        large constant when the threshold does not move).
    assignments:
        Optional int64 output vector; ball ``i`` writes its bin to
        ``assignments[i]``.
    max_probes:
        Per-ball probe cap (default via :func:`resolve_max_probes`).

    Returns
    -------
    int
        Number of probes consumed.
    """
    weights = np.asarray(weights, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if weights.ndim != 1 or thresholds.shape != weights.shape:
        raise ConfigurationError(
            "weights and thresholds must be 1-D arrays of equal length"
        )
    _check_writeable(loads)
    _check_weighted(loads)
    if loads.ndim != 1 or loads.size != stream.n_bins:
        raise ConfigurationError(
            "loads must be a 1-D vector matching the probe stream's n_bins"
        )
    m = weights.size
    _check_assignments(assignments, m)
    if m == 0:
        return 0
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    cap = resolve_max_probes(max_probes, loads.size)
    if chunk_size is not None:
        chunk = int(chunk_size)
    elif m <= _MIN_CHUNK:
        chunk = m  # every automatic size is at least _MIN_CHUNK: one chunk
    elif thresholds[0] == thresholds[-1]:
        chunk = _CONSTANT_THRESHOLD_CHUNK
    else:
        chunk = default_weighted_chunk_size(loads.size, weights)

    probes = 0
    start = 0
    while start < m:
        end = min(start + chunk, m)
        probes += _place_chunk(
            loads, weights, thresholds, start, end, stream, assignments, cap
        )
        start = end
    return probes


#: Fixpoint iterations per block.  Each round re-verifies the provisional
#: execution after flipping the probes it proved rejected; blocks almost
#: always converge in two or three rounds, and non-convergence degrades
#: gracefully into a shorter verified prefix.
_MAX_SIMULATE_ROUNDS = 10


def _simulate_block(
    block: np.ndarray,
    bin_loads: np.ndarray,
    weights: np.ndarray,
    thresholds: np.ndarray,
    ball_base: int,
    last_ball: int,
) -> tuple[np.ndarray, int]:
    """Provisional exact simulation of one probe block.

    Starting from the optimistic assumption that every probe not *obviously*
    rejected (bin already at or above the chunk-end threshold ``T_hi``) is
    accepted, the block's sequential execution is replayed in vectorised
    form: provisional acceptances attribute probes to balls by cumulative
    count, a per-bin segmented prefix sum yields each probe's exact load at
    probe time, and comparing against the exact per-ball threshold verifies
    (or refutes) every assumption at once.  Refuted probes are flipped to
    rejected and the simulation re-verified — a fixpoint whose every status
    checks out *is* the sequential execution, by induction over probe order
    (a probe's outcome depends only on earlier probes).

    Returns ``(accepted, verified_until)``: outcomes are exact for all
    probes before ``verified_until``.  Probes whose load sits within a tiny
    float-rounding margin of their threshold are left unverified (the exact
    scalar rule resolves them), which keeps the vectorised prefix sums —
    whose per-bin accumulation order matches the sequential process but
    whose partial-sum rounding may differ in the last ulp — from ever
    deciding a comparison the reference would decide the other way.
    """
    size = block.size
    # Per-block sort structure (independent of the iteration state): probes
    # grouped by bin, original order preserved within a group — one stable
    # argsort, a radix sort on uint16 keys below 65,536 bins.
    keys = _bin_sort_keys(block)
    order = np.argsort(keys, kind="stable")
    sorted_bins = keys[order]
    new_group = np.empty(size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_bins[1:] != sorted_bins[:-1]
    group_ids = np.cumsum(new_group) - 1
    group_starts = np.flatnonzero(new_group)
    sorted_loads = bin_loads[order]

    obviously_rejected = bin_loads >= thresholds[last_ball]
    forced = obviously_rejected
    for _ in range(_MAX_SIMULATE_ROUNDS):
        alive = ~forced
        # Ball owning each probe under the provisional execution: rejected
        # probes belong to the ball still probing, accepted probes are that
        # ball's accepting probe — both are "ball_base + accepts before".
        alive_scan = np.cumsum(alive)
        balls = ball_base + alive_scan - alive
        beyond = balls > last_ball  # past the chunk: never committed
        np.clip(balls, ball_base, last_ball, out=balls)
        # Exact load at probe time under the provisional execution: start
        # load plus the weights of earlier provisionally accepted same-bin
        # probes (segmented exclusive prefix sum over the bin groups).
        contribution = np.where(alive, weights[balls], 0.0)
        sorted_contribution = contribution[order]
        exclusive = np.cumsum(sorted_contribution) - sorted_contribution
        group_base = exclusive[group_starts][group_ids]
        loads_at_probe = np.empty(size, dtype=np.float64)
        loads_at_probe[order] = sorted_loads + (exclusive - group_base)
        ball_thresholds = thresholds[balls]
        diff = ball_thresholds - loads_at_probe
        margin = _PESSIMISM_SLACK * (ball_thresholds + loads_at_probe)
        should_reject = (diff < -margin) & ~beyond
        uncertain = (np.abs(diff) <= margin) & ~beyond & ~obviously_rejected
        new_forced = obviously_rejected | should_reject
        if np.array_equal(new_forced, forced):
            accepted = alive & (diff > margin)
            verified_until = int(np.argmax(uncertain)) if uncertain.any() else size
            return accepted, verified_until
        changed = new_forced != forced
        forced = new_forced
    # Did not converge: the last round's statuses were verified under the
    # previous assumption, and a probe's outcome depends only on earlier
    # probes — so everything before the first probe that still flipped (or
    # is uncertain) is exact.
    accepted = alive & (diff > margin)
    first_unstable = int(np.argmax(changed)) if changed.any() else size
    first_uncertain = int(np.argmax(uncertain)) if uncertain.any() else size
    return accepted, min(first_unstable, first_uncertain)


def _place_chunk(
    loads: np.ndarray,
    weights: np.ndarray,
    thresholds: np.ndarray,
    start: int,
    end: int,
    stream: ProbeStream,
    assignments: np.ndarray | None,
    max_probes: int,
) -> int:
    """Place balls ``start … end-1`` of one chunk; return probes consumed."""
    backend = active_backend()
    probes = 0
    i = start  # next unplaced ball
    carry = 0  # probes the front ball already burned in earlier blocks
    while i < end:
        remaining = end - i
        size = remaining + remaining // 4 + 16
        if stream.available is not None:
            size = max(1, min(size, stream.available))
        block = stream.take(size)
        bin_loads = loads[block]
        accepted, first_amb = backend.simulate_weighted_block(
            block, bin_loads, weights, thresholds, i, end - 1
        )

        determined = accepted[:first_amb]
        positions = np.flatnonzero(determined)
        n_det = positions.size

        if n_det >= remaining:
            # The chunk's last ball is placed inside the determined prefix
            # (at its remaining-th acceptance); probes after that closing
            # acceptance belong to later chunks.
            positions = positions[:remaining]
            taken = int(positions[-1]) + 1
            if taken < block.size:
                stream.give_back(block[taken:])
            _check_ball_budgets(determined[:taken], positions, carry, max_probes)
            _commit_determined(loads, block[:taken], positions, weights, i, assignments)
            probes += taken
            i = end
            break

        if first_amb < block.size:
            # Ambiguous probe: hand the tail back so the scalar resolution
            # below re-reads it, keeping the probe sequence intact.
            stream.give_back(block[first_amb:])
        carry = _check_ball_budgets(determined, positions, carry, max_probes)
        _commit_determined(loads, block[:first_amb], positions, weights, i, assignments)
        probes += first_amb
        i += n_det

        if first_amb < block.size and i < end:
            # The ball owning the ambiguous probe is exactly the next
            # unplaced one — resolve it with the literal sequential rule,
            # then re-vectorise.
            target, used = sequential_weighted_place(
                loads, float(thresholds[i]), stream, max_probes - carry
            )
            loads[target] += weights[i]
            if assignments is not None:
                assignments[i] = target
            probes += used
            i += 1
            carry = 0
    return probes
