"""Exact vectorised simulation of constant-threshold probe windows.

Both protocols reduce to the following primitive: place ``b`` balls by
repeatedly drawing uniform bin probes and accepting a probe into bin ``j``
iff the *current* load of ``j`` is at most a fixed acceptance limit ``T``
(the limit is constant for a whole THRESHOLD run and for each ADAPTIVE
stage, see :mod:`repro.core.thresholds`).

The sequential process can be vectorised exactly thanks to the following
observation.  Let ``c_j = max(T + 1 − load_j, 0)`` be bin ``j``'s free
capacity at the start of the window.  Every accepted probe into ``j``
increases its load by one, and probes are only rejected by full bins, so a
probe into ``j`` is accepted **iff the number of earlier probes into ``j``
within the window is smaller than ``c_j``**.  A probe block thus accepts
``min(count_j, c_j)`` of its probes into each bin ``j`` whatever their order,
and a sort-free prefix-counting fixpoint finds the ``b``-th acceptance.  Only
per-ball assignments need ranks, and only for *contested* bins (some free
capacity, more probes in the block than that).  The result (final loads
*and* number of probes consumed) is bit-for-bit identical to the ball-by-ball
reference implementation fed with the same probe sequence, which the
test-suite verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backend import active_backend
from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.probes import BatchedProbeStream, ProbeStream

__all__ = [
    "WindowOutcome",
    "WindowAssignment",
    "occurrence_ranks",
    "conflict_free_rows",
    "fill_window",
    "fill_window_batch",
    "assign_window",
]


@dataclass(frozen=True)
class WindowOutcome:
    """Result of filling one constant-threshold window.

    Attributes
    ----------
    placed:
        Number of balls placed (always equals the requested count unless the
        window had insufficient total capacity, which is a caller bug).
    probes:
        Number of probes consumed, i.e. the allocation time of the window.
    """

    placed: int
    probes: int


@dataclass(frozen=True)
class WindowAssignment:
    """Result of :func:`assign_window`: who went where, in placement order.

    Attributes
    ----------
    assignments:
        Bin index of each placed ball, ordered by placement (equivalently, by
        the position of the accepting probe in the probe sequence).
    probes:
        Number of probes consumed.
    """

    assignments: np.ndarray
    probes: int


def occurrence_ranks(values: np.ndarray) -> np.ndarray:
    """Return, for each element, how many earlier elements are equal to it.

    ``occurrence_ranks([3, 5, 3, 3, 5]) == [0, 0, 1, 2, 1]``.

    This is the core of the window-filling trick; the computation runs on
    the active kernel backend (see :mod:`repro.core.backend`), with the
    default NumPy kernel in :func:`_occurrence_ranks_numpy`.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ConfigurationError("values must be a 1-D array")
    if values.size == 0:
        return np.empty(0, dtype=np.int64)
    return active_backend().occurrence_ranks(values)


def _bin_sort_keys(bins: np.ndarray, n_bins: int | None = None) -> np.ndarray:
    """Bin indices in ``[0, n_bins)`` as keys for a stable argsort.

    Below 65,536 bins the keys are uint16, which NumPy's stable argsort runs
    as a radix sort: the permutation is the same, several times faster than
    the merge sort int64 keys get.  ``n_bins`` defaults to
    ``bins.max() + 1``.  Callers narrow before sorting, so the wide indices
    can be freed while the sort runs.
    """
    if n_bins is None:
        n_bins = int(bins.max()) + 1 if bins.size else 0
    return bins.astype(np.uint16) if n_bins <= 65536 else bins


def _occurrence_ranks_numpy(values: np.ndarray) -> np.ndarray:
    """Occurrence ranks with a stable argsort: O(k log k), fully vectorised."""
    k = values.size
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    new_group = np.empty(k, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_vals[1:] != sorted_vals[:-1]
    group_start_positions = np.flatnonzero(new_group)
    group_ids = np.cumsum(new_group) - 1
    ranks_sorted = np.arange(k, dtype=np.int64) - group_start_positions[group_ids]
    ranks = np.empty(k, dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def conflict_free_rows(candidates: np.ndarray, n_bins: int | None = None) -> np.ndarray:
    """Mark the rows of a candidate matrix that no earlier row can disturb.

    ``candidates`` is a ``(k, d)`` matrix of bin indices: row ``i`` holds the
    candidate bins of the ``i``-th ball of a block, in sequential order.  A
    row is *conflict-free* when none of its values occurs in any **earlier**
    row; values repeated within a single row do not count as conflicts, and
    the first row is always conflict-free.

    This is the commit rule of the chunked baseline engine
    (:mod:`repro.baselines.engine`): a conflict-free ball sees exactly the
    bin loads the sequential process would show it, because every earlier
    ball of the block places into one of *its own* candidate bins — all
    disjoint from this row — and every later, already-committed ball was
    itself required to be disjoint from this row when it committed.

    The occurrence-rank idea of :func:`occurrence_ranks` specialises here to
    "does an element's value have an earlier holder?", which a single scatter
    answers in O(k·d + n) without a sort: assigning flat (row-major)
    positions to a per-bin table in *reversed* order leaves each bin holding
    its **first** position (later assignments overwrite, so reversing makes
    the earliest win).  Row ``i`` starts at flat position ``i·d``, so it is
    conflict-free iff, column by column, the first holder of its bin is not
    before ``i·d`` — a position inside the row itself is an in-row repeat.
    ``n_bins`` sizes the scatter table; it defaults to
    ``candidates.max() + 1``.  The fold runs on the active kernel backend
    (:func:`_conflict_free_rows_numpy` is the default; the commit engine and
    the move sweep of :mod:`repro.baselines.engine` call it directly).
    """
    candidates = np.asarray(candidates)
    if candidates.ndim != 2:
        raise ConfigurationError("candidates must be a 2-D (balls x choices) array")
    k, d = candidates.shape
    if k == 0 or d == 0:
        return np.ones(k, dtype=bool)
    return active_backend().conflict_free_rows(candidates, n_bins)


def _conflict_free_rows_numpy(
    candidates: np.ndarray, n_bins: int | None = None
) -> np.ndarray:
    """Conflict-free rows via the reversed first-holder scatter (see above)."""
    k, d = candidates.shape
    flat = candidates.ravel()
    size = int(flat.max()) + 1 if n_bins is None else int(n_bins)
    # No fill needed: only slots named by `flat` are read, all of them written.
    first_holder = np.empty(size, dtype=np.int64)
    first_holder[flat[::-1]] = np.arange(k * d - 1, -1, -1, dtype=np.int64)
    row_start = np.arange(0, k * d, d, dtype=np.int64)
    free = first_holder[candidates[:, 0]] >= row_start
    for j in range(1, d):
        free &= first_holder[candidates[:, j]] >= row_start
    return free


def _predicted_need(remaining, n_bins: int, unsaturated):
    """Probes a window is predicted to need to place ``remaining`` balls.

    The acceptance probability right now is exactly the fraction of
    unsaturated bins; it only declines as slots fill, so ``remaining /
    p_now`` slightly underestimates.
    """
    return remaining * (float(n_bins) / np.maximum(unsaturated, 1))


def _overshoot_size(need) -> int:
    """A pass size that (almost) always finishes a window needing ``need`` probes."""
    return int(float(need) * 1.35) + 64


def _check_writeable(array, name: str = "loads") -> None:
    """Reject an output that cannot be updated in place (a list would be copied).

    Every in-place engine entry point calls this before drawing a probe.
    """
    if not isinstance(array, np.ndarray) or not array.flags.writeable:
        raise ConfigurationError(
            f"{name} must be a writeable NumPy array: it is updated in place"
        )


def _check_weighted(loads) -> None:
    """Reject loads that cannot hold weights: an integer vector truncates them.

    Every weighted in-place engine entry point calls this (after
    :func:`_check_writeable`) before drawing a probe.
    """
    if loads.dtype != np.float64:
        raise ConfigurationError(
            f"loads must be float64 to take ball weights, got {loads.dtype}"
        )


def _check_covers(name: str, values, n_balls: int) -> None:
    """Reject a per-ball input that stops short of the ``n_balls`` placed."""
    if values is not None and len(values) < n_balls:
        raise ConfigurationError(
            f"{name} covers {len(values)} balls but {n_balls} are placed"
        )


def _check_assignments(assignments, n_balls: int) -> None:
    """Reject an ``assignments`` output that cannot take every ball placed.

    Checked before the first probe is drawn, so a bad output never leaves
    balls placed with their bins lost.
    """
    if assignments is not None:
        _check_writeable(assignments, "assignments")
        _check_covers("assignments", assignments, n_balls)


def _run_window(
    loads: np.ndarray,
    acceptance_limit: int,
    n_balls: int,
    stream: ProbeStream,
    block_size: int | None,
    collect: bool,
) -> tuple[int, list[np.ndarray]]:
    """Shared engine behind :func:`fill_window` and :func:`assign_window`.

    Validates the window (the capacity check keeps every backend's loop
    terminating) and dispatches to the active kernel backend.  Returns
    ``(probes, accepted_chunks)`` where ``accepted_chunks`` holds the
    accepted bins of each pass in probe order (empty unless ``collect``).
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    _check_writeable(loads)
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigurationError("loads must be a non-empty 1-D array")
    if loads.size != stream.n_bins:
        raise ConfigurationError(
            f"loads has {loads.size} bins but the probe stream samples from "
            f"{stream.n_bins}"
        )
    if n_balls == 0:
        return 0, []

    # Every bin at or below the limit has a free slot, so their count is a
    # lower bound on the window's capacity; the exact capacity
    # sum(max(cap - load, 0)) == n_bins * cap - sum(min(load, cap)) is only
    # summed when that bound falls short.
    if np.count_nonzero(loads <= acceptance_limit) < n_balls:
        cap = acceptance_limit + 1
        total_capacity = int(loads.size * cap - np.minimum(loads, cap).sum())
        if total_capacity < n_balls:
            raise ProtocolError(
                f"window capacity {total_capacity} is smaller than the {n_balls} "
                "balls to place; the protocol cannot terminate"
            )
    return active_backend().run_window(
        loads, acceptance_limit, n_balls, stream, block_size, collect
    )


def _run_window_numpy(
    loads: np.ndarray,
    acceptance_limit: int,
    n_balls: int,
    stream: ProbeStream,
    block_size: int | None,
    collect: bool,
) -> tuple[int, list[np.ndarray]]:
    """The sort-free counting window engine (validated input).

    Each pass is sized to (almost) always finish the window unless
    ``block_size`` pins it; the unread tail goes back to the stream.
    """
    n_bins = loads.size
    # Pass memory stays bounded however many balls the window places.
    max_pass = max(4 * n_bins, _BATCH_ELEMENT_BUDGET)
    free = np.maximum(acceptance_limit + 1 - loads, 0)
    remaining = n_balls
    probes = 0
    chunks: list[np.ndarray] = []
    while remaining:
        need = _predicted_need(remaining, n_bins, np.count_nonzero(free))
        size = min(_overshoot_size(need), max_pass) if block_size is None else block_size
        if stream.available is not None:
            # Finite replay streams: never request more than they can serve
            # (requesting at least one keeps the exhaustion error meaningful).
            size = max(1, min(size, stream.available))
        block = stream.take(size)
        if collect:
            room = free[block]
            accepted = np.bincount(block, minlength=n_bins)[block] <= room
            # Only probes into contested bins (some free capacity, more
            # probes in the block than that) need an occurrence rank.
            contested = np.flatnonzero(~accepted & (room > 0))
            if contested.size:
                ranks = _occurrence_ranks_numpy(_bin_sort_keys(block[contested], n_bins))
                accepted[contested] = ranks < room[contested]
            # The sequential process stops reading at the remaining-th
            # acceptance (or reads the whole block if it has fewer).
            hits = np.flatnonzero(accepted)[:remaining]
            taken = int(hits[-1]) + 1 if hits.size == remaining else size
            accepted_bins = block[hits]
            chunks.append(accepted_bins)
            placed = np.bincount(accepted_bins, minlength=n_bins)
            remaining -= accepted_bins.size
        else:
            taken, counts = _exact_cutoff(
                block, free, remaining, size, hint=int(need * 1.1) + 8
            )
            placed = np.minimum(counts, free)
            # Past the block, the fixpoint exceeds it by the balls still to
            # place (it counts the block's rejections on top of the goal).
            remaining = max(taken - size, 0)
            taken = min(taken, size)
        if taken < size:
            stream.give_back(block[taken:])
        probes += taken
        loads += placed
        free -= placed
    return probes, chunks


def fill_window(
    loads: np.ndarray,
    acceptance_limit: int,
    n_balls: int,
    stream: ProbeStream,
    *,
    block_size: int | None = None,
) -> WindowOutcome:
    """Place ``n_balls`` balls under a constant acceptance limit.

    Pure counting: no probe is ranked (see the module docstring).

    Parameters
    ----------
    loads:
        Current load vector; **modified in place**.
    acceptance_limit:
        A probe into bin ``j`` is accepted iff ``loads[j] <= acceptance_limit``
        at the moment of the probe.
    n_balls:
        Number of balls to place in this window.
    stream:
        Probe stream to consume; its ``consumed`` counter is left exactly at
        the number of probes the sequential process would have used.
    block_size:
        Number of probes drawn per vectorised pass (default: sized from the
        window's acceptance rate to finish it in one pass).

    Returns
    -------
    WindowOutcome

    Raises
    ------
    ConfigurationError
        If ``loads`` is not a writeable 1-D array over the stream's bins.
    ProtocolError
        If the window's total remaining capacity is smaller than ``n_balls``
        (the protocol could never terminate) .
    """
    probes, _ = _run_window(
        loads, acceptance_limit, n_balls, stream, block_size, collect=False
    )
    return WindowOutcome(placed=n_balls, probes=probes)


#: Cap on the probes of one window pass (~32 MB of int64), so a pass's
#: transient block stays bounded however many balls the window places.  A
#: pass may also take up to four load vectors' worth.  Single-choice runs
#: draw in passes of the same cap.
_BATCH_ELEMENT_BUDGET = 1 << 22


def _exact_cutoff(
    vals: np.ndarray, free_row: np.ndarray, goal: int, size: int, hint: int = 0
) -> tuple[int, np.ndarray]:
    """Exact probe count of a window-finishing block, sort-free.

    Finds the least prefix of ``vals`` holding exactly ``goal`` acceptances
    against per-bin ``free_row`` capacities via the prefix-counting fixpoint

        p  <-  goal + rejections(first p probes),

    where ``rejections(p) = sum_j max(count_j(p) - free_j, 0)`` needs only a
    prefix bincount.  Every step discovers all rejections inside the current
    prefix, so from below ``p`` grows monotonically to the least fixpoint —
    the probe count the sequential process consumes — and from above it
    contracts monotonically into the fixpoint interval (the least fixpoint
    plus the run of rejected probes trailing it, every point of which is
    also a fixpoint).  Any starting point is therefore exact; ``hint`` (an
    acceptance-rate prediction of the cutoff) starts the iteration near the
    answer.  Convergence is geometric with the local rejection density as
    ratio, so whenever two upward steps contract, the remaining series is
    added in one extrapolation jump; landing inside the trailing rejected
    run is corrected exactly by the final backward walk.

    Returns ``(taken, prefix_counts)``.  ``taken > size`` means the window
    does not finish inside the block: it consumes the block whole, and
    ``prefix_counts`` are then the full-block counts (``size - (taken -
    goal)`` of which are accepted).
    """
    taken = max(goal, min(hint, size))
    prefix_counts = np.bincount(vals[:taken], minlength=free_row.size)
    prev_delta = 0
    while True:
        # rejections(taken) = sum(counts) - sum(min(counts, free)), and
        # sum(counts) is just the (clipped) prefix length — one elementwise
        # pass instead of two.
        acc = int(np.minimum(prefix_counts, free_row).sum())
        grown = goal + min(taken, size) - acc
        if grown == taken:
            break
        delta = grown - taken
        if prev_delta > delta > 0:
            # Geometric extrapolation: deltas contract by ~delta/prev_delta
            # per step; add the whole remaining series at once (capped at
            # the block — beyond it the counts saturate anyway).
            grown = min(grown + delta * delta // (prev_delta - delta) + 1, size)
        prev_delta = delta
        # Adjust the counts by the prefix delta only (slices clip at the
        # block end, which is exactly the saturation the non-finishing
        # detection below relies on).  A downward step only happens after
        # an extrapolation overshoot past the fixpoint interval.
        if grown > taken:
            prefix_counts += np.bincount(vals[taken:grown], minlength=free_row.size)
        else:
            prefix_counts -= np.bincount(vals[grown:taken], minlength=free_row.size)
        taken = grown
    if taken <= size:
        # Walk back over the trailing run of rejected probes (if any): the
        # sequential process stops at its goal-th acceptance, so the exact
        # cutoff position must itself be an acceptance.
        while taken > 0:
            v = vals[taken - 1]
            if prefix_counts[v] <= free_row[v]:
                break
            prefix_counts[v] -= 1
            taken -= 1
    return taken, prefix_counts


def fill_window_batch(
    loads: np.ndarray,
    acceptance_limit: int,
    n_balls: int,
    batch: BatchedProbeStream,
    *,
    block_size: int | None = None,
) -> np.ndarray:
    """Fill the same constant-limit window for every trial of a batch.

    The multi-trial counterpart of :func:`fill_window`: ``loads`` is a
    ``(trials, n_bins)`` matrix (modified in place), ``batch`` bundles one
    probe stream per trial, and row ``t`` places ``n_balls`` balls under
    ``acceptance_limit`` through the active backend's ``run_window`` on
    ``batch.children[t]`` — the counting engine every single-run window
    uses — so each row's loads and probe count are bit-identical to
    :func:`fill_window` on that child.  The whole batch is validated before
    any trial draws a probe: a short row (window capacity below
    ``n_balls``) raises :class:`~repro.errors.ProtocolError` with every
    child untouched.

    Returns the per-trial probe counts as an int64 array of length ``trials``.
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    _check_writeable(loads)
    if loads.ndim != 2 or loads.size == 0:
        raise ConfigurationError("loads must be a non-empty 2-D (trials x bins) array")
    n_trials, n_bins = loads.shape
    if n_trials != batch.trials:
        raise ConfigurationError(
            f"loads has {n_trials} trial rows but the batch holds {batch.trials} streams"
        )
    if n_bins != batch.n_bins:
        raise ConfigurationError(
            f"loads has {n_bins} bins but the probe streams sample from {batch.n_bins}"
        )
    probes = np.zeros(n_trials, dtype=np.int64)
    if n_balls == 0:
        return probes

    # The capacity sum of :func:`_run_window`, per row.
    cap = acceptance_limit + 1
    capacities = n_bins * cap - np.minimum(loads, cap).sum(axis=1)
    short = np.flatnonzero(capacities < n_balls)
    if short.size:
        raise ProtocolError(
            f"window capacity of trial {int(short[0])} is smaller than the "
            f"{n_balls} balls to place; the protocol cannot terminate"
        )
    run_window = active_backend().run_window
    for t, child in enumerate(batch.children):
        probes[t], _ = run_window(
            loads[t], acceptance_limit, n_balls, child, block_size, False
        )
    return probes


def assign_window(
    loads: np.ndarray,
    acceptance_limit: int,
    n_balls: int,
    stream: ProbeStream,
    *,
    block_size: int | None = None,
) -> WindowAssignment:
    """Like :func:`fill_window`, but also report which bin took each ball.

    This is the "probe until accepted" primitive the batched dispatcher is
    built on: the ``k``-th entry of the returned ``assignments`` is the bin
    that accepted ball ``k`` of the window, exactly as in the sequential
    process (same probes consumed, same loads, same acceptance order).
    ``loads`` is modified in place, as in :func:`fill_window`.  Only the
    probes into contested bins are ranked (see the module docstring).
    """
    probes, chunks = _run_window(
        loads, acceptance_limit, n_balls, stream, block_size, collect=True
    )
    if len(chunks) == 1:
        assignments = chunks[0]
    elif chunks:
        assignments = np.concatenate(chunks)
    else:
        assignments = np.empty(0, dtype=np.int64)
    return WindowAssignment(assignments=assignments, probes=probes)
