"""Chunked exact vectorised commit engine for the Table-1 baselines.

Every d-choice baseline — greedy[d], left[d], the fresh-choice phase of the
(d,k)-memory protocol, and both phases of the CRS-style rebalancing — reduces
to the same sequential primitive: ball ``i`` inspects the current loads of
its ``d`` candidate bins and commits to the first least-loaded one (possibly
with a randomised tie-break).  Each decision depends on every earlier
placement, so the seed implementations ran one Python loop iteration per
ball, which dominated the wall-clock of every Table-1 sweep.

The engine here removes the per-ball loop without changing a single
placement.  Balls are processed in sequential *chunks*; a chunk's candidate
rows are bulk-drawn in one :meth:`~repro.runtime.probes.ProbeStream.take_matrix`
call, and the chunk is committed in sub-phases under the conflict-free rule
of :func:`repro.core.window.conflict_free_rows`:

* a ball whose candidate bins do not occur in any *earlier uncommitted*
  ball's candidate row sees exactly the loads the sequential process would
  show it — every earlier ball of the chunk can only place into its own
  candidate bins (disjoint from this row), and every already-committed later
  ball was itself required to be disjoint from this row when it committed;
* conflict-free balls therefore commit together, and the remaining
  (conflicted) balls spill to the next sub-phase, re-evaluated against the
  updated loads.

Each sub-phase decides with one loop over the ``d`` candidate columns
(:func:`_first_least_loaded`): the per-ball rule of the scalar kernel,
vectorised over rows, so every row of the block gets its first least-loaded
bin from ``d`` 1-D gathers and compares.  The commit and the move sweep
share that selection and the conflict rule
(:func:`repro.core.window._conflict_free_rows_numpy`).  The spilled rows,
with their priorities and weights, are compacted through one index array
per sub-phase (``take`` along rows), and the same array tracks each row's
original position in the chunk.

The first uncommitted ball of a chunk is always conflict-free, so every
sub-phase makes progress and the sub-phase loop terminates.  The expected
spill fraction of a chunk of ``b`` balls is about ``b·d²/(2n)``; the default
chunk size of about ``n/d²`` (~50% spill, shrinking geometrically across
sub-phases) is the measured sweet spot between per-call NumPy overhead and
conflict-driven sub-phases.  Each sub-phase pays a fixed ~20 µs of NumPy
calls however few rows it holds, so once at most ``_TAIL_ROWS`` rows are
pending the chunk finishes them in ball order with the scalar kernel's
per-ball rule (:func:`repro.core.backend._commit_chunk_scalar`), whose cost
follows the rows.  Committing the pending rows in order is the sequential
process: every later row already committed was conflict-free, so it placed
into bins no pending row reads.  The result — final loads, per-ball
assignments and probe-stream consumption — is **bit-identical** to the
per-ball loops (kept verbatim in :mod:`repro.baselines.reference`), which
``tests/test_baseline_equivalence.py`` certifies under shared
:class:`~repro.runtime.probes.FixedProbeStream` replay.

The trial-axis commit (:func:`batched_argmin_commit`) stages every chunk
in place: one ball-major ``(chunk · trials, d)`` buffer, plus one for
priorities and one for weights when given, is allocated per call, and
trial ``t``'s rows are written straight into its strided view
``buffer[t::trials]`` with the trial's bin offset added on the way.  Its
per-trial chunk has a floor (:data:`_BATCHED_MIN_CHUNK`, capped by the
expected conflicts per row), because that staging is paid per trial per
chunk; placements do not depend on the chunk size.

The same machinery powers the ``greedy``/``left`` policies of the batched
:class:`~repro.scheduler.dispatcher.Dispatcher`, so streamed workloads ride
the identical hot path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.backend import _commit_chunk_scalar, active_backend
from repro.core.window import (
    _check_assignments,
    _check_covers,
    _check_weighted,
    _check_writeable,
    _conflict_free_rows_numpy,
)
from repro.errors import ConfigurationError

__all__ = [
    "default_chunk_size",
    "commit_chunk",
    "chunked_argmin_commit",
    "batched_argmin_commit",
    "chunked_move_sweep",
    "matrix_source",
]

#: Bounds on the automatic chunk size: small chunks drown in per-call NumPy
#: overhead, huge chunks conflict so often that sub-phases degenerate.
_MIN_CHUNK = 32
_MAX_CHUNK = 1 << 14

#: Pending rows a chunk finishes with the per-ball rule instead of another
#: conflict-free sub-phase (each of which costs ~20 µs of NumPy calls).
_TAIL_ROWS = 16

#: Floor on :func:`batched_argmin_commit`'s per-trial chunk.  Every chunk
#: pays, per trial, one draw, one range check and ``d`` staging copies,
#: which the default chunk (32 rows below 128 bins at d = 2) cannot
#: amortise.  The floor stops where a chunk's last row expects to share a
#: bin with ``_BATCHED_MAX_CONFLICTS`` earlier rows (``b·d²/n``): past that
#: the extra sub-phases cost more than the staging saves (d = 3 at 64
#: bins).  It binds only below 768 bins at d = 2 (1,728 at d = 3).
_BATCHED_MIN_CHUNK = 192
_BATCHED_MAX_CONFLICTS = 4


def default_chunk_size(n_bins: int, d: int) -> int:
    """Heuristic balls-per-chunk: about ``n/d²`` keeps spills amortised.

    With ``b = n/d²`` the expected spill fraction ``b·d²/(2n)`` is about
    50%, and the spilled tail shrinks geometrically across sub-phases —
    measured to be the throughput sweet spot between per-call NumPy overhead
    (favouring large chunks) and conflict-driven sub-phases (favouring small
    ones).
    """
    if n_bins <= 0 or d < 1:
        raise ConfigurationError("need positive n_bins and d >= 1")
    return int(min(max(_MIN_CHUNK, n_bins // (d * d)), _MAX_CHUNK))


def commit_chunk(
    loads: np.ndarray,
    rows: np.ndarray,
    priorities: np.ndarray | None = None,
    assignments: np.ndarray | None = None,
    base: int = 0,
    weights: np.ndarray | None = None,
) -> None:
    """Commit one chunk of balls, bit-identical to the per-ball argmin loop.

    Parameters
    ----------
    loads:
        Current load vector; modified in place.
    rows:
        ``(b, d)`` candidate matrix of the chunk, in sequential ball order.
    priorities:
        Optional ``(b, d)`` tie-break priorities: among least-loaded
        candidates the position with the smallest priority wins (greedy[d]'s
        random tie-break).  ``None`` selects the first least-loaded position
        (greedy "first", left[d]'s always-go-left, rebalancing's init phase).
    assignments:
        Optional output vector; ball ``i`` of the chunk writes its bin to
        ``assignments[base + i]``.
    weights:
        Optional ``(b,)`` per-ball weight vector (weighted greedy[d]):
        ``loads`` must then be float and each committed ball adds its own
        weight instead of 1.  Additions into a bin happen in ball order
        (conflict-free balls sharing a bin commit in sequence, and
        ``np.add.at`` applies element by element), so the float accumulation
        is bit-identical to the sequential loop's.

    The commit runs on the active kernel backend (see
    :mod:`repro.core.backend`); :func:`_commit_chunk_numpy` is the default
    conflict-free sub-phase engine described above: each sub-phase picks
    every row's target with the column loop of :func:`_first_least_loaded`
    and commits the conflict-free rows, and the chunk's last few pending
    rows commit per ball.
    """
    active_backend().commit_chunk(
        loads,
        rows,
        priorities=priorities,
        assignments=assignments,
        base=base,
        weights=weights,
    )


def _first_least_loaded(
    loads: np.ndarray, block: np.ndarray, priorities: np.ndarray | None = None
) -> np.ndarray:
    """Each row's first least-loaded candidate, column by column.

    The per-ball rule of :func:`~repro.core.backend._commit_chunk_scalar`
    vectorised over rows: column 0 is the best so far, and column ``j``
    replaces it when strictly less loaded — or, with ``priorities``, equally
    loaded with a strictly smaller priority.  That is the lexicographic
    minimum over (load, priority, position), so ties keep the earlier
    position.  The running best load and priority are only updated while a
    later column still reads them.
    """
    d = block.shape[1]
    targets = block[:, 0]
    best = loads[targets]
    best_p = None if priorities is None else priorities[:, 0]
    for j in range(1, d):
        cand = block[:, j]
        cand_loads = loads[cand]
        better = cand_loads < best
        if best_p is not None:
            p = priorities[:, j]
            better |= (cand_loads == best) & (p < best_p)
        targets = np.where(better, cand, targets)
        if j + 1 < d:
            best = np.minimum(best, cand_loads)
            if best_p is not None:
                best_p = np.where(better, p, best_p)
    return targets


def _add_counts(loads: np.ndarray, bins: np.ndarray) -> None:
    """Add one ball to ``loads`` per entry of ``bins``, in place.

    ``np.add.at`` costs O(len(bins)) and ``bincount`` O(n_bins); integer
    additions are exact, so both give the same loads.  The rule picks
    ``np.add.at`` well inside its measured lead, which on NumPy 2.4 lasts
    up to about ``len(bins) * 2 == n_bins``.
    """
    if bins.size * 16 < loads.size:
        np.add.at(loads, bins, 1)
    else:
        loads += np.bincount(bins, minlength=loads.size)


def _commit_chunk_numpy(
    loads: np.ndarray,
    rows: np.ndarray,
    priorities: np.ndarray | None = None,
    assignments: np.ndarray | None = None,
    base: int = 0,
    weights: np.ndarray | None = None,
) -> None:
    """The conflict-free sub-phase commit engine (see :func:`commit_chunk`).

    Sub-phases run while more than :data:`_TAIL_ROWS` rows are pending; the
    spilled rows, their priorities and weights are compacted through one
    index array per sub-phase.  The last pending rows (at most
    ``_TAIL_ROWS``, in ball order) are finished by the scalar kernel's
    per-ball rule, which costs O(rows) where another sub-phase would pay
    the fixed cost of a dozen NumPy calls.
    """
    n_bins = loads.size
    block = rows
    pblock = priorities
    wblock = weights
    # Original in-chunk positions of `block`'s rows; None = identity (saves a
    # gather on the first sub-phase, which handles ~all of the chunk).
    indices: np.ndarray | None = None
    while block.shape[0] > _TAIL_ROWS:
        free = _conflict_free_rows_numpy(block, n_bins)
        # Every row of the block decides; only the conflict-free ones commit.
        targets = _first_least_loaded(loads, block, pblock)[free]
        if wblock is not None:
            np.add.at(loads, targets, wblock[free])
        else:
            _add_counts(loads, targets)
        if assignments is not None:
            ready = np.flatnonzero(free) if indices is None else indices[free]
            assignments[base + ready] = targets
        if targets.size == free.size:  # every row was conflict-free
            return
        spill = np.flatnonzero(~free)
        indices = spill if indices is None else indices.take(spill)
        block = block.take(spill, axis=0)
        if pblock is not None:
            pblock = pblock.take(spill, axis=0)
        if wblock is not None:
            wblock = wblock.take(spill)
    if block.shape[0]:
        chosen = _commit_chunk_scalar(loads, block, pblock, weights=wblock)
        if assignments is not None:
            ready = np.arange(len(chosen)) if indices is None else indices
            assignments[base + ready] = chosen


def matrix_source(choices: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """Adapt a precomputed ``(m, d)`` candidate matrix to a chunk source."""

    def draw(start: int, count: int) -> np.ndarray:
        return choices[start : start + count]

    return draw


def chunked_argmin_commit(
    loads: np.ndarray,
    source: Callable[[int, int], np.ndarray],
    n_balls: int,
    d: int,
    *,
    priorities: np.ndarray | None = None,
    chunk_size: int | None = None,
    assignments: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> None:
    """Place ``n_balls`` d-choice balls through the chunked commit engine.

    ``source(start, count)`` returns the ``(count, d)`` candidate rows of
    balls ``start … start+count-1`` — either a slice of a precomputed matrix
    (:func:`matrix_source`) or a fresh
    :meth:`~repro.runtime.probes.ProbeStream.take_matrix` draw, which keeps
    the probe-stream consumption order identical to a ball-by-ball loop.
    ``priorities`` (when given) must cover all ``n_balls`` rows; it is drawn
    up front from the auxiliary generator so vectorised and reference runs
    consume identical tie-break noise.  ``weights`` (when given) must cover
    all ``n_balls`` balls and switches the engine to weighted increments
    (see :func:`commit_chunk`).
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    _check_writeable(loads)
    if weights is not None:
        _check_weighted(loads)
    _check_covers("priorities", priorities, n_balls)
    _check_covers("weights", weights, n_balls)
    _check_assignments(assignments, n_balls)
    chunk = chunk_size or default_chunk_size(loads.size, d)
    done = 0
    while done < n_balls:
        count = min(chunk, n_balls - done)
        rows = source(done, count)
        commit_chunk(
            loads,
            rows,
            priorities=None if priorities is None else priorities[done : done + count],
            assignments=assignments,
            base=done,
            weights=None if weights is None else weights[done : done + count],
        )
        done += count


def batched_argmin_commit(
    loads: np.ndarray,
    sources: "list[Callable[[int, int], np.ndarray]]",
    n_balls: int,
    d: int,
    *,
    priorities: "list[np.ndarray] | None" = None,
    chunk_size: int | None = None,
    weights: "list[np.ndarray] | None" = None,
) -> None:
    """Place ``n_balls`` d-choice balls for every trial of a batch at once.

    The trial-axis counterpart of :func:`chunked_argmin_commit`, built on the
    *combined-instance* embedding: trial ``t``'s candidate bins are offset by
    ``t * n_bins`` into one flat ``(trials * n_bins)``-bin load vector, and
    each chunk's per-trial candidate rows are interleaved **ball-major**
    (ball 0 of every trial, then ball 1, …) into a single ``(count * trials,
    d)`` matrix, staged in place in a buffer allocated once per call and
    committed by the ordinary NumPy commit kernel — no second commit engine.
    Bins of different trials never collide, so the sequential semantics of
    the combined instance restricted to trial ``t``'s rows *is* trial
    ``t``'s sequential process: per-trial loads (and weighted float
    accumulation order) are bit-identical to single-trial runs, which the
    test-suite certifies.

    Parameters
    ----------
    loads:
        ``(trials, n_bins)`` load matrix, modified in place (float64 when
        ``weights`` is given, exactly as in the single-trial engine).
    sources:
        One chunk source per trial; ``sources[t](start, count)`` returns the
        ``(count, d)`` candidate rows of balls ``start … start+count-1`` of
        trial ``t`` (a per-trial ``take_matrix`` draw or matrix slice, so
        each trial's probe consumption order is unchanged).  A block of
        another shape, or with a bin outside ``[0, n_bins)``, raises
        :class:`~repro.errors.ConfigurationError` before its chunk commits.
    priorities / weights:
        Optional per-trial lists of the full ``(n_balls, d)`` tie-break /
        ``(n_balls,)`` weight arrays, drawn up front per trial exactly as
        the single-trial implementations draw them.
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    _check_writeable(loads)
    if loads.ndim != 2 or loads.size == 0:
        raise ConfigurationError("loads must be a non-empty 2-D (trials x bins) array")
    if not loads.flags.c_contiguous:
        raise ConfigurationError("loads must be C-contiguous")
    n_trials, n_bins = loads.shape
    if len(sources) != n_trials:
        raise ConfigurationError(
            f"got {len(sources)} chunk sources for {n_trials} trial rows"
        )
    priorities = _per_trial("priorities", priorities, n_trials, n_balls, (d,))
    weights = _per_trial("weights", weights, n_trials, n_balls, ())
    if weights is not None:
        _check_weighted(loads)
    flat_loads = loads.reshape(-1)
    chunk = chunk_size or max(
        default_chunk_size(n_bins, d),
        min(_BATCHED_MIN_CHUNK, _BATCHED_MAX_CONFLICTS * n_bins // (d * d)),
    )
    # Ball-major staging buffers, written in place chunk by chunk: trial t's
    # ball i is row i * n_trials + t, so trial t fills the strided view
    # buffer[t::n_trials].  Priorities and weights keep the per-trial
    # arrays' common dtype, so the commit compares and adds the same values.
    width = min(chunk, n_balls) * n_trials
    staged = np.empty((width, d), dtype=np.int64)
    staged_p = None
    if priorities is not None:
        staged_p = np.empty((width, d), dtype=np.result_type(*priorities))
    staged_w = None
    if weights is not None:
        staged_w = np.empty(width, dtype=np.result_type(*weights))
    done = 0
    while done < n_balls:
        count = min(chunk, n_balls - done)
        size = count * n_trials
        combined = staged[:size]
        # Column by column: a 2-D strided copy would run NumPy's inner loop
        # over the d entries of one row, once per row.
        for t, source in enumerate(sources):
            block = _checked_block(
                source(done, count), (count, d), n_bins, "a chunk source's block"
            )
            rows = combined[t::n_trials]
            for j in range(d):
                np.add(block[:, j], t * n_bins, out=rows[:, j])
        big_priorities = None
        if staged_p is not None:
            big_priorities = staged_p[:size]
            for t, p in enumerate(priorities):
                rows = big_priorities[t::n_trials]
                for j in range(d):
                    rows[:, j] = p[done : done + count, j]
        big_weights = None
        if staged_w is not None:
            big_weights = staged_w[:size]
            for t, w in enumerate(weights):
                big_weights[t::n_trials] = w[done : done + count]
        # The combined-instance embedding is itself a vectorisation strategy,
        # so it always runs the NumPy commit kernel directly (drivers route
        # non-batching backends to the per-trial engines instead).
        _commit_chunk_numpy(
            flat_loads, combined, priorities=big_priorities, weights=big_weights
        )
        done += count


def _per_trial(
    name: str, per_trial, n_trials: int, n_balls: int, row_shape: tuple
) -> "list[np.ndarray] | None":
    """Per-trial priorities or weights as arrays, checked against the batch.

    Each array must cover ``n_balls`` rows of ``row_shape``: staging writes
    them into strided views, which would broadcast a narrower row silently.
    """
    if per_trial is None:
        return None
    if len(per_trial) != n_trials:
        raise ConfigurationError(
            f"got {len(per_trial)} {name} for {n_trials} trial rows"
        )
    arrays = [np.asarray(values) for values in per_trial]
    for values in arrays:
        _check_covers(name, values, n_balls)
        if values.shape[1:] != row_shape:
            raise ConfigurationError(
                f"{name} rows have shape {values.shape[1:]}, expected {row_shape}"
            )
    return arrays


def _checked_block(block, shape: tuple, n_bins: int, what: str) -> np.ndarray:
    """An integer bin array of ``shape`` (``what`` names it), as int64.

    Checked before it is staged or swept: offset into the combined
    instance, a bin outside ``[0, n_bins)`` would land in another trial's
    bins, and a move sweep would alias or index past the loads.  One
    reduction checks the range: viewed as unsigned, a negative bin is larger
    than any valid one.
    """
    block = np.asarray(block)
    if block.shape != shape or block.dtype.kind not in "iu":
        raise ConfigurationError(
            f"{what} is a {block.dtype} array of shape {block.shape}; "
            f"expected {shape} integer bins"
        )
    block = block.astype(np.int64, copy=False)
    if block.size and block.view(np.uint64).max() >= n_bins:
        raise ConfigurationError(f"{what} holds a bin outside [0, {n_bins})")
    return block


def chunked_move_sweep(
    loads: np.ndarray,
    choices: np.ndarray,
    placement: np.ndarray,
    *,
    chunk_size: int | None = None,
) -> int:
    """One vectorised self-balancing sweep over all balls, in ball order.

    Ball ``i`` moves from ``placement[i]`` to its least-loaded candidate when
    that is at least two below its current bin's load — exactly the
    sequential rule of the CRS-style rebalancing phase.  The conflict-free
    chunk rule applies unchanged: a ball reads only its candidate bins (its
    current bin is one of them), and every earlier uncommitted ball writes
    only within its own candidate row, so conflict-free balls decide and move
    together.  Returns the number of moves; ``loads`` and ``placement`` are
    updated in place.  The sweep runs on the active kernel backend
    (:func:`_move_sweep_numpy` is the default).  ``choices`` must be a 2-D
    integer array over the bins of ``loads``, and a ``placement[i]`` outside
    ``choices[i]`` breaks the rule above; both are rejected before any
    change.
    """
    _check_writeable(loads)
    _check_writeable(placement, "placement")
    if not isinstance(choices, np.ndarray) or choices.ndim != 2:
        raise ConfigurationError("choices must be a 2-D (balls x choices) NumPy array")
    choices = _checked_block(choices, choices.shape, loads.size, "choices")
    n_balls = len(choices)
    _check_covers("placement", placement, n_balls)
    current = placement[:n_balls]
    # One column at a time: a broadcast row compare reads ~5x slower.
    inside = np.zeros(n_balls, dtype=bool)
    for j in range(choices.shape[1]):
        inside |= choices[:, j] == current
    if not inside.all():
        ball = int(np.argmin(inside))
        raise ConfigurationError(
            f"placement[{ball}] = {int(current[ball])} is not one of ball "
            f"{ball}'s candidate bins"
        )
    return active_backend().move_sweep(
        loads, choices, placement, chunk_size=chunk_size
    )


def _move_sweep_numpy(
    loads: np.ndarray,
    choices: np.ndarray,
    placement: np.ndarray,
    chunk_size: int | None = None,
) -> int:
    """The conflict-free chunked move sweep (see :func:`chunked_move_sweep`)."""
    n_balls, d = choices.shape
    chunk = chunk_size or default_chunk_size(loads.size, d)
    moved = 0
    for start in range(0, n_balls, chunk):
        rows = choices[start : start + chunk]
        pending = np.arange(rows.shape[0])
        while pending.size:
            block = rows[pending]
            free = _conflict_free_rows_numpy(block, loads.size)
            ready = pending[free]
            best = _first_least_loaded(loads, block)[free]
            best_load = loads[best]
            current = placement[start + ready]
            move = best_load + 2 <= loads[current]
            if move.any():
                loads -= np.bincount(current[move], minlength=loads.size)
                loads += np.bincount(best[move], minlength=loads.size)
                placement[start + ready[move]] = best[move]
                moved += int(move.sum())
            pending = pending[~free]
    return moved
