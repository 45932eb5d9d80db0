"""Chunked provisional-simulation engine for the (d,k)-memory hand-off.

The (d,k)-memory protocol (Mitzenmacher–Prabhakar–Shah; Table 1, row 3) is
the last Table-1 baseline whose hot path was a per-ball Python loop: every
ball inherits the ``k`` least loaded bins remembered from the previous ball,
so each decision depends on the full candidate set of its predecessor.  The
engine here removes that loop for the common configurations without changing
a single placement, following the provisional-exact-simulation recipe of
:mod:`repro.core.weighted_engine` — guess the slowly-evolving part of the
state, verify every consequence of the guess in one vectorised pass, and
flip mispredictions to a fixpoint:

* ``k == 0`` — the remembered set is empty, so the protocol *is* greedy[d]
  with first-minimum ties; balls run straight through the conflict-free
  commit engine of :mod:`repro.baselines.engine`.
* ``d == 1, k == 1`` — the paper-relevant configuration (Table 1 uses
  (1,1)-memory).  The protocol state collapses to ``(m, v)`` — the
  remembered bin and its load — and a chunk is resolved by iterating:

  1. **Guess** a per-ball placement vector (initially: every ball places
     into its least-loaded fresh choice).
  2. Under the guess, reconstruct every ball's exact candidate loads with a
     segmented prefix count over the chunk's provisional commits (the
     integer analogue of the weighted engine's prefix-weight sums).
  3. Replay the ``(m, v)`` recurrence *exactly* for all balls at once: in
     drift space ``u_i = v_i - i`` the per-ball transition ``v' =
     min(amin + 1, v + [v < amin])`` collapses to a running minimum that a
     tie knocks one below — a closed form evaluated with one
     ``minimum.accumulate`` and a last-setter pass (see
     :func:`_resolve_chunk_d1`).
  4. Derive the implied placements; the prefix up to (and including) the
     first ball whose placement disagrees with the guess is *certified
     exact* by induction over ball order, so either the fixpoint is reached
     (the whole chunk is the sequential execution) or the certified prefix
     commits and the rest iterates.

  Balls whose single fresh draw *is* the remembered bin are modelled
  inside the vectorised transitions (they place into the shared bin and
  keep remembering it), flagged provisionally and verified like the
  placements.
* every other configuration — ``d > 1`` with ``k >= 1``, and ``k >= 2`` —
  honestly falls back to the chunked scalar hand-off
  (:func:`chunked_memory_hand_off`), the PR-4 hot path of bulk fresh draws
  feeding plain-int sequential commits.  Measured on the benchmark scale,
  the remembered *list* re-orders on most placements (heavy churn) and the
  ``d > 1`` candidate-deduplication semantics force per-ball spills, so a
  vectorised treatment of those regimes loses to the scalar loop
  (0.3-0.8x in every configuration tried); the scalar loop is the honest
  optimum there.

The result — final loads, per-ball assignments and probe-stream consumption
— is **bit-identical** to the per-ball reference
(:func:`repro.baselines.reference.reference_memory`) for every ``(d, k)``,
which ``tests/test_memory_engine.py`` certifies under shared
:class:`~repro.runtime.probes.FixedProbeStream` replay.

:func:`weighted_memory_hand_off` extends the scalar rule to weighted balls
(float loads, per-ball weight increments) for the ``weighted-memory``
protocol; its sequential float dependency cannot ride the tabulated scan
(the load band is continuous), so it stays on the chunk-drawn scalar path.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.engine import chunked_argmin_commit
from repro.core.backend import (  # noqa: F401  (re-exported scalar rules)
    active_backend,
    chunked_memory_hand_off,
    memory_hand_off,
    weighted_memory_hand_off,
)
from repro.core.window import _bin_sort_keys, _check_writeable
from repro.errors import ConfigurationError
from repro.runtime.probes import ProbeStream

__all__ = [
    "memory_hand_off",
    "chunked_memory_hand_off",
    "weighted_memory_hand_off",
    "chunked_weighted_memory_commit",
    "chunked_memory_commit",
    "default_memory_chunk_size",
]

#: Fixpoint iterations per k=1 chunk.  Each round certifies a strictly
#: longer exact prefix, so the cap only bounds how much of a chunk may
#: resolve vectorised before the certified prefix is committed and the
#: remainder re-enters as a fresh chunk; correctness never depends on it.
#: Rounds past the first touch only the (geometrically shrinking) suffix of
#: still-flickering balls, so a generous cap costs little.
_MAX_ROUNDS = 30


# --------------------------------------------------------------------- #
# The scalar-rule commit drivers (the literal rules themselves live in
# repro.core.backend, single-homed across every execution strategy)
# --------------------------------------------------------------------- #
def chunked_weighted_memory_commit(
    stream: ProbeStream,
    weighted_loads: np.ndarray,
    memory: list[int],
    weights: np.ndarray,
    d: int,
    k: int,
    assignments: np.ndarray | None = None,
    chunk_size: int | None = None,
) -> list[int]:
    """Place all ``weights`` under the weighted (d,k)-memory rule.

    ``weighted_loads`` (float64 per-bin total weight) is updated in place;
    the remembered set is returned.  The float loads make the rule's
    sequential dependency continuous-valued, so the commits run through the
    active backend's ``weighted_memory_fallback`` — the chunk-drawn scalar
    rule (:func:`weighted_memory_hand_off`).  Bulk fresh draws keep the probe consumption identical
    to a per-ball loop, and any split into calls is bit-identical because
    the sequential state (loads, remembered set) is exact at every boundary.
    """
    n_balls = int(weights.size)
    if d < 1:
        raise ConfigurationError(f"d must be at least 1, got {d}")
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    _check_writeable(weighted_loads, "weighted_loads")
    memory = [int(b) for b in memory]
    if not n_balls:
        return memory
    return active_backend().weighted_memory_fallback(
        stream,
        weighted_loads,
        memory,
        weights,
        d,
        k,
        assignments=assignments,
        chunk_size=chunk_size,
    )


# --------------------------------------------------------------------- #
# The provisional-simulation fast path (k == 1)
# --------------------------------------------------------------------- #
def default_memory_chunk_size(n_bins: int) -> int:
    """Heuristic balls-per-chunk for the (1,1)-memory fixpoint engine.

    Bigger chunks amortise the per-segment sorting and NumPy-call overhead
    but raise the in-chunk collision rate, which costs extra fixpoint
    rounds; a bit over half a bin's worth of balls per chunk measured best
    at the benchmark scale (1M balls / 10k bins), with the cap keeping the
    per-round working set cache-resident.
    """
    if n_bins <= 0:
        raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
    return int(min(max(1024, 5 * n_bins // 8), 1 << 14))


_EMPTY = np.empty(0, dtype=np.int64)


#: Width of the repair windows of :func:`_window_round`.  A perturbation of
#: the drift-space running minimum is absorbed within the load band (min
#: loads refresh every couple of balls) and a remembered-bin chain resyncs
#: at the next flip, so this horizon is generous; windows that fail to
#: rejoin the stored state simply fall back to a dense round.
_WIN = 64


def _window_round(
    flat: np.ndarray,
    drift: np.ndarray,
    before: np.ndarray,
    tie: np.ndarray,
    flip: np.ndarray,
    lastflip: np.ndarray,
    m_arr: np.ndarray,
    t_prov: np.ndarray,
    spec_prov: np.ndarray,
    heads: np.ndarray,
    mem: int,
    b: int,
    has_spec: bool,
    spec_inf,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Replay fixed-width repair windows instead of a whole dense round.

    Late fixpoint rounds correct a handful of scattered cells; their effect
    on the drift-space running minimum is absorbed within the load band and
    the remembered-bin chain resyncs at the next flip, so replaying a
    :data:`_WIN`-wide window from each correction (batched across windows,
    every scan an ``axis=1`` accumulate) reproduces the dense round exactly
    *provided* each window rejoins the stored state at its end.  That
    rejoining — same drift-space value, same last-flip index, same
    shared-bin flags — is checked explicitly; any mismatch returns ``None``
    and the caller runs the dense round instead, so the windows are purely
    an execution strategy.

    On success the stored per-ball state is updated in place and the
    (ascending) positions whose placements changed are returned with their
    previous bins, ready for the shared placement-delta fold.
    """
    idx = heads[:, None] + np.arange(_WIN, dtype=np.int64)
    valid = idx < b
    idxc = np.minimum(idx, b - 1)
    dwin = drift[idxc]
    if has_spec:
        mask_spec = spec_prov[idxc] & valid
        if mask_spec.any():
            dwin = np.where(mask_spec, spec_inf, dwin)
    if not valid.all():
        dwin = np.where(valid, dwin, spec_inf)  # identity padding
    seeds = (before[heads] - tie[heads]).astype(dwin.dtype, copy=False)
    acc = np.minimum.accumulate(dwin, axis=1)
    bwin = np.empty_like(dwin)
    bwin[:, 0] = seeds
    np.minimum(acc[:, :-1], seeds[:, None], out=bwin[:, 1:])
    bd = bwin - dwin
    set_one = bd == 0
    set_any = (bd >= 2) | set_one
    wcols = np.arange(_WIN, dtype=np.int64)
    setter = np.where(set_any, wcols, -1)
    last = np.empty_like(setter)
    last[:, 0] = -1
    np.maximum.accumulate(setter[:, :-1], axis=1, out=last[:, 1:])
    tiew = np.take_along_axis(set_one, np.maximum(last, 0), 1) & (last >= 0)
    vdiff = bd - tiew
    freshw = vdiff >= 0
    flw = (vdiff >= -1) & (vdiff != 0)
    if has_spec:
        flw |= mask_spec
    fm = np.where(flw, idx, -1)
    fincl = np.maximum.accumulate(fm, axis=1)
    lf = np.empty_like(fm)
    lf[:, 0] = lastflip[heads]
    np.maximum(fincl[:, :-1], lf[:, :1], out=lf[:, 1:])
    m_win = np.where(lf >= 0, flat[np.maximum(lf, 0)], mem)
    t_win = np.where(freshw, flat[idxc], m_win)
    # The shared-bin flags feed the anchor offsets of the placement delta,
    # so windows that change them defer to the dense round.
    if (((flat[idxc] == m_win) & valid) != (spec_prov[idxc] & valid)).any():
        return None
    ends = heads + _WIN
    inner = ends < b
    if inner.any():
        # Trajectory rejoin: drift-space value at the first ball after the
        # window must match the stored one ...
        ls = np.maximum(last[:, -1], setter[:, -1])
        end_tie = (
            np.take_along_axis(set_one, np.maximum(ls, 0)[:, None], 1)[:, 0]
            & (ls >= 0)
        )
        u_new = np.minimum(acc[:, -1], seeds) - end_tie
        qi = ends[inner]
        if (u_new[inner] != before[qi] - tie[qi]).any():
            return None
        # ... and so must the remembered-bin chain (last flip index).
        lf_end = np.maximum(lf[:, -1], fm[:, -1])
        if (lf_end[inner] != lastflip[qi]).any():
            return None
    # Every window rejoins: the splice is exactly the dense round's result.
    gidx = idx[valid]  # ascending: windows are sorted and disjoint
    old_bins = t_prov[gidx]
    before[gidx] = bwin[valid]
    tie[gidx] = tiew[valid]
    flip[gidx] = flw[valid]
    lastflip[gidx] = lf[valid]
    m_arr[gidx] = m_win[valid]
    t_new = t_win[valid]
    ch = t_new != old_bins
    t_prov[gidx] = t_new
    return gidx[ch], old_bins[ch]


def _spaced_heads(positions: np.ndarray) -> np.ndarray | None:
    """Greedy :data:`_WIN`-spaced window heads covering ``positions``."""
    heads = []
    nxt = -1
    for p in positions.tolist():
        if p >= nxt:
            heads.append(p)
            nxt = p + _WIN
            if len(heads) > 48:
                return None
    return np.asarray(heads, dtype=np.int64)


def _resolve_chunk_d1(
    loads: np.ndarray,
    fresh: np.ndarray,
    mem: int,
    v: int,
    assignments: np.ndarray | None,
    base: int,
) -> tuple[int, int, int]:
    """Fixpoint resolution of a d=1, k=1 chunk — the paper-relevant config.

    Returns ``(committed, mem, v)``: the number of leading balls committed
    exactly (``loads`` and ``assignments`` updated in place) and the
    remembered state after them — the whole chunk at the fixpoint, or the
    certified prefix if the round cap strikes first (progress is always at
    least one ball, so the caller just re-enters).  The resolution never
    searches or tabulates:

    * the ``(m, v)`` recurrence is replayed in closed form: in drift space
      ``u_i = v_i - i`` the transition collapses to a running minimum that
      a tie knocks one below, so the scan is a ``minimum.accumulate`` plus
      a last-setter pass, and every decision derives from one
      ``before - drift`` array;
    * a fresh placement's insertion point in the ``(bin, ball)``-sorted
      cell order is its own cell's rank, and a memory placement's is its
      run anchor's rank offset by the shared-bin balls of the run — plain
      gathers, recorded so stale contributions are removed without search;
    * a correction wave whose touched cells all sit strictly above the
      running minimum (and flip no decision) cannot perturb the trajectory,
      so the round that would merely verify it is skipped — and a sparse
      non-benign wave is replayed in fixed-width repair windows
      (:func:`_window_round`) instead of a dense suffix round.
    """
    b = fresh.shape[0]
    n = loads.size
    flat = fresh[:, 0]
    # Stability makes the bin order exactly the (bin, ball) cell order.
    qorder = np.argsort(_bin_sort_keys(flat, n), kind="stable")
    sorted_bins = flat[qorder]
    if n <= 8 * b:
        group_end: np.ndarray | None = np.cumsum(np.bincount(flat, minlength=n))
    else:
        group_end = None

    cells = loads[flat]
    big = int(cells.max()) if b else 0
    if big + b >= np.iinfo(np.int32).max // 2 or v + b >= np.iinfo(np.int32).max // 2:
        dt = np.int64  # absurdly loaded bins: keep 64-bit arithmetic
    else:
        dt = np.int32
    cells = cells.astype(dt, copy=False)
    rows = np.arange(b, dtype=np.int64)
    rows_dt = rows.astype(dt, copy=False) if dt is np.int32 else rows

    # Warm start: fold the all-fresh guess into the cells via each draw's
    # occurrence rank, read straight off the sorted cell order.
    new_group = np.empty(b, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_bins[1:] != sorted_bins[:-1]
    ranks = rows - np.maximum.accumulate(np.where(new_group, rows, 0))
    cells[qorder] += ranks.astype(dt, copy=False)
    t_prov = flat.copy()
    # Sorted-order rank of each ball's cell and the position its current
    # placement contributes from (for removal without search).
    qrank = np.empty(b, dtype=np.int64)
    qrank[qorder] = rows
    lo_arr = qrank + 1
    skey = None  # lazily built keys for entry-memory placements
    speccum: np.ndarray | None = None  # cumulative shared-bin flags
    has_spec = False  # any shared-bin ball flagged in this chunk yet
    spec_inf = dt(np.iinfo(dt).max // 2)

    # Persistent full-length state; every round recomputes the suffix from
    # the first ball whose inputs changed (or just the repair windows).
    before = np.empty(b, dtype=dt)  # running min of drift, strictly before
    tie = np.zeros(b, dtype=bool)
    flip = np.empty(b, dtype=bool)
    m_arr = np.empty(b, dtype=np.int64)
    lastflip = np.full(b, -1, dtype=np.int64)
    spec_prov = np.zeros(b, dtype=bool)
    drift = cells - rows_dt
    exact_hi = 1
    s = 0
    win_heads: np.ndarray | None = None
    for _ in range(_MAX_ROUNDS):
        from_window = False
        if win_heads is not None:
            wres = _window_round(
                flat, drift, before, tie, flip, lastflip, m_arr, t_prov,
                spec_prov, win_heads, mem, b, has_spec, spec_inf,
            )
            win_heads = None
            if wres is not None:
                abs_changed, old_bins = wres
                spec_changed = _EMPTY
                from_window = True
        if not from_window:
            # --- dense round: closed-form replay of the suffix ---
            sl = slice(s, b)
            # The restart state is one number: u_s = R_s - tie_s.  A scan
            # seeded with it is self-consistent (its own running minimum
            # starts at u_s with a clear tie bit), so suffix restarts need
            # no other prefix context.
            entry_u = (v - s) if s == 0 else int(before[s]) - int(tie[s])
            dsl = drift[sl]
            if has_spec and spec_prov[sl].any():
                dsl = np.where(spec_prov[sl], spec_inf, dsl)
            acc = np.minimum.accumulate(dsl)
            before[s] = entry_u
            np.minimum(acc[:-1], dt(entry_u), out=before[s + 1 :])
            bd = before[sl] - dsl
            set_any = bd >= 2
            set_one = bd == 0
            np.logical_or(set_any, set_one, out=set_any)
            setter = np.where(set_any, rows[: b - s], -1)
            last = np.empty(b - s, dtype=np.int64)
            last[0] = -1
            np.maximum.accumulate(setter[:-1], out=last[1:])
            tie_sl = np.where(last >= 0, set_one[np.maximum(last, 0)], False)
            tie[sl] = tie_sl
            vdiff = bd - tie_sl  # == values - amin
            fresh_ball = vdiff >= 0
            # Flips: fresh placements strictly below the remembered load,
            # memory placements that tie it, and shared-bin balls; the new
            # remembered bin is the ball's fresh draw in every case.
            fl = (vdiff >= -1) & (vdiff != 0)
            if has_spec:
                fl |= spec_prov[sl]
            flip[sl] = fl
            incl = np.maximum.accumulate(np.where(fl, rows[sl], -1))
            if s + 1 < b:
                np.maximum(incl[:-1], lastflip[s], out=lastflip[s + 1 :])
            m_arr[sl] = flat[np.maximum(lastflip[sl], 0)]
            if lastflip[s] < 0:
                # Balls before the chunk's first flip still remember the
                # entry bin; this only reaches past ``s`` at the chunk head.
                head = np.flatnonzero(lastflip[sl] < 0)
                m_arr[s : s + head.size] = mem
            t_round = np.where(fresh_ball, flat[sl], m_arr[sl])

            changed = (t_round != t_prov[sl]).nonzero()[0]
            abs_changed = changed + s
            old_bins = t_prov[sl][changed] if changed.size else _EMPTY
            t_prov[sl] = t_round
            spec_round = flat[sl] == m_arr[sl]
            s_neq = spec_round != spec_prov[sl]
            spec_changed = s_neq.nonzero()[0] if s_neq.any() else _EMPTY
            if spec_changed.size:
                # The shared-bin flags feed the run-anchor offsets of the
                # placement delta below, so they must describe *this*
                # round's execution before the delta is applied.
                spec_prov[sl] = spec_round
                speccum = np.cumsum(spec_prov)
                has_spec = bool(speccum[-1])

        # --- shared tail: certified prefix, delta fold, wave triage ---
        # Balls before the first disagreement used correct loads and state,
        # and a disagreeing *placement* was itself decided from exact
        # inputs, so the exact prefix includes it; a wrong shared-bin flag
        # corrupts the ball's post-state, so that ball is excluded.
        exact_hi = int(abs_changed[0]) + 1 if abs_changed.size else b
        if spec_changed.size:
            exact_hi = min(exact_hi, int(spec_changed[0]) + s)
        converged = not abs_changed.size and not spec_changed.size
        if abs_changed.size:
            # Fold the changed placements into the cells: remove the stale
            # contributions at their recorded insertion points, add the new
            # ones at ranks derived from the run anchors.
            new_bins = t_prov[abs_changed]
            diff = np.zeros(b + 1, dtype=np.int64)
            np.add.at(diff, lo_arr[abs_changed], -1)
            ge_old = (
                group_end[old_bins]
                if group_end is not None
                else np.searchsorted(sorted_bins, old_bins, side="right")
            )
            np.add.at(diff, ge_old, 1)
            own = new_bins == flat[abs_changed]
            anchors = lastflip[abs_changed]
            anchor_idx = np.maximum(anchors, 0)
            anchor_lo = qrank[anchor_idx] + 1
            if speccum is not None:
                anchor_lo += speccum[abs_changed] - speccum[anchor_idx]
            lo_new = np.where(own, qrank[abs_changed] + 1, anchor_lo)
            no_anchor = ~own & (anchors < 0)
            if no_anchor.any():
                # Memory placements into the chunk-entry remembered bin
                # (before any flip): no anchor cell exists, so these few
                # fall back to a search.
                if skey is None:
                    skey = sorted_bins * np.int64(b) + qorder
                nz = np.flatnonzero(no_anchor)
                lo_new[nz] = np.searchsorted(
                    skey, new_bins[nz] * np.int64(b) + abs_changed[nz] + 1
                )
            np.add.at(diff, lo_new, 1)
            ge_new = (
                group_end[new_bins]
                if group_end is not None
                else np.searchsorted(sorted_bins, new_bins, side="right")
            )
            np.add.at(diff, ge_new, -1)
            lo_arr[abs_changed] = lo_new
            run = np.cumsum(diff[:-1])
            touched = run.nonzero()[0]
            balls_touched = qorder[touched]
            if balls_touched.size:
                delta = run[touched].astype(dt, copy=False)
                cells[balls_touched] += delta
                old_drift = drift[balls_touched]
                new_drift = old_drift + delta
                drift[balls_touched] = new_drift
                # Benign touches — cells that stay strictly above the
                # running minimum (old and new) cannot perturb the
                # trajectory, and if the ball's decision and flip flag do
                # not move either, the touch has no effect at all.  When
                # every touch is benign the verification round is skipped;
                # a sparse non-benign wave is replayed in repair windows,
                # and only a broad one costs a dense suffix round.
                bt = before[balls_touched]
                above = np.minimum(old_drift, new_drift) > bt
                vdt = bt - new_drift - tie[balls_touched]
                fresh_t = vdt >= 0
                fl_t = (vdt >= -1) & (vdt != 0)
                if has_spec:
                    fl_t |= spec_prov[balls_touched]
                stable = (
                    above
                    & (fresh_t == (t_prov[balls_touched] == flat[balls_touched]))
                    & (fl_t == flip[balls_touched])
                )
                if stable.all():
                    if not spec_changed.size:
                        converged = True
                    else:
                        s = int(spec_changed[0]) + s
                else:
                    unstable = np.sort(balls_touched[~stable])
                    next_s = int(unstable[0])
                    if spec_changed.size:
                        next_s = min(next_s, int(spec_changed[0]) + s)
                    elif unstable.size * 3 * _WIN < b - next_s:
                        win_heads = _spaced_heads(unstable)
                    s = next_s
            else:
                if spec_changed.size:
                    s = int(spec_changed[0]) + s
                else:
                    converged = True
        elif spec_changed.size:
            s = int(spec_changed[0]) + s
        if converged:
            _commit(loads, t_prov, b, assignments, base)
            # Exit state from the stored per-ball pairs: apply the last
            # ball's transition to u(b-1) and read off its flip.
            u_last = int(before[b - 1]) - int(tie[b - 1])
            if has_spec and spec_prov[b - 1]:
                u_end = u_last
            else:
                a_last = int(drift[b - 1])
                if u_last < a_last:
                    u_end = u_last
                elif u_last > a_last:
                    u_end = a_last
                else:
                    u_end = a_last - 1
            lf_end = b - 1 if flip[b - 1] else int(lastflip[b - 1])
            mem_exit = int(flat[lf_end]) if lf_end >= 0 else mem
            return b, mem_exit, u_end + b
    # Round cap: commit the certified prefix and let the caller re-enter
    # with refreshed base loads (progress is guaranteed, exact_hi >= 1).
    _commit(loads, t_prov, exact_hi, assignments, base)
    if exact_hi < b:
        v_at = int(before[exact_hi]) - int(tie[exact_hi]) + exact_hi
        return exact_hi, int(m_arr[exact_hi]), v_at
    return exact_hi, mem, v


def _commit(
    loads: np.ndarray,
    targets: np.ndarray,
    count: int,
    assignments: np.ndarray | None,
    base: int,
) -> None:
    """Fold the first ``count`` exact placements into the global state."""
    if not count:
        return
    block = targets[:count]
    if count * 16 >= loads.size:
        loads += np.bincount(block, minlength=loads.size)
    else:
        np.add.at(loads, block, 1)
    if assignments is not None:
        assignments[base : base + count] = block


def _scalar_one(
    loads: np.ndarray,
    row: np.ndarray,
    mem: list[int],
    k: int,
    assignments: np.ndarray | None,
    index: int,
) -> list[int]:
    """Resolve a single ball with the literal scalar rule."""
    out: list[int] = []
    mem = memory_hand_off(loads, [row.tolist()], mem, k, assignments=out)
    if assignments is not None:
        assignments[index] = out[0]
    return mem


def chunked_memory_commit(
    stream: ProbeStream,
    loads: np.ndarray,
    memory: list[int],
    n_balls: int,
    d: int,
    k: int,
    assignments: np.ndarray | None = None,
    chunk_size: int | None = None,
) -> list[int]:
    """Place ``n_balls`` (d,k)-memory balls through the provisional engine.

    Parameters
    ----------
    stream:
        Probe stream; consumes exactly ``n_balls * d`` probes in the same
        row-major order as a per-ball loop (one bulk
        :meth:`~repro.runtime.probes.ProbeStream.take_matrix` per chunk).
    loads:
        Per-bin int64 load vector, updated in place.
    memory:
        Remembered bins entering the run (``[]`` at a fresh start); the
        updated remembered set is returned, so callers can stream any split
        of the balls through repeated calls bit-identically.
    n_balls, d, k:
        Chunk of the protocol to execute.
    assignments:
        Optional int64 output vector of length ``n_balls``; ball ``i``
        writes its bin to ``assignments[i]``.
    chunk_size:
        Balls per engine chunk (default :func:`default_memory_chunk_size`);
        any value yields bit-identical results.

    The ``d == 1, k == 1`` fast path runs the fixpoint of
    :func:`_resolve_chunk_d1` (on the vectorised backend);
    ``k == 0`` delegates to the conflict-free d-choice engine; every other
    configuration (heavy remembered-set churn or ``d > 1`` candidate
    deduplication, where the scalar loop measures faster than any
    vectorised treatment tried) runs the active backend's
    ``memory_fallback`` — the chunk-drawn scalar hand-off.
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    if d < 1:
        raise ConfigurationError(f"d must be at least 1, got {d}")
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    _check_writeable(loads)
    memory = [int(b) for b in memory]
    if not n_balls:
        return memory

    if k == 0:
        chunked_argmin_commit(
            loads,
            lambda start, count: stream.take_matrix(count, d),
            n_balls,
            d,
            chunk_size=chunk_size,
            assignments=assignments,
        )
        return []

    backend = active_backend()
    if k >= 2 or d > 1 or not backend.vectorised:
        return backend.memory_fallback(
            stream,
            loads,
            memory,
            n_balls,
            d,
            k,
            assignments=assignments,
            chunk_size=chunk_size,
        )

    chunk = int(chunk_size) if chunk_size else default_memory_chunk_size(loads.size)
    placed = 0
    while placed < n_balls:
        count = min(chunk, n_balls - placed)
        fresh = stream.take_matrix(count, d)
        start = 0
        if not memory:
            # The very first ball has no remembered bin; seed the (m, v)
            # state with one literal step.
            memory = _scalar_one(loads, fresh[0], memory, 1, assignments, placed)
            start = 1
        mem = memory[0]
        v = int(loads[mem])
        while start < count:
            # Each attempt commits at least one exact ball (the round cap
            # commits the certified prefix), so this loop terminates.
            done, mem, v = _resolve_chunk_d1(
                loads, fresh[start:], mem, v, assignments, placed + start
            )
            start += done
        memory = [mem]
        placed += count
    return memory
