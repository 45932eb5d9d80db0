"""Round-restricted parallel greedy allocation (in the spirit of Adler et al.).

Adler, Chakrabarti, Mitzenmacher and Rasmussen introduced the parallel
balls-into-bins model cited in the paper's related work: each ball may contact
``d`` bins, communication proceeds in ``r`` synchronous rounds, and the
achievable maximum load is ``Θ((log n / log log n)^{1/r})`` — a different
trade-off from the sequential protocols studied in the paper.

The implementation follows the classical collision scheme:

* every unplaced ball picks ``d`` candidate bins uniformly at random;
* in each round, every bin looks at the requests it received and *commits*
  the requesters as long as its committed load stays below the round's
  threshold; remaining requesters stay unplaced;
* after ``rounds`` rounds, any still-unplaced balls fall back to a single
  uniformly random choice (so the protocol always terminates, as in the
  original paper's final "clean-up" round).

Within a round, each ball offers its candidates one position at a time (``d``
sub-phases): in sub-phase ``j``, every still-unplaced ball submits its
``j``-th candidate, and a bin accepts the submissions it receives in ball
order while its load stays below the round threshold.  The whole round is
committed by :func:`commit_round` in **one occurrence-rank pass**: since a
bin only ever rejects submissions once it is full (and stays full for the
rest of the round), the round's acceptances are exactly "each bin takes the
first ``threshold − load`` submissions it receives in (sub-phase, ball)
order, counting only balls not already placed in an earlier sub-phase".
One stable sort of all ``k·d`` flattened candidates (by bin, ties in
submission order) therefore fixes the per-bin queues once, and the
"withdrawn because placed earlier" condition is resolved by a short
vectorised fixpoint over that precomputed order — at most ``d`` linear
passes, no re-sorting and no per-sub-phase Python work.  The result is
bit-identical to running the ``d`` sub-phases one at a time, which the
test-suite certifies against a verbatim copy of the sub-phase loop.

The per-round thresholds follow a configurable *schedule*: ``"arithmetic"``
(the default, threshold ``ceil(m/n) + r`` in round ``r``) or ``"geometric"``
(threshold ``ceil(m/n)·2^r``), either of which is enough to observe the
qualitative round/load trade-off in the benchmarks.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.core.thresholds import ceil_div
from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.costs import CostModel
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = ["ParallelGreedyProtocol", "commit_round", "run_parallel_greedy"]

_SCHEDULES = ("arithmetic", "geometric")


def commit_round(
    loads: np.ndarray, candidates: np.ndarray, threshold: int
) -> np.ndarray:
    """Commit one parallel round; bit-identical to ``d`` sequential sub-phases.

    Parameters
    ----------
    loads:
        Per-bin loads at the start of the round; **modified in place**.
    candidates:
        ``(k, d)`` candidate matrix of the round's unplaced balls, row ``i``
        holding ball ``i``'s candidates in sub-phase order.
    threshold:
        The round's commit threshold; bin ``b`` accepts at most
        ``max(threshold - loads[b], 0)`` submissions this round.

    Returns
    -------
    numpy.ndarray
        Boolean mask over the ``k`` balls: which were placed this round.

    Notes
    -----
    Within a round the bins' acceptance rule collapses to "take the first
    ``cap_b = threshold − loads[b]`` submissions in (sub-phase, ball) order"
    — rejected submissions never consume capacity, and a rejecting bin is
    already full.  The only sequential coupling between sub-phases is that a
    ball placed in sub-phase ``j`` *withdraws* its later candidates.  The
    flattened submission order is sorted once (stable, by bin), and a
    vectorised fixpoint then resolves the withdrawals over that fixed order:
    start from "every ball submits all ``d`` candidates", compute per-bin
    occurrence ranks of the currently submitted elements with a segmented
    cumulative sum (no re-sort), accept ranks below capacity, cut each ball
    back to its first accepted sub-phase, and repeat until the first-accepted
    vector stops changing.  Sub-phase 0 is exact immediately and sub-phase
    ``j`` becomes exact one pass after sub-phases ``< j``, so the loop
    converges in at most ``d`` passes (each O(k·d), against the single
    O(k·d log(k·d)) sort).
    """
    k, d = candidates.shape
    if k == 0:
        return np.zeros(0, dtype=bool)
    n_bins = loads.size
    capacity = np.maximum(threshold - loads, 0)

    if d == 1:
        # One sub-phase: no withdrawals are possible, so acceptance is a
        # plain capacity-rank test — no fixpoint needed.
        requests = candidates[:, 0]
        order = np.argsort(requests, kind="stable")
        sorted_bins = requests[order]
        new_group = np.empty(k, dtype=bool)
        new_group[0] = True
        new_group[1:] = sorted_bins[1:] != sorted_bins[:-1]
        ranks_sorted = np.arange(k, dtype=np.int64) - (
            np.flatnonzero(new_group)[np.cumsum(new_group) - 1]
        )
        placed = np.empty(k, dtype=bool)
        placed[order] = ranks_sorted < capacity[sorted_bins]
        loads += np.bincount(requests[placed], minlength=n_bins)
        return placed

    # Flatten column-major so element e = j*k + i is ball i's sub-phase-j
    # submission: ascending e is exactly (sub-phase, ball) submission order.
    # int32 keys sort measurably faster and bin indices always fit.
    flat = candidates.T.ravel()
    order = np.argsort(flat.astype(np.int32, copy=False), kind="stable")
    sorted_bins = flat[order]
    new_group = np.empty(order.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_bins[1:] != sorted_bins[:-1]
    group_id = np.cumsum(new_group) - 1
    group_start = np.flatnonzero(new_group)
    capacity_sorted = capacity[sorted_bins]

    cols = np.repeat(np.arange(d, dtype=np.int64), k)
    first_accepted = np.full(k, d, dtype=np.int64)  # d = not placed
    accepted = np.zeros(order.size, dtype=bool)
    cols_sorted = cols[order]
    balls_sorted = order % k  # e = j*k + i  =>  ball index i

    for _ in range(d + 1):
        # A ball submits sub-phases up to and including its first accepted one.
        submitted_sorted = cols_sorted <= first_accepted[balls_sorted]
        running = np.cumsum(submitted_sorted)
        before_group = (running[group_start] - submitted_sorted[group_start])[
            group_id
        ]
        ranks = running - submitted_sorted - before_group
        accepted_sorted = submitted_sorted & (ranks < capacity_sorted)
        accepted[order] = accepted_sorted
        # Element e = j*k + i, so reshaping to (d, k) puts sub-phases on axis
        # 0 and argmax finds each ball's first accepted sub-phase.
        by_col = accepted.reshape(d, k)
        updated = np.where(by_col.any(axis=0), by_col.argmax(axis=0), d)
        if np.array_equal(updated, first_accepted):
            break
        first_accepted = updated
    else:  # pragma: no cover - the induction argument above forbids this
        raise ProtocolError("parallel round commit failed to converge")

    # At the fixpoint each placed ball has exactly one accepted element (its
    # first accepted sub-phase); unplaced balls have none.
    loads += np.bincount(flat[accepted], minlength=n_bins)
    return first_accepted < d


@register_protocol
class ParallelGreedyProtocol(AllocationProtocol):
    """Parallel greedy allocation with a bounded number of rounds.

    Parameters
    ----------
    d:
        Number of candidate bins contacted per ball and per round.
    rounds:
        Number of synchronous rounds before the clean-up round.
    schedule:
        Per-round threshold schedule: ``"arithmetic"`` (default) uses
        ``ceil(m/n) + r`` in round ``r``, ``"geometric"`` uses
        ``ceil(m/n) · 2^r``.
    """

    name = "parallel-greedy"

    def __init__(
        self, d: int = 2, rounds: int = 3, schedule: str = "arithmetic"
    ) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be at least 1, got {d}")
        if rounds < 1:
            raise ConfigurationError(f"rounds must be at least 1, got {rounds}")
        if schedule not in _SCHEDULES:
            raise ConfigurationError(
                f"schedule must be one of {_SCHEDULES}, got {schedule!r}"
            )
        self.d = int(d)
        self.rounds = int(rounds)
        self.schedule = schedule

    def params(self) -> dict[str, Any]:
        return {"d": self.d, "rounds": self.rounds, "schedule": self.schedule}

    def round_threshold(self, average: int, round_index: int) -> int:
        """Commit threshold used in round ``round_index`` (0-based)."""
        if self.schedule == "arithmetic":
            return average + round_index
        return max(average, 1) * (1 << round_index)

    def allocate(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> AllocationResult:
        self.validate_size(n_balls, n_bins)
        self._refuse_trace(record_trace)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        if stream.n_bins != n_bins:
            raise ConfigurationError(
                "probe_stream.n_bins does not match the requested n_bins"
            )

        loads = np.zeros(n_bins, dtype=np.int64)
        placed = np.zeros(n_balls, dtype=bool)
        costs = CostModel()
        probes = 0
        average = ceil_div(n_balls, n_bins) if n_balls else 0

        for round_index in range(self.rounds):
            unplaced = np.flatnonzero(~placed)
            if unplaced.size == 0:
                break
            threshold = self.round_threshold(average, round_index)
            candidates = stream.take_matrix(unplaced.size, self.d)
            probes += unplaced.size * self.d
            costs.add_round(messages=int(unplaced.size * self.d))
            # All d sub-phases of the round commit in one occurrence-rank
            # pass (single stable sort + linear fixpoint; see commit_round).
            placed[unplaced[commit_round(loads, candidates, threshold)]] = True

        # Clean-up round: any leftover ball takes one uniform choice.
        leftovers = np.flatnonzero(~placed)
        if leftovers.size:
            extra = stream.take(leftovers.size)
            probes += leftovers.size
            costs.add_round(messages=int(leftovers.size))
            np.add.at(loads, extra, 1)
            placed[leftovers] = True

        costs.add_probes(probes)
        return AllocationResult(
            protocol=self.name,
            n_balls=n_balls,
            n_bins=n_bins,
            loads=loads,
            allocation_time=probes,
            costs=costs,
            params=self.params(),
        )


def run_parallel_greedy(
    n_balls: int,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    rounds: int = 3,
    schedule: str = "arithmetic",
) -> AllocationResult:
    """Functional one-liner for :class:`ParallelGreedyProtocol`."""
    return ParallelGreedyProtocol(d=d, rounds=rounds, schedule=schedule).allocate(
        n_balls, n_bins, seed
    )
