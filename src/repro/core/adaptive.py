"""The ADAPTIVE protocol — the paper's main contribution (Figure 1).

Ball ``i`` samples bins uniformly at random until it finds one with load
strictly below ``i/n + 1`` and is placed there.  Because the threshold tracks
the number of balls placed so far, the protocol does not need to know ``m``
in advance, guarantees a maximum load of ``ceil(m/n) + 1`` deterministically,
uses ``O(m)`` probes in expectation (Theorem 3.1), and keeps the load vector
smooth at all times (Corollary 3.5: max−min gap ``O(log n)`` w.h.p.,
``E[Ψ] = O(n)``).

The implementation processes the run stage by stage (``n`` balls per stage,
during which the integer acceptance limit is constant, see
:mod:`repro.core.thresholds`) and fills each stage with the exact vectorised
window primitive of :mod:`repro.core.window`.
"""

from __future__ import annotations

from typing import Any

from repro.core.protocol import (
    AllocationProtocol,
    batch_streams,
    register_protocol,
)
from repro.core.result import AllocationResult
from repro.core.session import StagedWindowSession, run_staged_batch
from repro.core.thresholds import acceptance_limit, stage_windows
from repro.errors import ConfigurationError
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = ["AdaptiveProtocol", "run_adaptive"]


@register_protocol
class AdaptiveProtocol(AllocationProtocol):
    """ADAPTIVE allocation (Figure 1 of the paper).

    Parameters
    ----------
    offset:
        Additive constant of the acceptance threshold ``i/n + offset``.  The
        paper uses ``offset = 1``.  ``offset = 0`` reproduces the
        coupon-collector variant dismissed in Section 2 (allocation time
        ``Θ(m log n)``) and is exposed for the ablation benchmark; larger
        offsets trade maximum load for fewer probes.
    block_size:
        Optional fixed probe block size for the vectorised engine (mainly for
        tests; the default heuristic is fine in practice).
    """

    name = "adaptive"
    streaming = True
    batches = True

    def __init__(self, offset: int = 1, block_size: int | None = None) -> None:
        if offset < 0:
            raise ConfigurationError(f"offset must be non-negative, got {offset}")
        if block_size is not None and block_size <= 0:
            raise ConfigurationError("block_size must be positive when given")
        self.offset = int(offset)
        self.block_size = block_size

    def params(self) -> dict[str, Any]:
        return {"offset": self.offset, "block_size": self.block_size}

    def begin(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> "_AdaptiveSession":
        self.validate_size(n_balls, n_bins)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        return _AdaptiveSession(
            self,
            n_balls,
            n_bins,
            stream,
            block_size=self.block_size,
            checkpoint_stages=True,
            record_trace=record_trace,
        )

    def allocate_batch(
        self,
        n_balls: int,
        n_bins: int,
        seeds=None,
        *,
        probe_streams=None,
        record_trace: bool = False,
    ) -> list[AllocationResult]:
        if record_trace:
            # Traced runs are for analysis, not throughput; the per-trial
            # loop already records exact per-stage trajectories.
            return super().allocate_batch(
                n_balls,
                n_bins,
                seeds,
                probe_streams=probe_streams,
                record_trace=True,
            )
        self.validate_size(n_balls, n_bins)
        batch = batch_streams(n_bins, seeds, probe_streams)
        return run_staged_batch(
            self,
            n_balls,
            n_bins,
            batch,
            (
                (window.acceptance_limit, window.n_balls)
                for window in stage_windows(n_balls, n_bins, self.offset)
            ),
            block_size=self.block_size,
        )


class _AdaptiveSession(StagedWindowSession):
    """Streaming ADAPTIVE: the acceptance limit tracks the ball index."""

    def _limit_for_ball(self, i: int) -> int:
        return acceptance_limit(i, self.n_bins, self.protocol.offset)


def run_adaptive(
    n_balls: int,
    n_bins: int,
    seed: SeedLike = None,
    *,
    offset: int = 1,
    record_trace: bool = False,
) -> AllocationResult:
    """Functional one-liner for :class:`AdaptiveProtocol`.

    Examples
    --------
    >>> result = run_adaptive(10_000, 1_000, seed=0)
    >>> result.max_load <= 10 + 1
    True
    """
    return AdaptiveProtocol(offset=offset).allocate(
        n_balls, n_bins, seed, record_trace=record_trace
    )
