"""The THRESHOLD protocol (Figure 2; Czumaj & Stemann, re-analysed in §4).

Every ball samples bins uniformly at random until it finds one with load
strictly below ``m/n + 1``.  The maximum load is therefore at most
``ceil(m/n) + 1`` deterministically; Theorem 4.1 of the paper shows the
allocation time is ``m + O(m^{3/4} n^{1/4})`` w.h.p. and in expectation.
Unlike ADAPTIVE the protocol must know ``m`` in advance, and Lemma 4.2 shows
its final load vector is far less smooth (for ``m = n²`` the quadratic
potential is ``Ω(n^{9/8})`` and the max−min gap ``Ω(n^{1/8})``).

Because the acceptance limit is a single constant for the entire run, the
whole allocation is one window of :func:`repro.core.window.fill_window`.  A
traced run (``record_trace=True``) is cut at stage ends by the session's
stage walk, so its per-stage trajectory lines up with ADAPTIVE's for the
smoothness experiments; the trace is all it adds.
"""

from __future__ import annotations

from typing import Any

from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.core.session import StagedWindowSession
from repro.core.thresholds import acceptance_limit
from repro.errors import ConfigurationError
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = ["ThresholdProtocol", "run_threshold"]


@register_protocol
class ThresholdProtocol(AllocationProtocol):
    """THRESHOLD allocation (Figure 2 of the paper).

    Parameters
    ----------
    offset:
        Additive constant of the acceptance threshold ``m/n + offset``
        (``1`` in the paper).
    block_size:
        Optional fixed probe block size for the vectorised engine.
    """

    name = "threshold"
    streaming = True

    def __init__(self, offset: int = 1, block_size: int | None = None) -> None:
        if offset < 1:
            raise ConfigurationError(
                "offset must be at least 1: with offset 0 the THRESHOLD protocol "
                "cannot place the final ball of a perfectly filled stage"
            )
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
    ) -> "_ThresholdSession":
        self.validate_size(n_balls, n_bins)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        return _ThresholdSession(
            self,
            n_balls,
            n_bins,
            stream,
            block_size=self.block_size,
            record_trace=record_trace,
        )


class _ThresholdSession(StagedWindowSession):
    """Streaming THRESHOLD: one fixed acceptance limit for the whole run.

    Untraced, a chunk is one window; traced, it is cut at stage ends so the
    trace is comparable to ADAPTIVE's.  It logs no probe checkpoints.
    """

    def _limit_for_ball(self, i: int) -> int:
        return acceptance_limit(self.n_balls, self.n_bins, self.protocol.offset)


def run_threshold(
    n_balls: int,
    n_bins: int,
    seed: SeedLike = None,
    *,
    offset: int = 1,
    record_trace: bool = False,
) -> AllocationResult:
    """Functional one-liner for :class:`ThresholdProtocol`.

    Examples
    --------
    >>> result = run_threshold(10_000, 1_000, seed=0)
    >>> result.max_load <= 10 + 1
    True
    """
    return ThresholdProtocol(offset=offset).allocate(
        n_balls, n_bins, seed, record_trace=record_trace
    )
