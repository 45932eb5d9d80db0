"""Classical single-choice allocation.

Every ball is placed into a bin chosen independently and uniformly at random.
For ``m = n`` the maximum load is ``log n / log log n · (1 + o(1))`` w.h.p.
(Raab & Steger, cited as [15] in the paper); for ``m ≫ n log n`` it is
``m/n + Θ(sqrt(m log n / n))``.  The protocol uses exactly ``m`` probes and is
the natural lower bound on allocation time — every other protocol in Table 1
pays more probes to achieve a smaller maximum load.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.core.session import ProtocolSession
from repro.core.window import _BATCH_ELEMENT_BUDGET
from repro.runtime.costs import CostModel
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = ["SingleChoiceProtocol", "run_single_choice"]


@register_protocol
class SingleChoiceProtocol(AllocationProtocol):
    """One uniformly random choice per ball (no load information used)."""

    name = "single-choice"
    streaming = True

    def __init__(self) -> None:
        # No parameters; keep an explicit __init__ so the registry-based
        # factory never passes stray keyword arguments silently.
        super().__init__()

    def params(self) -> dict[str, Any]:
        return {}

    def begin(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> "_SingleChoiceSession":
        self.validate_size(n_balls, n_bins)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        return _SingleChoiceSession(self, n_balls, n_bins, stream)


class _SingleChoiceSession(ProtocolSession):
    """Streaming single-choice: one uniform probe per ball."""

    def __init__(self, protocol, n_balls, n_bins, stream) -> None:
        super().__init__(protocol, n_balls, n_bins, stream)
        self._loads = np.zeros(n_bins, dtype=np.int64)

    @property
    def loads(self) -> np.ndarray:
        return self._loads

    @property
    def probes(self) -> int:
        return self.placed

    def _place(self, k: int) -> None:
        # Passes of at most the window engine's pass cap keep the transient
        # probe block bounded however many balls a run places.
        for start in range(0, k, _BATCH_ELEMENT_BUDGET):
            count = min(_BATCH_ELEMENT_BUDGET, k - start)
            self._loads += np.bincount(self.stream.take(count), minlength=self.n_bins)

    def _finalize(self) -> AllocationResult:
        return AllocationResult(
            protocol=self.protocol.name,
            n_balls=self.n_balls,
            n_bins=self.n_bins,
            loads=self._loads,
            allocation_time=self.n_balls,
            costs=CostModel(probes=self.n_balls),
            params=self.protocol.params(),
        )


def run_single_choice(
    n_balls: int, n_bins: int, seed: SeedLike = None
) -> AllocationResult:
    """Functional one-liner for :class:`SingleChoiceProtocol`."""
    return SingleChoiceProtocol().allocate(n_balls, n_bins, seed)
