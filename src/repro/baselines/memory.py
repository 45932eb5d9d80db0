"""The (d, k)-memory protocol of Mitzenmacher, Prabhakar and Shah.

Every ball chooses ``d`` bins uniformly at random and additionally inherits
the ``k`` least loaded bins remembered from the previous ball's candidate set.
It is placed into the least loaded of the ``d + k`` candidates, and the ``k``
least loaded candidates (after placement) are passed on to the next ball.
For ``d = k = 1`` and ``m = n`` the maximum load is
``ln ln n / (2 ln Φ₂) + O(1)``, matching Vöcking's lower bound — the third row
of Table 1 — while using only ``Θ(m)`` random choices.

The remembered set holds **distinct** bins: after placement the candidate
bins are deduplicated (first occurrence kept) before the ``k`` least loaded
are selected.  The seed implementation remembered the raw candidate
positions, so a fresh choice colliding with a remembered bin could fill
several memory slots with the same bin and silently shrink the effective
``d + k`` candidate diversity below what the Mitzenmacher–Prabhakar–Shah
analysis assumes (``tests/test_memory.py`` carries the regression).

The hand-off makes every decision depend on the previous ball's full
candidate set, so placements run through
:func:`~repro.baselines.memory_engine.chunked_memory_commit`: bulk fresh
draws feeding a plain-int sequential loop, with its own two-candidate loop
for ``d = k = 1`` (:func:`~repro.core.backend.memory11_hand_off`) and
greedy[d]'s engine for ``k = 0``.  It is bit-identical to
:func:`repro.baselines.reference.reference_memory` (the per-ball oracle)
and to :func:`~repro.baselines.memory_engine.memory_hand_off` (the general
rule, shared with the dispatcher's ``memory`` policy).  The
``weighted-memory`` protocol runs this module's session given the weights.

With ``record_trace=True`` the session's stage walk records one
:class:`~repro.runtime.trace.StageRecord` per stage of ``n`` balls — load
extremes, smoothness potentials and a snapshot of the remembered set at
each stage boundary — identically for one-shot and stepped runs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.memory_engine import (  # noqa: F401  (re-exported API)
    chunked_memory_commit,
    chunked_memory_hand_off,
    memory_hand_off,
)
from repro.baselines.greedy import d_choice_result
from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.core.session import ProtocolSession
from repro.errors import ConfigurationError
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = [
    "MemoryProtocol",
    "run_memory",
    "memory_hand_off",
    "chunked_memory_hand_off",
]


@register_protocol
class MemoryProtocol(AllocationProtocol):
    """(d, k)-memory allocation.

    Parameters
    ----------
    d:
        Number of fresh uniform choices per ball.
    k:
        Number of bins remembered from the previous ball.

    Notes
    -----
    ``batches`` stays ``False``: each ball's remembered bins chain through
    every previous placement (a sequential data dependence every
    configuration resolves with a scalar loop, per the roadmap), so
    multi-trial batches run through the base-class per-trial
    :meth:`~repro.core.protocol.AllocationProtocol.allocate_batch` loop
    rather than a second trial-axis engine.
    """

    name = "memory"
    streaming = True

    def __init__(self, d: int = 1, k: int = 1) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be at least 1, got {d}")
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        self.d = int(d)
        self.k = int(k)

    def params(self) -> dict[str, Any]:
        return {"d": self.d, "k": self.k}

    def begin(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> "_MemorySession":
        self.validate_size(n_balls, n_bins)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        return _MemorySession(
            self, n_balls, n_bins, stream, record_trace=record_trace
        )


class _MemorySession(ProtocolSession):
    """Streaming (d,k)-memory: the remembered set persists across steps.

    Each ``place`` call drives :func:`chunked_memory_commit` over the next
    slice; its state between calls is exactly the sequential protocol's
    (loads plus the remembered set), so any split of the balls into steps
    is bit-identical.  Each stage record of a traced run snapshots the
    remembered set.  Given per-ball ``weights`` (drawn up front by the
    caller) the loads are float total weights and each ball's bin lands in
    ``assignments``, from which the weighted session tallies its per-bin
    ball counts.
    """

    def __init__(
        self,
        protocol,
        n_balls,
        n_bins,
        stream,
        *,
        record_trace,
        weights=None,
        chunk_size=None,
    ) -> None:
        super().__init__(protocol, n_balls, n_bins, stream, record_trace=record_trace)
        self._weights = weights
        self._chunk_size = chunk_size
        self._memory: list[int] = []
        if weights is None:
            self._loads = np.zeros(n_bins, dtype=np.int64)
            self.assignments = None
        else:
            self._loads = np.zeros(n_bins, dtype=np.float64)
            self.assignments = np.empty(n_balls, dtype=np.int64)

    @property
    def loads(self) -> np.ndarray:
        return self._loads

    @property
    def weighted_loads(self) -> np.ndarray | None:
        return self._loads if self._weights is not None else None

    @property
    def probes(self) -> int:
        return self.placed * self.protocol.d

    def _place(self, count: int) -> None:
        window = slice(self.placed, self.placed + count)
        weighted = self._weights is not None
        self._memory = chunked_memory_commit(
            self.stream,
            self._loads,
            self._memory,
            count,
            self.protocol.d,
            self.protocol.k,
            assignments=self.assignments[window] if weighted else None,
            chunk_size=self._chunk_size,
            weights=self._weights[window] if weighted else None,
        )

    def _remembered(self) -> tuple[int, ...]:
        return tuple(int(b) for b in self._memory)

    def _finalize(self) -> AllocationResult:
        return d_choice_result(self.protocol, self.n_balls, self.n_bins, self._loads)


def run_memory(
    n_balls: int,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 1,
    k: int = 1,
    **params: Any,
) -> AllocationResult:
    """Functional one-liner for :class:`MemoryProtocol`.

    Remaining keyword arguments are forwarded to the constructor, so wrapper
    runs agree with registry runs for the same parameter dictionary.
    """
    return MemoryProtocol(d=d, k=k, **params).allocate(n_balls, n_bins, seed)
