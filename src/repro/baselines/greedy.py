"""greedy[d]: the d-choice protocol of Azar, Broder, Karlin and Upfal.

Every ball samples ``d`` bins independently and uniformly at random and is
placed into the least loaded of them (ties broken uniformly at random).  For
``m = n`` the maximum load is ``ln ln n / ln d + Θ(1)`` w.h.p.; Berenbrink,
Czumaj, Steger and Vöcking extend this to the heavily loaded case, giving
``m/n + ln ln n / ln d + Θ(1)`` — the first two rows of Table 1.  The
allocation time is exactly ``d·m`` probes.

Placement decisions are inherently sequential (each depends on the loads
produced by all previous balls), but the per-ball Python loop of the seed
implementation (kept as :func:`repro.baselines.reference.reference_greedy`)
is gone: balls are placed through the chunked commit engine of
:mod:`repro.baselines.engine`, which bulk-draws each chunk's ``d`` choices
with :meth:`~repro.runtime.probes.ProbeStream.take_matrix` and commits all
conflict-free balls of a chunk in one vectorised pass.  The outcome is
bit-identical to the sequential loop for the same probe stream and seed.

Replay contract
---------------
The random tie-break draws one ``(m, d)`` priority matrix, before any
placements, from ``stream.derive_generator(seed)``: a spawned child of the
probe generator for seeded runs (so tie noise is a pure function of the seed,
independent of probe consumption), and a generator seeded by ``seed`` — or
the documented fallback :data:`repro.runtime.probes.AUX_SEED` — for replay
streams.  The seed implementation instead reused the probe generator (after
exhausting it) and fell back to a hard-coded ``default_rng(0)`` for non-random
streams, which coupled tie randomness to the stream *type*; any two
implementations given the same stream and seed now agree bit-for-bit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.engine import batched_argmin_commit, chunked_argmin_commit
from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.core.session import ProtocolSession
from repro.errors import ConfigurationError
from repro.runtime.costs import CostModel
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = ["GreedyProtocol", "DChoiceSession", "run_greedy"]


def d_choice_result(protocol, n_balls: int, n_bins: int, loads) -> AllocationResult:
    """The record of a unit run drawing exactly ``protocol.d`` probes per ball.

    Shared by greedy[d], left[d] (one-shot and trial-axis) and
    (d,k)-memory.
    """
    probes = n_balls * protocol.d
    return AllocationResult(
        protocol=protocol.name,
        n_balls=n_balls,
        n_bins=n_bins,
        loads=loads,
        allocation_time=probes,
        costs=CostModel(probes=probes),
        params=protocol.params(),
    )


class DChoiceSession(ProtocolSession):
    """Streaming d-choice commit session (greedy[d] / left[d] / weighted).

    ``source(start, count)`` returns the candidate rows of balls
    ``start … start+count-1`` (absolute indices over the whole run), so each
    :meth:`place` call drives :func:`~repro.baselines.engine.chunked_argmin_commit`
    over the next slice — the engine's chunk-partitioning invariance makes
    any split of ``place`` calls bit-identical to the one-shot run.
    Tie-break ``priorities`` (and weighted increments) are drawn up front by
    the caller.  Only weighted runs record each ball's bin in
    ``assignments``, from which the weighted session tallies its per-bin
    ball counts.
    """

    def __init__(
        self,
        protocol,
        n_balls: int,
        n_bins: int,
        stream: ProbeStream,
        *,
        d: int,
        source,
        priorities=None,
        weights=None,
        chunk_size: int | None = None,
        record_trace: bool = False,
    ) -> None:
        super().__init__(protocol, n_balls, n_bins, stream, record_trace=record_trace)
        self.d = int(d)
        self._source = source
        self._priorities = priorities
        self._weights = weights
        self._chunk_size = chunk_size
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
        return self.placed * self.d

    def _place(self, k: int) -> None:
        start = self.placed
        window = slice(start, start + k)
        weighted = self._weights is not None
        chunked_argmin_commit(
            self._loads,
            lambda done, count: self._source(start + done, count),
            k,
            self.d,
            priorities=None if self._priorities is None else self._priorities[window],
            chunk_size=self._chunk_size,
            assignments=self.assignments[window] if weighted else None,
            weights=self._weights[window] if weighted else None,
        )

    def _finalize(self) -> AllocationResult:
        return d_choice_result(self.protocol, self.n_balls, self.n_bins, self._loads)


@register_protocol
class GreedyProtocol(AllocationProtocol):
    """greedy[d] allocation.

    Parameters
    ----------
    d:
        Number of uniform choices per ball (``d >= 1``).  ``d = 1`` degrades
        to single-choice; ``d = 2`` is the classical "power of two choices".
    tie_break:
        ``"random"`` (default, as in Azar et al.) or ``"first"`` (take the
        first minimum among the sampled choices; useful for deterministic
        tests).
    """

    name = "greedy"
    streaming = True
    batches = True

    def __init__(self, d: int = 2, tie_break: str = "random") -> None:
        if d < 1:
            raise ConfigurationError(f"d must be at least 1, got {d}")
        if tie_break not in ("random", "first"):
            raise ConfigurationError(
                f"tie_break must be 'random' or 'first', got {tie_break!r}"
            )
        self.d = int(d)
        self.tie_break = tie_break

    def params(self) -> dict[str, Any]:
        return {"d": self.d, "tie_break": self.tie_break}

    def begin(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> DChoiceSession:
        self.validate_size(n_balls, n_bins)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        priorities = None
        if self.tie_break == "random" and n_balls:
            priorities = stream.derive_generator(seed).random(size=(n_balls, self.d))
        return DChoiceSession(
            self,
            n_balls,
            n_bins,
            stream,
            d=self.d,
            source=lambda start, count: stream.take_matrix(count, self.d),
            priorities=priorities,
            record_trace=record_trace,
        )

    def _allocate_trials(self, n_balls, n_bins, batch, seeds):
        loads = np.zeros((batch.trials, n_bins), dtype=np.int64)
        if n_balls:
            priorities = None
            if self.tie_break == "random":
                # One up-front matrix per trial from that trial's auxiliary
                # generator — the same single call (same spawn order) the
                # single-trial run makes on its own stream.
                seed_list = seeds if seeds is not None else [None] * batch.trials
                priorities = [
                    child.derive_generator(seed).random(size=(n_balls, self.d))
                    for child, seed in zip(batch.children, seed_list)
                ]
            sources = [
                lambda start, count, child=child: child.take_matrix(count, self.d)
                for child in batch.children
            ]
            batched_argmin_commit(
                loads, sources, n_balls, self.d, priorities=priorities
            )
        return [d_choice_result(self, n_balls, n_bins, row.copy()) for row in loads]


def run_greedy(
    n_balls: int,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    **params: Any,
) -> AllocationResult:
    """Functional one-liner for :class:`GreedyProtocol`.

    All remaining keyword arguments (``tie_break``, …) are forwarded to the
    constructor, so wrapper runs agree with registry runs for the same
    parameter dictionary.
    """
    return GreedyProtocol(d=d, **params).allocate(n_balls, n_bins, seed)
