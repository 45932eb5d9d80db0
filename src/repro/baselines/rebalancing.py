"""Self-balancing reallocation in the spirit of Czumaj, Riley and Scheideler.

The paper's Table 1 cites the "perfectly balanced allocation" of Czumaj,
Riley and Scheideler [6]: first compute an initial allocation with greedy[d],
then iteratively perform *self-balancing steps* in which balls may switch
between their initial bin choices, reaching a maximum load of ``ceil(m/n)``
with ``O(m) + n^{O(1)}`` reallocations.  The original paper gives the
guarantee but this reproduction only needs the qualitative row of Table 1, so
we implement the natural local-search variant:

1. allocate with greedy[d], remembering every ball's ``d`` choices;
2. repeatedly sweep over the balls; a ball moves to one of its alternative
   choices whenever that strictly reduces the pair's load imbalance (the
   alternative's load is at least two below its current bin's load);
3. stop when a sweep performs no move or after ``max_passes`` sweeps.

Moves never increase the maximum load, every move strictly decreases the
quadratic potential (so termination is guaranteed), and reallocations are
counted separately from probes in the cost model, mirroring how Table 1
separates ``O(m) + n^{O(1)}`` reallocation cost from allocation time.

Both phases run through the chunked engine of :mod:`repro.baselines.engine`:
the greedy[d] init commits conflict-free chunks in bulk (first-minimum ties,
recording each ball's placement), and every sweep is a
:func:`~repro.baselines.engine.chunked_move_sweep` — a ball reads and writes
only its own candidate bins, so the same conflict-free rule makes the sweep
bit-identical to the per-ball loop kept as
:func:`repro.baselines.reference.reference_rebalancing`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.engine import chunked_argmin_commit, chunked_move_sweep
from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.errors import ConfigurationError
from repro.runtime.costs import CostModel
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = ["RebalancingProtocol", "run_rebalancing"]


@register_protocol
class RebalancingProtocol(AllocationProtocol):
    """greedy[d] followed by local self-balancing moves (CRS-style).

    Parameters
    ----------
    d:
        Number of choices per ball used both for the initial allocation and
        as the set of bins the ball may later move between.
    max_passes:
        Upper bound on the number of rebalancing sweeps (termination usually
        happens after a handful of sweeps).
    """

    name = "rebalancing"

    def __init__(self, d: int = 2, max_passes: int = 50) -> None:
        if d < 2:
            raise ConfigurationError(
                f"rebalancing needs at least d=2 choices per ball, got {d}"
            )
        if max_passes < 1:
            raise ConfigurationError(f"max_passes must be positive, got {max_passes}")
        self.d = int(d)
        self.max_passes = int(max_passes)

    def params(self) -> dict[str, Any]:
        return {"d": self.d, "max_passes": self.max_passes}

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
        costs = CostModel()

        if n_balls:
            # Phase 1: greedy[d] initial allocation (ties to the first minimum;
            # the rebalancing phase removes any bias this introduces).  The
            # chunk source stashes each bulk draw so phase 2 can reuse the
            # choice matrix.
            choices = np.empty((n_balls, self.d), dtype=np.int64)
            placement = np.empty(n_balls, dtype=np.int64)

            def draw(start: int, count: int) -> np.ndarray:
                block = stream.take_matrix(count, self.d)
                choices[start : start + count] = block
                return block

            chunked_argmin_commit(
                loads, draw, n_balls, self.d, assignments=placement
            )
            costs.add_probes(n_balls * self.d)

            # Phase 2: self-balancing sweeps, one chunked pass per sweep.
            for _ in range(self.max_passes):
                moved = chunked_move_sweep(loads, choices, placement)
                costs.add_reallocations(moved)
                if moved == 0:
                    break

        return AllocationResult(
            protocol=self.name,
            n_balls=n_balls,
            n_bins=n_bins,
            loads=loads,
            allocation_time=costs.probes,
            costs=costs,
            params=self.params(),
        )


def run_rebalancing(
    n_balls: int,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    **params: Any,
) -> AllocationResult:
    """Functional one-liner for :class:`RebalancingProtocol`.

    Remaining keyword arguments (``max_passes``, …) are forwarded to the
    constructor, so wrapper runs agree with registry runs for the same
    parameter dictionary.
    """
    return RebalancingProtocol(d=d, **params).allocate(n_balls, n_bins, seed)
