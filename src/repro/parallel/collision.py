"""Collision-based parallel allocation (in the spirit of Lenzen–Wattenhofer).

The related-work section of the paper highlights the parallel setting, where
all ``m = Θ(n)`` balls are allocated simultaneously over a small number of
synchronous rounds.  Lenzen and Wattenhofer give a symmetric adaptive
protocol achieving a maximum load of 2 within ``log* n + O(1)`` rounds and
``O(n)`` messages; unallocated balls contact ``k_i`` bins in round ``i`` for
increasing ``k_i``, and a bin with fewer than 2 balls accepts one random
requester.

This module implements that scheme on top of the
:class:`~repro.runtime.engine.SynchronousEngine` message-passing substrate:

* round ``i``: every unplaced ball sends ``request`` messages to
  ``fanout_base · growth^i`` bins chosen uniformly at random (capped at
  ``max_fanout``);
* every bin with remaining capacity picks up to its free capacity of the
  requesters uniformly at random and replies ``accept``;
* a ball accepting several offers keeps the first and the surplus capacity is
  simply unused for this round (matching the "bins accept a randomly chosen
  ball" rule).

The protocol reports messages and rounds through the shared
:class:`~repro.runtime.costs.CostModel` and the number of bin *requests* as
its allocation time, making it directly comparable to the sequential
protocols in Table 1.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.errors import ConfigurationError
from repro.runtime.engine import Message, SynchronousEngine
from repro.runtime.probes import ProbeStream
from repro.runtime.rng import SeedLike, as_generator

__all__ = ["CollisionProtocol", "run_collision"]


@register_protocol
class CollisionProtocol(AllocationProtocol):
    """Round-based collision protocol for parallel balls-into-bins.

    Parameters
    ----------
    capacity:
        Maximum number of balls a bin accepts over the whole run (2 in
        Lenzen–Wattenhofer; must satisfy ``capacity * n_bins >= n_balls``).
    fanout_base, growth:
        Round ``i`` (0-based) lets every unplaced ball contact
        ``min(fanout_base * growth**i, max_fanout)`` bins.
    max_fanout:
        Cap on the per-ball fanout (the original protocol accesses at most
        ``O(log n)`` bins per ball).
    max_rounds:
        Safety cap on the number of rounds.
    """

    name = "parallel-collision"

    def __init__(
        self,
        capacity: int = 2,
        fanout_base: int = 1,
        growth: float = 2.0,
        max_fanout: int = 64,
        max_rounds: int = 200,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be at least 1, got {capacity}")
        if fanout_base < 1:
            raise ConfigurationError(f"fanout_base must be >= 1, got {fanout_base}")
        if growth < 1.0:
            raise ConfigurationError(f"growth must be >= 1, got {growth}")
        if max_fanout < fanout_base:
            raise ConfigurationError("max_fanout must be >= fanout_base")
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be positive, got {max_rounds}")
        self.capacity = int(capacity)
        self.fanout_base = int(fanout_base)
        self.growth = float(growth)
        self.max_fanout = int(max_fanout)
        self.max_rounds = int(max_rounds)

    def params(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "fanout_base": self.fanout_base,
            "growth": self.growth,
            "max_fanout": self.max_fanout,
        }

    def _fanout(self, round_index: int) -> int:
        return int(min(self.fanout_base * self.growth**round_index, self.max_fanout))

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
        if probe_stream is not None:
            raise ConfigurationError(
                "the parallel collision protocol draws per-round batches and "
                "cannot replay a sequential probe stream"
            )
        if n_balls > self.capacity * n_bins:
            raise ConfigurationError(
                f"{n_balls} balls cannot fit into {n_bins} bins of capacity "
                f"{self.capacity}"
            )

        loads = np.zeros(n_bins, dtype=np.int64)
        assignment = np.full(n_balls, -1, dtype=np.int64)
        probes = 0

        def ball_step(
            round_index: int,
            replies: Mapping[int, Sequence[Message]],
            rng: np.random.Generator,
        ) -> list[Message]:
            nonlocal probes
            # Process last round's accept offers first: a ball keeps the first
            # offer it sees and informs no one (unused capacity is recovered
            # because bins only count confirmed placements below).
            for ball, offers in replies.items():
                if assignment[ball] >= 0:
                    continue
                accepted_bin = offers[0].sender
                assignment[ball] = accepted_bin
                loads[accepted_bin] += 1
            unplaced = np.flatnonzero(assignment < 0)
            if unplaced.size == 0:
                return []
            fanout = self._fanout(round_index)
            targets = rng.integers(0, n_bins, size=(unplaced.size, fanout))
            probes += int(unplaced.size * fanout)
            requests = [
                Message(sender=int(ball), receiver=int(bin_), payload="request")
                for ball, row in zip(unplaced, targets)
                for bin_ in row
            ]
            return requests

        def bin_step(
            round_index: int,
            requests: Mapping[int, Sequence[Message]],
            rng: np.random.Generator,
        ) -> list[Message]:
            replies: list[Message] = []
            for bin_index, incoming in requests.items():
                free = self.capacity - int(loads[bin_index])
                if free <= 0 or not incoming:
                    continue
                # Accept at most ONE requester per round (the LW rule); a bin
                # with capacity left may accept again in a later round.
                senders = list({msg.sender for msg in incoming})
                chosen = senders[int(rng.integers(0, len(senders)))]
                replies.append(
                    Message(sender=bin_index, receiver=chosen, payload="accept")
                )
            return replies

        def stop(round_index: int) -> bool:
            return bool(np.all(assignment >= 0))

        # The stop condition only observes placements performed at the start
        # of the *next* ball step, so run the engine until the ball step has
        # had a chance to absorb the final round of offers: we wrap the stop
        # condition to also absorb pending offers.  Simpler: the engine stops
        # when every ball is assigned; the final accept offers are absorbed by
        # one extra drain round below.
        engine = SynchronousEngine(
            n_balls,
            n_bins,
            ball_step,
            bin_step,
            stop,
            max_rounds=self.max_rounds,
            seed=seed,
        )
        if n_balls:
            engine.run()
            # Drain: absorb accept offers from the final round (ball_step of a
            # virtual extra round); no new requests are generated because all
            # remaining offers cover the still-unplaced balls.
            while np.any(assignment < 0):  # pragma: no cover - defensive
                last = engine.history[-1]
                pending: dict[int, list[Message]] = {}
                for msg in last.replies:
                    pending.setdefault(msg.receiver, []).append(msg)
                before = int(np.sum(assignment < 0))
                ball_step(len(engine.history), pending, as_generator(seed))
                if int(np.sum(assignment < 0)) == before:
                    raise ConfigurationError(
                        "collision protocol failed to place every ball; "
                        "increase max_rounds or capacity"
                    )

        costs = engine.costs
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


def run_collision(
    n_balls: int, n_bins: int, seed: SeedLike = None, *, capacity: int = 2
) -> AllocationResult:
    """Functional one-liner for :class:`CollisionProtocol`."""
    return CollisionProtocol(capacity=capacity).allocate(n_balls, n_bins, seed)
