"""Streaming protocol sessions: place balls in caller-chosen chunks.

A :class:`ProtocolSession` is the one code path of every streaming
protocol: the caller places balls in chunks of any size
(:meth:`ProtocolSession.place`), may inspect the evolving load vector and
probe consumption between chunks, and finally asks for the unified
:class:`~repro.core.result.RunResult`.
:meth:`~repro.core.protocol.AllocationProtocol.allocate` is a session run to
completion in one chunk.  The contract — certified by the test-suite for
every streaming protocol — is that **any split of the balls into ``place``
calls yields a bit-identical result**: same loads, same probe-stream
consumption, same cost checkpoints, same trace.  This works because the
sessions are thin drivers over the chunked exact engines (the window
primitive, the conflict-free commit engine, the weighted provisional
engine), whose chunk-partitioning invariance is already certified.

:meth:`ProtocolSession.place` is also the one stage walk.  A stage is
``n_bins`` consecutive balls, over which ADAPTIVE's acceptance limit is
constant.  A session that needs the stage ends — ADAPTIVE always, every
other protocol only while it records a trace — cuts each chunk at them with
:func:`~repro.core.thresholds.stage_segments` and closes each stage in
:meth:`ProtocolSession._close_stage`.  That is where every
:class:`~repro.runtime.trace.StageRecord` is built (the memory sessions add
their remembered set through :meth:`ProtocolSession._remembered`) and where
the constant-limit sessions log their probe checkpoints, so a trace and its
checkpoints land on the same balls however the run is split.  Any other
session places each chunk in one engine call.

Sessions are created through
:meth:`~repro.core.protocol.AllocationProtocol.begin`; protocols whose
placement order is not sequential per ball (the parallel round protocols,
rebalancing's move sweeps) do not support sessions and say so with a
:class:`~repro.errors.ConfigurationError`.

:class:`StagedWindowSession` is the shared machinery of the two
constant-limit-window protocols (ADAPTIVE and THRESHOLD): each piece the
walk hands it is one window of :func:`~repro.core.window.fill_window`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.potentials import (
    DEFAULT_EPSILON,
    exponential_potential,
    quadratic_potential,
)
from repro.core.result import RunResult
from repro.core.thresholds import stage_segments
from repro.core.window import fill_window, fill_window_batch
from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.costs import CostModel
from repro.runtime.probes import BatchedProbeStream, ProbeStream
from repro.runtime.trace import StageRecord, Trace

__all__ = ["ProtocolSession", "StagedWindowSession", "run_staged_batch"]


def run_staged_batch(
    protocol,
    n_balls: int,
    n_bins: int,
    batch: BatchedProbeStream,
    windows,
    *,
    block_size: int | None,
) -> list[RunResult]:
    """Run a block of ADAPTIVE trials stage window by stage window.

    ``windows`` yields ``(acceptance_limit, count)`` pairs — the stage
    decomposition of the single-trial session, which depends only on the
    ball index, so all trials share it — and each window is filled for
    every trial with one :func:`~repro.core.window.fill_window_batch` call,
    which runs the single-run counting engine on each trial's row.  Each
    trial's cost model logs one checkpoint per stage, exactly as the
    session builds it.  Trial ``t`` of the returned list is bit-identical
    to the single-trial run on ``batch.children[t]``.  THRESHOLD fills one
    window per trial and runs the base-class per-trial loop instead.
    """
    n_trials = batch.trials
    loads = np.zeros((n_trials, n_bins), dtype=np.int64)
    window_probes: list[np.ndarray] = []
    for limit, count in windows:
        window_probes.append(
            fill_window_batch(loads, limit, count, batch, block_size=block_size)
        )
    results = []
    for t in range(n_trials):
        costs = CostModel()
        for probes in window_probes:
            costs.add_probes(int(probes[t]))
            costs.log_probe_checkpoint()
        results.append(
            RunResult(
                protocol=protocol.name,
                n_balls=n_balls,
                n_bins=n_bins,
                loads=loads[t].copy(),
                allocation_time=costs.probes,
                costs=costs,
                trace=None,
                params=protocol.params(),
            )
        )
    return results


class ProtocolSession(ABC):
    """Incremental run of one allocation protocol (see the module docstring).

    Attributes
    ----------
    n_balls, n_bins:
        Problem size fixed at session start (``n_balls`` is the total the
        session will place — THRESHOLD-style rules need it up front, and it
        makes any-split equivalence well defined).
    placed:
        Number of balls placed so far.
    stream:
        The probe stream the session consumes; ``stream.consumed`` tracks
        exactly the sequential process.
    trace:
        The per-stage :class:`~repro.runtime.trace.Trace` of a session
        started with ``record_trace``, else ``None``.
    """

    #: Cut every chunk at stage ends even without a trace (ADAPTIVE, whose
    #: acceptance limit changes at each stage end).
    staged: bool = False

    def __init__(
        self,
        protocol,
        n_balls: int,
        n_bins: int,
        stream: ProbeStream,
        *,
        record_trace: bool = False,
    ) -> None:
        if n_balls < 0:
            raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
        if stream.n_bins != n_bins:
            raise ConfigurationError(
                "probe_stream.n_bins does not match the requested n_bins"
            )
        self.protocol = protocol
        self.n_balls = int(n_balls)
        self.n_bins = int(n_bins)
        self.stream = stream
        self.placed = 0
        self.trace = Trace() if record_trace else None
        self._stage_start = (0, 0)  # balls and probes when the open stage began
        self._final: RunResult | None = None

    # ------------------------------------------------------------------ #
    # Introspection between place() calls
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def loads(self) -> np.ndarray:
        """Current per-bin ball counts (live view; do not mutate)."""

    @property
    @abstractmethod
    def probes(self) -> int:
        """Probes consumed so far (the run's allocation time to date)."""

    @property
    def weighted_loads(self) -> np.ndarray | None:
        """Current per-bin total weight, for weighted sessions (else None)."""
        return None

    def probe_checkpoints(self) -> list[int]:
        """Cumulative probe counts at completed stage boundaries (if any)."""
        return []

    @property
    def remaining(self) -> int:
        return self.n_balls - self.placed

    # ------------------------------------------------------------------ #
    # Driving the run
    # ------------------------------------------------------------------ #
    def place(self, k: int) -> int:
        """Place the next ``min(k, remaining)`` balls; returns how many."""
        if self._final is not None:
            raise ProtocolError("session already finalised; start a new one")
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        k = min(int(k), self.remaining)
        if self.staged or self.trace is not None:
            for stage, first, last, ends_stage in stage_segments(
                self.placed, k, self.n_bins
            ):
                self._place(last - first + 1)
                self.placed = last
                if ends_stage or last == self.n_balls:
                    self._close_stage(stage)
        elif k:
            self._place(k)
            self.placed += k
        return k

    @abstractmethod
    def _place(self, k: int) -> None:
        """Place exactly ``k`` more balls (``k`` ≥ 1, within bounds)."""

    def _close_stage(self, stage: int) -> None:
        """Stage ``stage`` just ended (its last ball, or the run's, is placed).

        Appends the stage's :class:`~repro.runtime.trace.StageRecord` when
        tracing: the stage's balls and probes, and the load extremes and
        smoothness potentials of the load vector now.
        """
        balls, probes = self._stage_start
        self._stage_start = (self.placed, self.probes)
        if self.trace is None:
            return
        loads = self.loads
        self.trace.append(
            StageRecord(
                stage=stage,
                balls_placed=self.placed - balls,
                probes=self.probes - probes,
                max_load=int(loads.max()),
                min_load=int(loads.min()),
                quadratic_potential=quadratic_potential(loads, self.placed),
                exponential_potential=exponential_potential(
                    loads, self.placed, DEFAULT_EPSILON
                ),
                remembered=self._remembered(),
            )
        )

    def _remembered(self) -> tuple[int, ...] | None:
        """Protocol-carried state a stage record snapshots (else ``None``)."""
        return None

    def result(self) -> RunResult:
        """Place any remaining balls and return the finished run's record.

        Bit-identical for the same seed / probe stream however the
        preceding ``place`` calls were split.  Idempotent: repeated calls
        return the same object.
        """
        if self._final is None:
            self.place(self.remaining)
            self._final = self._finalize()
            self._final.trace = self.trace
        return self._final

    @abstractmethod
    def _finalize(self) -> RunResult:
        """Build the final result (called once, after all balls placed)."""


class StagedWindowSession(ProtocolSession):
    """Session over constant-acceptance-limit windows (ADAPTIVE/THRESHOLD).

    Subclasses implement ``_limit_for_ball(i)``, the acceptance limit of
    1-indexed ball ``i``.  Each chunk :meth:`place` hands :meth:`_place` is
    one window: a whole stage piece for ADAPTIVE (``staged``), whose limit
    is constant within a stage, and the whole chunk for untraced THRESHOLD,
    whose limit never changes.  Every stage end logs a probe checkpoint.
    """

    def __init__(
        self,
        protocol,
        n_balls: int,
        n_bins: int,
        stream: ProbeStream,
        *,
        block_size: int | None,
        record_trace: bool,
    ) -> None:
        super().__init__(protocol, n_balls, n_bins, stream, record_trace=record_trace)
        self._loads = np.zeros(n_bins, dtype=np.int64)
        self._block_size = block_size
        self.costs = CostModel()

    def _limit_for_ball(self, i: int) -> int:
        raise NotImplementedError

    @property
    def loads(self) -> np.ndarray:
        return self._loads

    @property
    def probes(self) -> int:
        return self.costs.probes

    def probe_checkpoints(self) -> list[int]:
        return self.costs.probe_checkpoints

    def _place(self, k: int) -> None:
        outcome = fill_window(
            self._loads,
            self._limit_for_ball(self.placed + 1),
            k,
            self.stream,
            block_size=self._block_size,
        )
        self.costs.add_probes(outcome.probes)

    def _close_stage(self, stage: int) -> None:
        self.costs.log_probe_checkpoint()
        super()._close_stage(stage)

    def _finalize(self) -> RunResult:
        return RunResult(
            protocol=self.protocol.name,
            n_balls=self.n_balls,
            n_bins=self.n_bins,
            loads=self._loads,
            allocation_time=self.costs.probes,
            costs=self.costs,
            params=self.protocol.params(),
        )
