"""Simulation sessions and the :func:`simulate` facade.

:class:`Simulation` turns a declarative :class:`~repro.api.spec.SimulationSpec`
into a run you can either fire in one shot (:meth:`Simulation.run`) or drive
incrementally (:meth:`Simulation.step`), inspecting loads, potentials and
cost checkpoints mid-run via :attr:`Simulation.state`.  Both paths are
bit-identical to the legacy entry points: ``run()`` with no prior steps calls
the protocol's ``allocate`` with the spec's seed verbatim, and stepped runs
go through the protocol's streaming session, whose any-split equivalence is
certified by the test-suite.

:func:`simulate` is the package's single documented entry point: it accepts
a :class:`SimulationSpec` (returning one unified
:class:`~repro.core.result.RunResult`, or a list of them for multi-trial
specs with per-trial seeds derived exactly as the experiment runner derives
them) or a :class:`~repro.api.spec.DispatchSpec` (building the dispatcher,
running its workload and returning a
:class:`~repro.scheduler.dispatcher.DispatchResult`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from repro.api.spec import DispatchSpec, SimulationSpec
from repro.core.backend import get_backend, use_backend
from repro.core.potentials import load_gap, quadratic_potential
from repro.core.result import RunResult
from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.probes import ProbeStream
from repro.runtime.rng import SeedLike, trial_seed

__all__ = ["SimulationState", "Simulation", "simulate"]


@dataclass(frozen=True)
class SimulationState:
    """Mid-run snapshot of a streaming :class:`Simulation`.

    Attributes
    ----------
    placed, n_balls:
        Progress: balls placed so far out of the spec's total.
    loads:
        Per-bin ball counts at this point (a copy; safe to keep).
    weighted_loads:
        Per-bin total weight for weighted protocols, else ``None``.
    probes:
        Probes consumed so far (the run's allocation time to date).
    probe_checkpoints:
        Cumulative probe counts at completed stage boundaries (protocols
        that log them; empty otherwise).
    """

    placed: int
    n_balls: int
    loads: np.ndarray
    weighted_loads: np.ndarray | None
    probes: int
    probe_checkpoints: tuple[int, ...]

    @property
    def max_load(self) -> int:
        return int(self.loads.max()) if self.loads.size else 0

    @property
    def gap(self) -> int:
        return load_gap(self.loads)

    @property
    def quadratic_potential(self) -> float:
        return quadratic_potential(self.loads, self.placed)

    @property
    def done(self) -> bool:
        return self.placed >= self.n_balls

    @property
    def probes_per_ball(self) -> float:
        return self.probes / self.placed if self.placed else 0.0


class Simulation:
    """A (optionally streaming) run of one :class:`SimulationSpec` trial.

    Parameters
    ----------
    spec:
        The declarative run description.  Multi-trial specs are fine: a
        ``Simulation`` runs one trial (``trial`` selects which, deriving the
        per-trial seed exactly as the experiment runner does).
    trial:
        Trial index in ``range(spec.trials)``; only meaningful for specs
        with ``trials > 1``.
    seed:
        Explicit seed override (used by harnesses that manage their own seed
        derivation); mutually exclusive with ``trial`` for multi-trial specs.
    probe_stream:
        Explicit probe stream (replay/testing); bypasses seeding entirely.

    Examples
    --------
    One-shot::

        result = Simulation(spec).run()

    Streaming, inspecting the smoothness potential mid-run::

        sim = Simulation(spec)
        while not sim.state.done:
            sim.step(10_000)
            print(sim.state.placed, sim.state.quadratic_potential)
        result = sim.results()
    """

    def __init__(
        self,
        spec: SimulationSpec,
        *,
        trial: int = 0,
        seed: SeedLike | None = None,
        probe_stream: ProbeStream | None = None,
    ) -> None:
        if not isinstance(spec, SimulationSpec):
            raise ConfigurationError(
                f"Simulation expects a SimulationSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.protocol = spec.build_protocol()
        # Resolve eagerly so an unknown backend fails at construction.
        self._backend = None if spec.backend is None else get_backend(spec.backend)
        self._probe_stream = probe_stream
        if seed is not None:
            if trial != 0:
                raise ConfigurationError(
                    "trial and an explicit seed are mutually exclusive: the "
                    "override replaces the per-trial derivation entirely"
                )
            self._seed: SeedLike = seed
        elif spec.trials > 1:
            self._seed = trial_seed(spec.seed, trial, spec.trials)
        else:
            if trial != 0:
                raise ConfigurationError(
                    f"trial must be 0 for a single-trial spec, got {trial}"
                )
            # Single trial: the seed reaches the protocol verbatim, making
            # simulate(spec) bit-identical to the legacy entry points.
            self._seed = spec.seed
        self._session = None
        self._result: RunResult | None = None

    def _backend_scope(self):
        """Kernel-backend scope for this run's engine work.

        A spec without ``backend`` leaves the ambient selection in effect
        (so ``use_backend(...)`` around a driver still governs it).
        """
        if self._backend is None:
            return contextlib.nullcontext()
        return use_backend(self._backend)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def step(self, k: int) -> SimulationState:
        """Place the next ``min(k, remaining)`` balls; returns the new state.

        Any split of the run into ``step`` calls yields a final
        :meth:`results` bit-identical to :meth:`run` in one shot (same
        loads, probes, seeds and checkpoints) — certified by the test-suite.
        """
        if self._result is not None:
            raise ProtocolError("simulation already finished; results() is ready")
        with self._backend_scope():
            if self._session is None:
                self._session = self.protocol.begin(
                    self.spec.n_balls,
                    self.spec.n_bins,
                    self._seed,
                    probe_stream=self._probe_stream,
                    record_trace=self.spec.record_trace,
                )
            self._session.place(k)
        return self.state

    @property
    def state(self) -> SimulationState:
        """Snapshot of the run so far (works mid-run and after finishing)."""
        if self._result is not None:
            result = self._result
            weighted = getattr(result, "weighted_loads", None)
            return SimulationState(
                placed=result.n_balls,
                n_balls=result.n_balls,
                loads=np.asarray(result.loads).copy(),
                weighted_loads=None if weighted is None else weighted.copy(),
                probes=result.allocation_time,
                probe_checkpoints=tuple(result.costs.probe_checkpoints),
            )
        if self._session is None:
            return SimulationState(
                placed=0,
                n_balls=self.spec.n_balls,
                loads=np.zeros(self.spec.n_bins, dtype=np.int64),
                weighted_loads=None,
                probes=0,
                probe_checkpoints=(),
            )
        session = self._session
        weighted = session.weighted_loads
        return SimulationState(
            placed=session.placed,
            n_balls=session.n_balls,
            loads=np.asarray(session.loads).copy(),
            weighted_loads=None if weighted is None else weighted.copy(),
            probes=session.probes,
            probe_checkpoints=tuple(session.probe_checkpoints()),
        )

    # ------------------------------------------------------------------ #
    # Finishing
    # ------------------------------------------------------------------ #
    def run(self) -> RunResult:
        """Finish the run (placing any remaining balls) and return its record."""
        if self._result is None:
            with self._backend_scope():
                if self._session is None:
                    # Exact legacy path: one-shot allocate with the raw seed.
                    self._result = self.protocol.allocate(
                        self.spec.n_balls,
                        self.spec.n_bins,
                        self._seed,
                        probe_stream=self._probe_stream,
                        record_trace=self.spec.record_trace,
                    )
                else:
                    self._result = self._session.result()
        return self._result

    def results(self) -> RunResult:
        """Alias of :meth:`run` (reads better after a streaming loop)."""
        return self.run()


def simulate(
    spec: SimulationSpec | DispatchSpec,
) -> RunResult | list[RunResult]:
    """Run a declarative spec and return the unified result record(s).

    * :class:`SimulationSpec` with ``trials == 1`` → one
      :class:`~repro.core.result.RunResult`, bit-identical to the
      corresponding legacy ``run_*`` entry point for the same seed.
    * :class:`SimulationSpec` with ``trials > 1`` → a list of results, one
      per trial, seeded exactly as ``repro.experiments.run_trials`` (which
      executes the batch in trial blocks through each protocol's
      ``allocate_batch``, bit-identical to trial-by-trial ``Simulation``
      runs).
    * :class:`DispatchSpec` (with a workload) → a
      :class:`~repro.scheduler.dispatcher.DispatchResult`, bit-identical to
      constructing the :class:`~repro.scheduler.Dispatcher` by hand.
    """
    if isinstance(spec, SimulationSpec):
        if spec.trials == 1:
            return Simulation(spec).run()
        # Deferred import: the runner module imports this one at load time.
        from repro.experiments.runner import run_trials

        return run_trials(spec)
    if isinstance(spec, DispatchSpec):
        if spec.workload is None:
            raise ConfigurationError(
                "workload: a DispatchSpec needs a workload to simulate; "
                "attach a WorkloadSpec or use Dispatcher.from_spec directly"
            )
        dispatcher = spec.build_dispatcher()
        return dispatcher.dispatch(spec.workload.build())
    raise ConfigurationError(
        f"simulate expects a SimulationSpec or DispatchSpec, got {type(spec).__name__}"
    )
