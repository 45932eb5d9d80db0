"""Experiment configuration records.

A trial batch is one :class:`repro.api.SimulationSpec`; a
:class:`SweepConfig` is a grid of them, one per (protocol, ``m``), so a
sweep is checked, logged and reproduced through the specs it expands to.
The defaults are the paper-scale runs (Figure 3 at n = 10^4 bins, Table 1
at n = 2000, m = 8n); the benchmarks use scaled-down variants so the whole
suite runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.api.spec import SimulationSpec
from repro.errors import ConfigurationError

__all__ = ["SweepConfig", "FIGURE3_DEFAULT", "TABLE1_DEFAULT"]


@dataclass(frozen=True)
class SweepConfig:
    """A grid of :class:`~repro.api.SimulationSpec` trial batches.

    One spec per (protocol, ``m``) pair, sharing ``n_bins``, ``trials``,
    ``seed`` and ``backend``; ``params`` maps a protocol name to its
    constructor arguments.  This is the shape of Figure 3: fixed ``n``,
    fixed protocols, varying ``m``.  Construction expands the grid once, so
    a sweep that names an unknown protocol, a bad size or bad parameters
    fails when it is built, with the spec's own error.
    """

    protocols: tuple[str, ...]
    n_bins: int
    ball_grid: tuple[int, ...]
    trials: int = 10
    seed: int = 0
    params: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Cluster workers the sweep fans out over; 1 runs it in-process (the
    #: rows are identical either way, see
    #: :func:`repro.experiments.runner.run_sweep`).
    workers: int = 1
    #: Kernel backend for every cell (``None`` keeps the ambient selection).
    #: Travels on each expanded spec, so cluster shards honour it per-shard.
    backend: str | None = None

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ConfigurationError("at least one protocol is required")
        if not self.ball_grid:
            raise ConfigurationError("ball_grid must be non-empty")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {self.workers}"
            )
        self.specs()

    def specs(self) -> list[SimulationSpec]:
        """Expand into one :class:`repro.api.SimulationSpec` per (protocol, m)."""
        return [
            SimulationSpec(
                protocol,
                m,
                self.n_bins,
                seed=self.seed,
                trials=self.trials,
                params=dict(self.params.get(protocol, {})),
                backend=self.backend,
            )
            for protocol in self.protocols
            for m in self.ball_grid
        ]

    def scaled(self, factor: float) -> "SweepConfig":
        """Return a sweep with every ``m`` (and ``n``) scaled by ``factor``.

        Used by the benchmarks to run a faithful but cheaper version of the
        paper-scale experiment.
        """
        if factor <= 0:
            raise ConfigurationError(f"factor must be positive, got {factor}")
        return replace(
            self,
            n_bins=max(1, int(self.n_bins * factor)),
            ball_grid=tuple(max(1, int(m * factor)) for m in self.ball_grid),
        )


#: Paper-scale Figure 3 sweep.  Paper axis: m · 10^-4 from 20 to 100, i.e.
#: m from 2·10^5 to 10^6, averaged over 100 simulations; n is not stated,
#: we fix 10^4.
FIGURE3_DEFAULT = SweepConfig(
    protocols=("adaptive", "threshold"),
    n_bins=10_000,
    ball_grid=tuple(int(2e5) * k for k in range(1, 6)),
    trials=100,
    seed=2013,
)
#: Default problem size for the Table 1 comparison: one ADAPTIVE trial
#: batch, which ``repro sweep --preset table1`` turns into a one-cell sweep.
TABLE1_DEFAULT = SimulationSpec("adaptive", 16_000, 2_000, seed=2013, trials=20)
