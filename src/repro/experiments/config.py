"""Experiment configuration records.

Experiments are described by small frozen dataclasses so that a configuration
can be logged, hashed into output filenames, and reproduced exactly.  The
defaults are the paper-scale runs (Figure 3 at n = 10^4 bins, Table 1 at
n = 2000, m = 8n); the benchmarks use scaled-down variants so the whole suite
runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["TrialConfig", "SweepConfig", "FIGURE3_DEFAULT", "TABLE1_DEFAULT"]


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of repeated trials of one protocol on one problem size.

    Attributes
    ----------
    protocol:
        Registry name of the protocol.
    n_balls, n_bins:
        Problem size.
    trials:
        Number of independent repetitions.
    seed:
        Master seed; per-trial seeds are spawned from it.
    params:
        Extra keyword arguments for the protocol constructor.
    backend:
        Kernel backend for the trials (``None`` keeps the ambient
        selection); forwarded to the spec's ``backend`` field, so it rides
        along when shards ship to cluster workers.
    """

    protocol: str
    n_balls: int
    n_bins: int
    trials: int = 10
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.n_bins <= 0:
            raise ConfigurationError(f"n_bins must be positive, got {self.n_bins}")
        if self.n_balls < 0:
            raise ConfigurationError(f"n_balls must be non-negative, got {self.n_balls}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be at least 1, got {self.trials}")
        from repro.core.backend import validate_backend_name

        validate_backend_name(self.backend)

    def with_size(self, n_balls: int | None = None, n_bins: int | None = None) -> "TrialConfig":
        """Return a copy with a different problem size."""
        return replace(
            self,
            n_balls=self.n_balls if n_balls is None else n_balls,
            n_bins=self.n_bins if n_bins is None else n_bins,
        )

    def to_spec(self):
        """Convert to the unified :class:`repro.api.SimulationSpec`.

        The runner accepts both types and derives identical per-trial seeds
        either way; new code should construct specs directly.
        """
        from repro.api.spec import SimulationSpec

        return SimulationSpec(
            protocol=self.protocol,
            n_balls=self.n_balls,
            n_bins=self.n_bins,
            seed=self.seed,
            trials=self.trials,
            params=dict(self.params),
            backend=self.backend,
        )


@dataclass(frozen=True)
class SweepConfig:
    """A sweep of one :class:`TrialConfig` over a grid of ball counts.

    This is the shape of Figure 3: fixed ``n``, fixed protocols, varying ``m``.
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
        if self.n_bins <= 0:
            raise ConfigurationError(f"n_bins must be positive, got {self.n_bins}")
        if not self.ball_grid:
            raise ConfigurationError("ball_grid must be non-empty")
        if any(m < 0 for m in self.ball_grid):
            raise ConfigurationError("ball_grid entries must be non-negative")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be at least 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {self.workers}"
            )
        from repro.core.backend import validate_backend_name

        validate_backend_name(self.backend)

    def trial_configs(self) -> list["TrialConfig"]:
        """Expand the sweep into one :class:`TrialConfig` per (protocol, m)."""
        configs = []
        for protocol in self.protocols:
            for m in self.ball_grid:
                configs.append(
                    TrialConfig(
                        protocol=protocol,
                        n_balls=m,
                        n_bins=self.n_bins,
                        trials=self.trials,
                        seed=self.seed,
                        params=dict(self.params.get(protocol, {})),
                        backend=self.backend,
                    )
                )
        return configs

    def specs(self) -> list:
        """Expand into one :class:`repro.api.SimulationSpec` per (protocol, m)."""
        return [config.to_spec() for config in self.trial_configs()]

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


def _figure3_default() -> SweepConfig:
    # Paper axis: m · 10^-4 from 20 to 100, i.e. m from 2·10^5 to 10^6,
    # averaged over 100 simulations.  n is not stated; we fix 10^4.
    return SweepConfig(
        protocols=("adaptive", "threshold"),
        n_bins=10_000,
        ball_grid=tuple(int(2e5) * k for k in range(1, 6)),
        trials=100,
        seed=2013,
    )


def _table1_default() -> TrialConfig:
    return TrialConfig(
        protocol="adaptive", n_balls=16_000, n_bins=2_000, trials=20, seed=2013
    )


#: Paper-scale Figure 3 sweep.
FIGURE3_DEFAULT: SweepConfig = _figure3_default()
#: Default problem size for the Table 1 comparison.
TABLE1_DEFAULT: TrialConfig = _table1_default()
