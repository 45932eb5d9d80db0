"""Tests for experiment configuration records (repro.experiments.config)."""

from __future__ import annotations

import pytest

from repro.api.spec import SimulationSpec
from repro.errors import ConfigurationError
from repro.experiments.config import FIGURE3_DEFAULT, TABLE1_DEFAULT, SweepConfig


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(protocols=(), n_bins=10, ball_grid=(10,))
        with pytest.raises(ConfigurationError):
            SweepConfig(protocols=("adaptive",), n_bins=0, ball_grid=(10,))
        with pytest.raises(ConfigurationError):
            SweepConfig(protocols=("adaptive",), n_bins=10, ball_grid=())
        with pytest.raises(ConfigurationError):
            SweepConfig(protocols=("adaptive",), n_bins=10, ball_grid=(-1,))
        with pytest.raises(ConfigurationError):
            SweepConfig(protocols=("adaptive",), n_bins=10, ball_grid=(10,), trials=0)

    def test_specs_expansion(self):
        sweep = SweepConfig(
            protocols=("adaptive", "threshold"),
            n_bins=100,
            ball_grid=(100, 200),
            trials=5,
            params={"adaptive": {"offset": 2}},
        )
        specs = sweep.specs()
        assert len(specs) == 4
        assert all(isinstance(spec, SimulationSpec) for spec in specs)
        adaptive_specs = [s for s in specs if s.protocol == "adaptive"]
        assert all(s.params == {"offset": 2} for s in adaptive_specs)
        assert {s.n_balls for s in specs} == {100, 200}
        assert {(s.trials, s.seed, s.n_bins) for s in specs} == {(5, 0, 100)}

    @pytest.mark.parametrize(
        "overrides, field_name",
        [
            ({"protocols": ("adaptive", "nope")}, "protocol"),
            ({"params": {"adaptive": {"bogus": 1}}}, "params"),
            ({"backend": "bogus"}, "backend"),
        ],
    )
    def test_bad_cell_fails_when_the_sweep_is_built(self, overrides, field_name):
        # Checked by expanding the specs, not at the sweep's first run.
        fields = {"protocols": ("adaptive",), "n_bins": 10, "ball_grid": (10,)}
        with pytest.raises(ConfigurationError, match=field_name):
            SweepConfig(**{**fields, **overrides})

    def test_scaled(self):
        sweep = SweepConfig(protocols=("adaptive",), n_bins=1000, ball_grid=(10_000,))
        scaled = sweep.scaled(0.1)
        assert scaled.n_bins == 100
        assert scaled.ball_grid == (1000,)

    def test_scaled_invalid(self):
        sweep = SweepConfig(protocols=("adaptive",), n_bins=1000, ball_grid=(10_000,))
        with pytest.raises(ConfigurationError):
            sweep.scaled(0.0)


class TestDefaults:
    def test_figure3_default_matches_paper_axis(self):
        # m · 10^-4 runs from 20 to 100 in the paper.
        assert min(FIGURE3_DEFAULT.ball_grid) == 200_000
        assert max(FIGURE3_DEFAULT.ball_grid) == 1_000_000
        assert FIGURE3_DEFAULT.trials == 100
        assert set(FIGURE3_DEFAULT.protocols) == {"adaptive", "threshold"}

    def test_table1_default(self):
        assert TABLE1_DEFAULT == SimulationSpec(
            "adaptive", 16_000, 2_000, seed=2013, trials=20
        )
