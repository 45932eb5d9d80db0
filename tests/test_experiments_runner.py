"""Tests for the experiment runner (repro.experiments.runner)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import AllocationResult
from repro.errors import ConfigurationError
from repro.experiments.config import SweepConfig, TrialConfig
from repro.experiments.runner import run_sweep, run_trial, run_trials, summarize_trials

SMALL = TrialConfig(protocol="adaptive", n_balls=500, n_bins=100, trials=4, seed=5)


class TestRunTrial:
    def test_returns_allocation_result(self):
        result = run_trial(SMALL, 0)
        assert isinstance(result, AllocationResult)
        assert result.n_balls == 500

    def test_trials_are_independent_but_reproducible(self):
        first = run_trial(SMALL, 0)
        second = run_trial(SMALL, 1)
        again = run_trial(SMALL, 0)
        assert not np.array_equal(first.loads, second.loads)
        assert np.array_equal(first.loads, again.loads)

    def test_unseeded_runs_stay_independent(self):
        """The cached seed table must not make seed=None batches identical."""
        config = TrialConfig(
            protocol="adaptive", n_balls=500, n_bins=100, trials=2, seed=None
        )
        first = run_trial(config, 0)
        second = run_trial(config, 0)
        assert not np.array_equal(first.loads, second.loads)

    def test_invalid_trial_index(self):
        with pytest.raises(ConfigurationError):
            run_trial(SMALL, 99)
        with pytest.raises(ConfigurationError):
            run_trial(SMALL, -1)

    def test_params_forwarded_to_protocol(self):
        config = TrialConfig(
            protocol="greedy", n_balls=200, n_bins=50, trials=1, seed=0, params={"d": 3}
        )
        result = run_trial(config, 0)
        assert result.allocation_time == 3 * 200


class TestRunTrials:
    def test_count_and_determinism(self):
        results = run_trials(SMALL)
        again = run_trials(SMALL)
        assert len(results) == 4
        for a, b in zip(results, again):
            assert np.array_equal(a.loads, b.loads)

    def test_as_records(self):
        records = run_trials(SMALL, as_records=True)
        assert len(records) == 4
        assert all("max_load" in record for record in records)


class TestSummaries:
    def test_summarize_trials_keys(self):
        summaries = summarize_trials(SMALL)
        assert "allocation_time" in summaries
        assert summaries["max_load"].n_trials == 4

    def test_summarize_custom_metrics(self):
        summaries = summarize_trials(SMALL, metrics=("gap",))
        assert set(summaries) == {"gap"}

    def test_run_sweep_rows(self):
        sweep = SweepConfig(
            protocols=("adaptive", "threshold"),
            n_bins=100,
            ball_grid=(200, 400),
            trials=3,
            seed=1,
        )
        rows = run_sweep(sweep, metrics=("allocation_time", "max_load"))
        assert len(rows) == 4
        for row in rows:
            assert row["allocation_time_mean"] >= row["n_balls"]
            assert "max_load_ci_high" in row
