"""Tests for the single-choice baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.single_choice import SingleChoiceProtocol, run_single_choice
from repro.errors import ConfigurationError
from repro.runtime.probes import FixedProbeStream


class TestSingleChoice:
    def test_allocation_time_equals_m(self, problem_size):
        m, n = problem_size
        result = run_single_choice(m, n, seed=0)
        assert result.allocation_time == m
        assert result.costs.probes == m

    def test_all_balls_placed(self, problem_size):
        m, n = problem_size
        assert int(run_single_choice(m, n, seed=1).loads.sum()) == m

    def test_matches_bincount_of_fixed_stream(self):
        choices = np.array([0, 1, 1, 2, 2, 2, 4])
        result = SingleChoiceProtocol().allocate(
            7, 5, probe_stream=FixedProbeStream(5, choices)
        )
        assert np.array_equal(result.loads, [1, 2, 3, 0, 1])

    def test_passes_bounded_and_split_invariant(self, monkeypatch):
        # A run longer than one pass draws in bounded passes and still
        # counts every probe once, in order.
        seeded = run_single_choice(30, 5, seed=9)
        choices = np.random.default_rng(9).integers(0, 5, size=31)
        monkeypatch.setattr("repro.baselines.single_choice._BATCH_ELEMENT_BUDGET", 7)
        stream = FixedProbeStream(5, choices)
        result = SingleChoiceProtocol().allocate(30, 5, probe_stream=stream)
        assert np.array_equal(result.loads, np.bincount(choices[:30], minlength=5))
        assert stream.consumed == 30 and stream.remaining == 1
        assert np.array_equal(run_single_choice(30, 5, seed=9).loads, seeded.loads)

    def test_deterministic(self):
        a = run_single_choice(1000, 100, seed=3)
        b = run_single_choice(1000, 100, seed=3)
        assert np.array_equal(a.loads, b.loads)

    def test_zero_balls(self):
        result = run_single_choice(0, 5, seed=0)
        assert result.allocation_time == 0

    def test_max_load_worse_than_two_choice(self):
        """The classical 'power of two choices' separation."""
        from repro.baselines.greedy import run_greedy

        m = n = 3000
        single = [run_single_choice(m, n, seed=s).max_load for s in range(3)]
        greedy = [run_greedy(m, n, seed=s, d=2).max_load for s in range(3)]
        assert np.mean(single) > np.mean(greedy)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            run_single_choice(5, 0)
        with pytest.raises(ConfigurationError):
            run_single_choice(-1, 5)

    def test_mismatched_stream(self):
        with pytest.raises(ConfigurationError):
            SingleChoiceProtocol().allocate(3, 5, probe_stream=FixedProbeStream(4, np.arange(4)))

    def test_no_parameters_accepted(self):
        with pytest.raises(TypeError):
            SingleChoiceProtocol(d=2)  # type: ignore[call-arg]
