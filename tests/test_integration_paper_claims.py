"""Integration tests asserting the paper's qualitative claims end to end.

These tests run the public API the way a user of the library would and check
that the headline statements of the paper hold on freshly simulated data:

* both protocols meet the deterministic ``ceil(m/n) + 1`` max-load guarantee,
* ADAPTIVE uses ``O(m)`` probes, THRESHOLD close to ``m`` (Theorems 3.1/4.1),
* ADAPTIVE's final distribution is much smoother than THRESHOLD's
  (Corollary 3.5 vs Lemma 4.2),
* the Table 1 ordering of protocols holds,
* the Figure 3 curves have the published shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SimulationSpec,
    available_protocols,
    make_protocol,
    max_final_load,
    simulate,
)
from repro.experiments.config import SweepConfig
from repro.experiments.figure3 import figure3_series, potential_curve, runtime_curve
from repro.stats.summary import relative_spread
from repro.theory.bounds import threshold_excess_probes

# End-to-end simulations at integration scale: excluded from the fast CI
# tier (-m "not slow").
pytestmark = pytest.mark.slow


def simulate_one(protocol, m, n, seed):
    """One seeded run through the public facade."""
    return simulate(SimulationSpec(protocol, n_balls=m, n_bins=n, seed=seed))


class TestHeadlineGuarantees:
    @pytest.mark.parametrize("m,n", [(5_000, 500), (20_000, 500), (12_345, 678)])
    def test_max_load_guarantee_both_protocols(self, m, n):
        for seed in range(3):
            for protocol in ("adaptive", "threshold"):
                result = simulate_one(protocol, m, n, seed=seed)
                assert result.max_load <= max_final_load(m, n)

    def test_adaptive_linear_allocation_time(self):
        """Probes per ball stays bounded as m grows (Theorem 3.1)."""
        n = 1_000
        ratios = [
            simulate_one("adaptive", phi * n, n, seed=phi).probes_per_ball
            for phi in (2, 8, 32)
        ]
        assert max(ratios) < 2.0
        # ... and does not grow systematically with m.
        assert ratios[-1] < ratios[0] + 0.3

    def test_threshold_allocation_time_formula(self):
        """allocation_time ≈ m + O(m^{3/4} n^{1/4}) (Theorem 4.1)."""
        m, n = 200_000, 2_000
        for seed in range(2):
            result = simulate_one("threshold", m, n, seed=seed)
            excess = result.allocation_time - m
            assert 0 <= excess <= 5 * threshold_excess_probes(m, n)

    def test_adaptive_gap_is_logarithmic(self):
        """Corollary 3.5: max − min load = O(log n) w.h.p."""
        for n, m in [(500, 50_000), (2_000, 200_000)]:
            result = simulate_one("adaptive", m, n, seed=0)
            assert result.gap <= 4 * np.log(n)

    def test_smoothness_contrast_heavy_load(self):
        """Lemma 4.2 vs Corollary 3.5 at m = n^2."""
        n = 150
        m = n * n
        adaptive = simulate_one("adaptive", m, n, seed=1)
        threshold = simulate_one("threshold", m, n, seed=1)
        assert adaptive.quadratic_potential() < threshold.quadratic_potential() / 3
        assert adaptive.gap < threshold.gap


class TestTable1Ordering:
    def test_max_load_ordering(self):
        """single-choice > greedy[2] >= near-optimal protocols."""
        m, n = 10_000, 1_000
        loads = {}
        for name in ("single-choice", "greedy", "adaptive", "threshold"):
            protocol = make_protocol(name)
            loads[name] = np.mean(
                [protocol.allocate(m, n, seed=s).max_load for s in range(3)]
            )
        assert loads["single-choice"] > loads["greedy"]
        assert loads["greedy"] >= loads["adaptive"] - 0.5
        assert loads["adaptive"] <= 11 and loads["threshold"] <= 11

    def test_allocation_time_ordering(self):
        """greedy pays d·m probes; threshold/adaptive pay ~m and ~1.4m."""
        m, n = 10_000, 1_000
        greedy = make_protocol("greedy", d=2).allocate(m, n, seed=0)
        adaptive = simulate_one("adaptive", m, n, seed=0)
        threshold = simulate_one("threshold", m, n, seed=0)
        assert greedy.allocation_time == 2 * m
        assert threshold.allocation_time < adaptive.allocation_time < greedy.allocation_time

    def test_registry_exposes_all_protocols(self):
        names = set(available_protocols())
        assert {
            "adaptive",
            "threshold",
            "greedy",
            "left",
            "memory",
            "rebalancing",
            "single-choice",
        } <= names


class TestFigure3Shapes:
    @pytest.fixture(scope="class")
    def sweep_rows(self):
        sweep = SweepConfig(
            protocols=("adaptive", "threshold"),
            n_bins=500,
            ball_grid=(5_000, 10_000, 20_000, 40_000),
            trials=5,
            seed=99,
        )
        return figure3_series(sweep)

    def test_runtime_panel_shape(self, sweep_rows):
        grid, series = runtime_curve(sweep_rows)
        adaptive, threshold = series["adaptive"], series["threshold"]
        # Both grow with m; threshold converges to m; adaptive stays a
        # constant factor above (between 1.1 and 2 empirically).
        for values in (adaptive, threshold):
            assert values == sorted(values)
        for m, t_time, a_time in zip(grid, threshold, adaptive):
            assert m <= t_time < 1.3 * m
            assert 1.05 * m < a_time < 2.0 * m

    def test_potential_panel_shape(self, sweep_rows):
        grid, series = potential_curve(sweep_rows)
        adaptive, threshold = series["adaptive"], series["threshold"]
        # THRESHOLD's potential grows with m ...
        assert threshold[-1] > 2 * threshold[0]
        # ... while ADAPTIVE's converges to an m-independent value.
        assert relative_spread(adaptive[1:]) < 0.35
        assert all(t > a for a, t in zip(adaptive, threshold))
