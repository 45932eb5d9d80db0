"""Tests for the weighted-balls extension (repro.core.weighted)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocol import available_protocols, make_protocol
from repro.core.weighted import (
    WeightedRunResult,
    reference_weighted_adaptive,
    reference_weighted_greedy,
    reference_weighted_left,
    reference_weighted_memory,
    reference_weighted_threshold,
    run_weighted_adaptive,
    run_weighted_greedy,
    run_weighted_left,
    run_weighted_memory,
    run_weighted_threshold,
    weighted_gap_bound,
)
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.probes import FixedProbeStream, ProbeStream

#: Every weighted rule: registry name, runner, and the parameters both take.
RULES = [
    ("weighted-adaptive", run_weighted_adaptive, {}),
    ("weighted-threshold", run_weighted_threshold, {}),
    ("weighted-greedy", run_weighted_greedy, {"d": 2, "tie_break": "first"}),
    ("weighted-left", run_weighted_left, {"d": 3}),
    ("weighted-memory", run_weighted_memory, {"d": 2, "k": 1}),
]

#: Every function that validates a weight vector through the shared check.
WEIGHT_VALIDATORS = [runner for _, runner, _ in RULES] + [
    reference_weighted_adaptive,
    reference_weighted_threshold,
    reference_weighted_greedy,
    reference_weighted_left,
    reference_weighted_memory,
]


class TestValidation:
    def test_invalid_weights(self):
        with pytest.raises(ConfigurationError):
            run_weighted_adaptive(np.array([1.0, -1.0]), 10)
        with pytest.raises(ConfigurationError):
            run_weighted_adaptive(np.array([[1.0]]), 10)

    def test_invalid_bins(self):
        with pytest.raises(ConfigurationError):
            run_weighted_adaptive(np.array([1.0]), 0)

    def test_w_max_must_dominate(self):
        with pytest.raises(ConfigurationError):
            run_weighted_adaptive(np.array([1.0, 5.0]), 10, w_max=2.0)

    def test_gap_bound_validation(self):
        with pytest.raises(ConfigurationError):
            weighted_gap_bound(np.array([]), 10)
        with pytest.raises(ConfigurationError):
            weighted_gap_bound(np.array([1.0]), 0)
        with pytest.raises(ConfigurationError):
            weighted_gap_bound(np.array([0.0]), 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gap_bound_rejects_non_finite_weights(self, bad):
        with pytest.raises(ConfigurationError):
            weighted_gap_bound(np.array([1.0, bad]), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "run", WEIGHT_VALIDATORS, ids=lambda run: run.__name__
    )
    def test_non_finite_weights_rejected_before_any_probe(self, run, bad):
        """A NaN or infinite weight used to be placed (or to fail late)."""
        stream = FixedProbeStream(4, np.random.default_rng(1).integers(0, 4, 1000))
        with pytest.raises(ConfigurationError):
            run(np.array([1.0, bad, 2.0]), 4, probe_stream=stream)
        assert stream.consumed == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "entry",
        ["dispatcher", "reference-dispatch", "from-state", "dispatch-spec",
         "simulation-spec", "protocol", "weighted-run"],
    )
    def test_non_finite_w_max_rejected_before_any_probe(self, entry, bad):
        """``w_max <= 0`` is False for NaN, which passed every check: each
        job then drew its whole probe cap and failed with SimulationError."""
        from repro.api import DispatchSpec, SimulationSpec
        from repro.core.weighted import WeightedAdaptiveProtocol
        from repro.scheduler.dispatcher import Dispatcher
        from repro.scheduler.jobs import uniform_workload
        from repro.scheduler.reference import reference_dispatch

        stream = FixedProbeStream(10, np.random.default_rng(1).integers(0, 10, 1000))
        with pytest.raises(ConfigurationError, match="w_max"):
            if entry == "dispatcher":
                Dispatcher(10, policy="weighted", w_max=bad)
            elif entry == "reference-dispatch":
                reference_dispatch(
                    uniform_workload(5),
                    10,
                    policy="weighted",
                    w_max=bad,
                    probe_stream=stream,
                )
            elif entry == "from-state":
                state = Dispatcher(10, policy="weighted", w_max=2.0).state_dict()
                state["config"]["w_max"] = bad
                Dispatcher.from_state(state)
            elif entry == "dispatch-spec":
                DispatchSpec(policy="weighted", n_servers=10, params={"w_max": bad})
            elif entry == "simulation-spec":
                SimulationSpec("weighted-adaptive", 100, 10, params={"w_max": bad})
            elif entry == "protocol":
                WeightedAdaptiveProtocol(w_max=bad)
            else:
                reference_weighted_adaptive(
                    np.ones(5), 10, probe_stream=stream, w_max=bad
                )
        assert stream.consumed == 0


class TestAllocation:
    def test_zero_balls(self):
        result = run_weighted_adaptive(np.array([]), 10, seed=0)
        assert result.allocation_time == 0
        assert result.total_weight == 0.0

    def test_unit_weights_match_guarantee(self):
        weights = np.ones(500)
        result = run_weighted_adaptive(weights, 50, seed=1)
        # Unit weights: the bound W/n + 2*w_max = 10 + 2 = 12; the classical
        # protocol actually achieves ceil(m/n) + 1 = 11, so 12 certainly holds.
        assert result.max_load <= weighted_gap_bound(weights, 50)
        assert result.counts.sum() == 500
        assert result.loads.sum() == pytest.approx(500.0)

    def test_deterministic(self):
        weights = np.linspace(0.5, 2.0, 200)
        a = run_weighted_adaptive(weights, 40, seed=3)
        b = run_weighted_adaptive(weights, 40, seed=3)
        assert np.array_equal(a.loads, b.loads)
        assert a.allocation_time == b.allocation_time

    def test_heterogeneous_weights_guarantee(self):
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.1, 3.0, size=2_000)
        result = run_weighted_adaptive(weights, 100, seed=4)
        assert result.weighted_max_load <= weighted_gap_bound(weights, 100) + 1e-9
        assert result.weighted_loads.sum() == pytest.approx(weights.sum())

    def test_probes_linear_in_balls(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 1.5, size=5_000)
        result = run_weighted_adaptive(weights, 500, seed=5)
        assert result.probes_per_ball < 3.0

    def test_fixed_probe_stream_replay(self):
        weights = np.array([1.0, 1.0, 1.0])
        choices = np.array([0, 0, 1])
        result = run_weighted_adaptive(
            weights, 3, probe_stream=FixedProbeStream(3, choices)
        )
        # threshold for ball 1: 1/3 + 1 = 1.33 -> bin 0 accepted (load 0)
        # ball 2: 2/3 + 1 = 1.67 -> bin 0 has load 1.0 < 1.67 -> accepted
        # ball 3: 3/3 + 1 = 2    -> bin 1 empty -> accepted
        assert np.array_equal(result.counts, [2, 1, 0])
        assert result.allocation_time == 3

    def test_gap_stays_small_relative_to_average(self):
        rng = np.random.default_rng(11)
        weights = rng.exponential(1.0, size=20_000)
        result = run_weighted_adaptive(weights, 200, seed=6)
        # The average bin holds ~100 units of weight; the adaptive rule keeps
        # every bin within a modest band around it (no bin is ever more than
        # 2*w_max above the average by construction, and the empirical gap is
        # far smaller than the average itself).
        assert (
            result.weighted_max_load
            <= result.weighted_average_load + 2 * weights.max() + 1e-9
        )
        assert result.weighted_gap < result.weighted_average_load

    @settings(max_examples=20, deadline=None)
    @given(
        n_bins=st.integers(2, 20),
        n_balls=st.integers(1, 120),
        seed=st.integers(0, 2**16),
    )
    def test_property_weight_conservation_and_bound(self, n_bins, n_balls, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 2.0, size=n_balls)
        result = run_weighted_adaptive(weights, n_bins, seed=seed)
        assert result.weighted_loads.sum() == pytest.approx(weights.sum())
        assert result.weighted_max_load <= weighted_gap_bound(weights, n_bins) + 1e-9
        assert result.allocation_time >= n_balls


class _SaturatingStream(ProbeStream):
    """Infinite stream that only ever probes bin 0 (never terminates)."""

    def _draw(self, count: int) -> np.ndarray:
        return np.zeros(count, dtype=np.int64)


class TestMaxProbesGuard:
    """Regression: the seed's unbounded ``while True`` probe loop.

    A probe source that never offers a bin below the threshold used to spin
    forever; every weighted runner must now raise
    :class:`~repro.errors.SimulationError` once a single ball exceeds its
    probe cap.  Bin 0 saturates after a few unit balls into two bins (its
    load grows by 1 per ball while the threshold grows by 1/2), so a
    constant-zero stream reproduces the hang deterministically.
    """

    def test_reference_raises_instead_of_spinning(self):
        weights = np.ones(10)
        with pytest.raises(SimulationError):
            reference_weighted_adaptive(
                weights, 2, probe_stream=_SaturatingStream(2), max_probes=50
            )

    def test_engine_raises_instead_of_spinning(self):
        weights = np.ones(10)
        with pytest.raises(SimulationError):
            run_weighted_adaptive(
                weights, 2, probe_stream=_SaturatingStream(2), max_probes=50
            )

    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_engine_raises_for_every_chunking(self, chunk_size):
        weights = np.ones(10)
        with pytest.raises(SimulationError):
            run_weighted_adaptive(
                weights,
                2,
                probe_stream=_SaturatingStream(2),
                max_probes=50,
                chunk_size=chunk_size,
            )

    def test_threshold_guard(self):
        weights = np.ones(8)
        with pytest.raises(SimulationError):
            run_weighted_threshold(
                weights, 2, probe_stream=_SaturatingStream(2), max_probes=4
            )

    def test_default_cap_is_generous(self):
        # A healthy random run never comes close to the default cap.
        weights = np.random.default_rng(0).uniform(0.5, 1.5, 2_000)
        result = run_weighted_adaptive(weights, 50, seed=1)
        assert result.probes_per_ball < 5.0

    def test_invalid_max_probes(self):
        with pytest.raises(ConfigurationError):
            run_weighted_adaptive(np.ones(3), 2, seed=0, max_probes=0)


class TestEdgeCases:
    def test_zero_balls_all_runners(self):
        for runner in (run_weighted_adaptive, run_weighted_threshold):
            result = runner(np.array([]), 7, seed=0)
            assert result.allocation_time == 0
            assert result.total_weight == 0.0
            assert np.array_equal(result.counts, np.zeros(7, dtype=np.int64))
        greedy = run_weighted_greedy(np.array([]), 7, seed=0)
        assert greedy.allocation_time == 0

    def test_single_bin(self):
        weights = np.random.default_rng(3).uniform(0.2, 4.0, 100)
        for runner in (run_weighted_adaptive, run_weighted_threshold):
            result = runner(weights, 1, seed=2)
            assert result.counts[0] == 100
            assert result.weighted_loads[0] == pytest.approx(weights.sum())
            # One bin: the first probe of every ball is below threshold.
            assert result.allocation_time == 100
        greedy = run_weighted_greedy(weights, 1, seed=2, d=2)
        assert greedy.counts[0] == 100
        assert greedy.allocation_time == 200

    def test_w_max_exactly_equal_to_weight_max(self):
        weights = np.random.default_rng(4).uniform(0.5, 2.0, 300)
        choices = np.random.default_rng(5).integers(0, 16, size=10_000)
        explicit = run_weighted_adaptive(
            weights,
            16,
            probe_stream=FixedProbeStream(16, choices),
            w_max=float(weights.max()),
        )
        default = run_weighted_adaptive(
            weights, 16, probe_stream=FixedProbeStream(16, choices)
        )
        assert np.array_equal(explicit.weighted_loads, default.weighted_loads)
        assert explicit.allocation_time == default.allocation_time


class TestRegistryProtocols:
    def test_weighted_protocols_registered(self):
        names = set(available_protocols())
        assert {"weighted-adaptive", "weighted-threshold", "weighted-greedy"} <= names

    @pytest.mark.parametrize(
        "name", ["weighted-adaptive", "weighted-threshold", "weighted-greedy"]
    )
    def test_params_round_trip(self, name):
        protocol = make_protocol(name, weight_dist="bimodal", low=0.5, high=8.0)
        rebuilt = make_protocol(name, **protocol.params())
        assert rebuilt.params() == protocol.params()

    def test_allocate_returns_weighted_record(self):
        protocol = make_protocol("weighted-adaptive", weight_dist="pareto")
        result = protocol.allocate(500, 20, seed=3)
        assert isinstance(result, WeightedRunResult)
        assert int(result.loads.sum()) == 500  # counts obey the base invariant
        assert result.weighted_loads.sum() == pytest.approx(result.total_weight)
        record = result.as_record()
        assert record["weighted_max_load"] >= record["total_weight"] / 20
        assert record["weighted_gap"] >= 0

    def test_seeded_runs_are_deterministic(self):
        protocol = make_protocol("weighted-greedy", weight_dist="exponential", d=2)
        a = protocol.allocate(400, 16, seed=9)
        b = protocol.allocate(400, 16, seed=9)
        assert np.array_equal(a.weighted_loads, b.weighted_loads)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize(
        "name,run,params", RULES, ids=[name for name, _, _ in RULES]
    )
    def test_runner_reproduces_registry_run(self, name, run, params):
        """A runner is its rule's registry session on the given weights."""
        registry = make_protocol(name, weight_dist="exponential", **params).allocate(
            900, 62, seed=12
        )
        runner = run(registry.weights, 62, seed=12, **params)
        assert np.array_equal(runner.loads, registry.loads)
        assert np.array_equal(runner.weighted_loads, registry.weighted_loads)
        assert runner.allocation_time == registry.allocation_time
        assert runner.w_max_used == registry.w_max_used
        assert runner.params == {}

    def test_unknown_weight_dist_rejected(self):
        with pytest.raises(ConfigurationError):
            make_protocol("weighted-adaptive", weight_dist="nope")
