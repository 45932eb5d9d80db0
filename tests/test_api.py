"""Tests for the unified spec-driven API (repro.api).

Covers the acceptance criteria of the API redesign:

* ``SimulationSpec.from_dict(spec.to_dict())`` is the identity (and the JSON
  wrappers are lossless) for every registered protocol × weight
  distribution — property-tested with hypothesis;
* ``simulate(spec)`` is bit-identical to every legacy ``run_*`` entry point
  and to hand-constructed ``Dispatcher`` runs;
* ``step(k)`` chunking is invariant: any split of a run into ``step`` calls
  yields the same final ``RunResult`` as a one-shot ``run()``;
* spec validation failures raise ``ConfigurationError`` naming the offending
  field;
* the deprecated entry points are gone in 2.0.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import (
    DispatchSpec,
    Simulation,
    SimulationSpec,
    WorkloadSpec,
    simulate,
    spec_from_dict,
    spec_from_json,
)
from repro.core.protocol import available_protocols, make_protocol
from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.probes import FixedProbeStream
from repro.scheduler import Dispatcher
from repro.scheduler.jobs import WORKLOADS, make_workload
from repro.stats.distributions import WEIGHT_DISTRIBUTIONS

ALL_PROTOCOLS = tuple(available_protocols())
STREAMING_PROTOCOLS = tuple(
    name for name in ALL_PROTOCOLS if make_protocol(name).streaming
)
WEIGHTED_PROTOCOLS = (
    "weighted-adaptive",
    "weighted-threshold",
    "weighted-greedy",
    "weighted-left",
    "weighted-memory",
)
DISPATCH_POLICIES = (
    "adaptive",
    "threshold",
    "greedy",
    "left",
    "memory",
    "single",
    "weighted",
    "weighted-left",
)


def assert_same_result(a, b) -> None:
    assert a.protocol == b.protocol
    assert np.array_equal(a.loads, b.loads)
    assert a.allocation_time == b.allocation_time
    assert a.costs.probes == b.costs.probes
    assert a.costs.probe_checkpoints == b.costs.probe_checkpoints
    assert a.params == b.params
    wa = getattr(a, "weighted_loads", None)
    wb = getattr(b, "weighted_loads", None)
    assert (wa is None) == (wb is None)
    if wa is not None:
        assert np.array_equal(wa, wb)
        assert np.array_equal(a.weights, b.weights)
        assert a.w_max_used == b.w_max_used


# --------------------------------------------------------------------- #
# Spec round trips
# --------------------------------------------------------------------- #
class TestSpecRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        protocol=st.sampled_from(ALL_PROTOCOLS),
        n_balls=st.integers(0, 10**9),
        n_bins=st.integers(1, 10**9),
        seed=st.one_of(st.none(), st.integers(0, 2**63 - 1)),
        trials=st.integers(1, 1000),
        record_trace=st.booleans(),
    )
    def test_dict_and_json_round_trip_is_identity(
        self, protocol, n_balls, n_bins, seed, trials, record_trace
    ):
        params = make_protocol(protocol).params()
        spec = SimulationSpec(
            protocol=protocol,
            n_balls=n_balls,
            n_bins=n_bins,
            seed=seed,
            trials=trials,
            record_trace=record_trace,
            params=params,
        )
        assert SimulationSpec.from_dict(spec.to_dict()) == spec
        assert SimulationSpec.from_json(spec.to_json()) == spec
        assert spec_from_dict(spec.to_dict()) == spec
        assert spec_from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("protocol", WEIGHTED_PROTOCOLS)
    @pytest.mark.parametrize("dist", sorted(WEIGHT_DISTRIBUTIONS))
    def test_every_protocol_times_weight_distribution(self, protocol, dist):
        spec = SimulationSpec(
            protocol=protocol,
            n_balls=100,
            n_bins=10,
            seed=1,
            params={"weight_dist": dist},
        )
        assert SimulationSpec.from_json(spec.to_json()) == spec
        # The rebuilt spec drives an identical run.
        assert_same_result(
            simulate(spec), simulate(SimulationSpec.from_json(spec.to_json()))
        )

    def test_constructor_params_round_trip_through_spec(self):
        # A protocol rebuilt from spec params equals one built directly.
        for name in ALL_PROTOCOLS:
            params = make_protocol(name).params()
            spec = SimulationSpec(name, n_balls=10, n_bins=4, params=params)
            assert spec.build_protocol().params() == params

    def test_dispatch_spec_round_trip(self):
        spec = DispatchSpec(
            "memory",
            n_servers=64,
            seed=3,
            params={"d": 2, "k": 1},
            block_size=17,
            small_burst=5,
            workload=WorkloadSpec(
                "bursty", n_jobs=500, seed=4, params={"burst_size": 50}
            ),
        )
        assert DispatchSpec.from_dict(spec.to_dict()) == spec
        assert DispatchSpec.from_json(spec.to_json()) == spec
        assert spec_from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            SimulationSpec.from_dict(
                {"protocol": "adaptive", "n_balls": 1, "n_bins": 1, "bogus": 2}
            )
        with pytest.raises(ConfigurationError, match="kind"):
            spec_from_dict({"kind": "nope"})


# --------------------------------------------------------------------- #
# simulate() ≡ legacy entry points
# --------------------------------------------------------------------- #
class TestLegacyEquivalence:
    M, N, SEED = 5_000, 100, 1234

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_simulate_matches_protocol_allocate(self, name):
        n_balls, n_bins = self.M, self.N
        if name == "parallel-collision":
            n_balls = self.N  # the collision protocol is capacity-bounded
        legacy = make_protocol(name).allocate(n_balls, n_bins, seed=self.SEED)
        spec = SimulationSpec(name, n_balls=n_balls, n_bins=n_bins, seed=self.SEED)
        assert_same_result(simulate(spec), legacy)

    def test_simulate_matches_run_wrappers(self):
        from repro.baselines import (
            run_greedy,
            run_left,
            run_memory,
            run_rebalancing,
            run_single_choice,
        )
        from repro.core.adaptive import run_adaptive
        from repro.core.threshold import run_threshold
        from repro.parallel.rounds import run_parallel_greedy

        cases = [
            ("adaptive", {}, run_adaptive(self.M, self.N, seed=7)),
            ("threshold", {}, run_threshold(self.M, self.N, seed=7)),
            ("greedy", {"d": 3}, run_greedy(self.M, self.N, seed=7, d=3)),
            ("left", {"d": 2}, run_left(self.M, 100, seed=7, d=2)),
            ("memory", {"d": 1, "k": 1}, run_memory(self.M, self.N, seed=7)),
            (
                "rebalancing",
                {"d": 2},
                run_rebalancing(self.M, self.N, seed=7, d=2),
            ),
            ("single-choice", {}, run_single_choice(self.M, self.N, seed=7)),
            (
                "parallel-greedy",
                {"d": 2, "rounds": 3},
                run_parallel_greedy(self.M, self.N, seed=7, d=2, rounds=3),
            ),
        ]
        for name, params, legacy in cases:
            n_bins = legacy.n_bins
            spec = SimulationSpec(
                name, n_balls=self.M, n_bins=n_bins, seed=7, params=params
            )
            result = simulate(spec)
            assert np.array_equal(result.loads, legacy.loads), name
            assert result.allocation_time == legacy.allocation_time, name

    def test_multi_trial_simulate_matches_run_trials(self):
        from repro.experiments.runner import run_trials

        spec = SimulationSpec(
            "greedy", n_balls=2_000, n_bins=50, seed=5, trials=4, params={"d": 2}
        )
        batch = simulate(spec)
        legacy = run_trials(spec)
        assert len(batch) == 4
        for a, b in zip(batch, legacy):
            assert_same_result(a, b)

    @pytest.mark.parametrize("policy", DISPATCH_POLICIES)
    def test_dispatch_spec_matches_manual_dispatcher(self, policy):
        workload = WorkloadSpec("heavy-tailed", n_jobs=3_000, seed=11)
        spec = DispatchSpec(
            policy,
            n_servers=64,
            seed=21,
            params={"d": 2}
            if policy in ("greedy", "left", "memory", "weighted-left")
            else {},
            workload=workload,
        )
        via_spec = simulate(spec)
        manual = Dispatcher(
            64,
            policy=policy,
            d=2,
            seed=21,
        ).dispatch(make_workload("heavy-tailed", 3_000, 11))
        assert np.array_equal(via_spec.assignments, manual.assignments)
        assert np.array_equal(via_spec.job_counts, manual.job_counts)
        assert np.array_equal(via_spec.work, manual.work)
        assert via_spec.probes == manual.probes

    def test_dispatch_spec_without_workload_rejected(self):
        spec = DispatchSpec("adaptive", n_servers=8)
        with pytest.raises(ConfigurationError, match="workload"):
            simulate(spec)


# --------------------------------------------------------------------- #
# Streaming sessions
# --------------------------------------------------------------------- #
class TestStreaming:
    M, N = 3_000, 64

    @pytest.mark.parametrize("name", STREAMING_PROTOCOLS)
    def test_two_step_split_matches_one_shot(self, name):
        spec = SimulationSpec(name, n_balls=self.M, n_bins=self.N, seed=9)
        one_shot = Simulation(spec).run()
        sim = Simulation(spec)
        sim.step(self.M // 3)
        sim.step(self.M)
        assert_same_result(sim.results(), one_shot)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(STREAMING_PROTOCOLS),
        splits=st.lists(st.integers(1, 1500), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_any_split_yields_identical_result(self, name, splits, seed):
        spec = SimulationSpec(name, n_balls=self.M, n_bins=self.N, seed=seed)
        one_shot = Simulation(spec).run()
        sim = Simulation(spec)
        for k in splits:
            sim.step(k)
        assert_same_result(sim.results(), one_shot)

    def test_state_reports_progress_and_potential(self):
        spec = SimulationSpec("adaptive", n_balls=2_000, n_bins=100, seed=2)
        sim = Simulation(spec)
        assert sim.state.placed == 0 and not sim.state.done
        state = sim.step(500)
        assert state.placed == 500
        assert state.probes >= 500
        assert state.loads.sum() == 500
        assert state.quadratic_potential >= 0.0
        assert state.probes_per_ball >= 1.0
        final = sim.results()
        assert sim.state.done and sim.state.placed == 2_000
        assert final.n_balls == 2_000

    def test_weighted_state_exposes_weighted_loads(self):
        spec = SimulationSpec(
            "weighted-adaptive",
            n_balls=1_000,
            n_bins=20,
            seed=3,
            params={"weight_dist": "pareto"},
        )
        sim = Simulation(spec)
        state = sim.step(400)
        assert state.weighted_loads is not None
        assert state.weighted_loads.sum() > 0
        assert_same_result(sim.results(), Simulation(spec).run())

    def test_adaptive_checkpoints_visible_mid_run(self):
        spec = SimulationSpec("adaptive", n_balls=1_000, n_bins=100, seed=4)
        sim = Simulation(spec)
        sim.step(250)
        # 250 balls into 100 bins: stages of 100 balls, two completed.
        assert len(sim.state.probe_checkpoints) == 2

    def test_non_streaming_protocols_say_so(self):
        spec = SimulationSpec("parallel-greedy", n_balls=100, n_bins=10, seed=0)
        sim = Simulation(spec)
        with pytest.raises(ConfigurationError, match="parallel-greedy"):
            sim.step(10)
        # run() still works in one shot.
        assert simulate(spec).n_balls == 100

    def test_step_after_results_rejected(self):
        spec = SimulationSpec("adaptive", n_balls=100, n_bins=10, seed=0)
        sim = Simulation(spec)
        sim.run()
        with pytest.raises(ProtocolError):
            sim.step(1)

    def test_replay_stream_streaming(self):
        choices = np.random.default_rng(0).integers(0, 16, size=20_000)
        spec = SimulationSpec("threshold", n_balls=4_000, n_bins=16)
        one = Simulation(
            spec, probe_stream=FixedProbeStream(16, choices)
        ).run()
        sim = Simulation(spec, probe_stream=FixedProbeStream(16, choices))
        for k in (1, 999, 3_000):
            sim.step(k)
        assert_same_result(sim.results(), one)


# --------------------------------------------------------------------- #
# Small-burst dispatcher fast path
# --------------------------------------------------------------------- #
class TestSmallBurstFastPath:
    @pytest.mark.parametrize("policy", DISPATCH_POLICIES)
    def test_bit_identical_to_vectorised_path(self, policy):
        n_servers = 32
        rng = np.random.default_rng(5)
        choices = rng.integers(0, n_servers, size=400_000)
        bursts = [rng.uniform(0.5, 1.5, size=size) for size in (1, 3, 37, 99, 250)]
        total = sum(b.size for b in bursts)

        def run(small_burst):
            dispatcher = Dispatcher(
                n_servers,
                policy=policy,
                d=2,
                probe_stream=FixedProbeStream(n_servers, choices.copy()),
                small_burst=small_burst,
            )
            assignments = [
                dispatcher.dispatch_batch(burst, total_jobs=total)
                for burst in bursts
            ]
            return np.concatenate(assignments), dispatcher.outcome()

        fast_assign, fast = run(small_burst=1_000)  # everything scalar
        slow_assign, slow = run(small_burst=0)  # everything vectorised
        assert np.array_equal(fast_assign, slow_assign)
        assert np.array_equal(fast.job_counts, slow.job_counts)
        assert np.array_equal(fast.work, slow.work)
        assert fast.probes == slow.probes

    @pytest.mark.parametrize("policy", DISPATCH_POLICIES)
    def test_bit_identical_at_1000_servers_across_a_restore(self, policy):
        """Service-sized bursts, an ADAPTIVE stage boundary and a restore.

        About 1,200 jobs in bursts of 1-40 cross the first stage boundary
        (1,000 jobs) inside a burst, on either route; the dispatcher is
        rebuilt from its JSON state halfway through.
        """
        n_servers = 1000
        rng = np.random.default_rng(8)
        bursts = [
            rng.uniform(0.5, 1.5, size=int(size))
            for size in rng.integers(1, 41, size=60)
        ]
        total = sum(b.size for b in bursts)
        choices = rng.integers(0, n_servers, size=20_000)

        def run(small_burst):
            dispatcher = Dispatcher(
                n_servers,
                policy=policy,
                d=2,
                probe_stream=FixedProbeStream(n_servers, choices.copy()),
                small_burst=small_burst,
            )
            assignments = []
            for i, burst in enumerate(bursts):
                if i == 30:
                    state = json.loads(json.dumps(dispatcher.state_dict()))
                    dispatcher = Dispatcher.from_state(state)
                assignments.append(dispatcher.dispatch_batch(burst, total_jobs=total))
            return np.concatenate(assignments), dispatcher.outcome()

        fast_assign, fast = run(small_burst=41)  # every burst scalar
        slow_assign, slow = run(small_burst=0)  # every burst vectorised
        assert total > n_servers
        assert np.array_equal(fast_assign, slow_assign)
        assert np.array_equal(fast.job_counts, slow.job_counts)
        assert np.array_equal(fast.work, slow.work)
        assert fast.probes == slow.probes

    def test_small_burst_validation(self):
        with pytest.raises(ConfigurationError):
            Dispatcher(4, small_burst=-1)


# --------------------------------------------------------------------- #
# ConfigurationError field naming
# --------------------------------------------------------------------- #
class TestValidationNamesField:
    @pytest.mark.parametrize(
        "build, field_name",
        [
            (lambda: SimulationSpec("nope", 1, 1), "protocol"),
            (lambda: SimulationSpec("adaptive", -1, 1), "n_balls"),
            (lambda: SimulationSpec("adaptive", 1, 0), "n_bins"),
            (lambda: SimulationSpec("adaptive", 1, 1, seed="x"), "seed"),
            (lambda: SimulationSpec("adaptive", 1, 1, trials=0), "trials"),
            (
                lambda: SimulationSpec(
                    "weighted-adaptive", 1, 1, params={"weight_dist": "nope"}
                ),
                "params",
            ),
            (
                lambda: SimulationSpec("adaptive", 1, 1, params={"bogus": 1}),
                "params",
            ),
            (lambda: WorkloadSpec("nope", 1), "workload.kind"),
            (lambda: WorkloadSpec("uniform", -1), "workload.n_jobs"),
            (
                lambda: WorkloadSpec("uniform", 1, params={"mean_size": -1}),
                "workload.params",
            ),
            (
                lambda: WorkloadSpec("weighted", 1, params={"weight_dist": "nope"}),
                "workload.params",
            ),
            (lambda: DispatchSpec("nope", 1), "policy"),
            (lambda: DispatchSpec("adaptive", 0), "n_servers"),
            (lambda: DispatchSpec("greedy", 4, params={"zz": 1}), "params"),
            (lambda: DispatchSpec("greedy", 4, params={"d": 0}), "policy/params"),
        ],
    )
    def test_offending_field_is_named(self, build, field_name):
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        assert field_name in str(excinfo.value)


# --------------------------------------------------------------------- #
# Deprecation shims (removed in 2.0)
# --------------------------------------------------------------------- #
class TestDeprecationShims:
    def test_removed_names_are_gone(self):
        import repro.scheduler

        assert repro.__version__.startswith("2.")
        for module, name in (
            (repro, "run_adaptive"),
            (repro, "run_threshold"),
            (repro.scheduler, "DispatchOutcome"),
        ):
            assert not hasattr(module, name), name
            assert name not in module.__all__

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing


# --------------------------------------------------------------------- #
# Workload registry
# --------------------------------------------------------------------- #
class TestWorkloadRegistry:
    def test_all_generators_registered(self):
        assert {"uniform", "heavy-tailed", "bursty", "weighted"} <= set(WORKLOADS)

    def test_make_workload_matches_direct_call(self):
        from repro.scheduler.jobs import bursty_workload

        direct = bursty_workload(500, 3, burst_size=50)
        named = make_workload("bursty", 500, 3, burst_size=50)
        assert np.array_equal(direct.sizes(), named.sizes())
        assert np.array_equal(direct.arrivals(), named.arrivals())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="nope"):
            make_workload("nope", 10)
