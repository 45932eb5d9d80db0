"""Replay-stream equivalence tests for the batched dispatch engine.

The batched :class:`~repro.scheduler.dispatcher.Dispatcher` and the
ball-by-ball :func:`~repro.scheduler.reference.reference_dispatch` are fed the
same pre-computed choice vector through two :class:`FixedProbeStream`
instances; every policy and every workload generator must produce bit-identical
assignments, probe counts and per-server state.  A second group checks that
the batched engine is invariant under how the work is partitioned (streaming
batch boundaries, window block sizes) and that a seeded run equals its own
reference — i.e. the refactor changed no observable output for a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.probes import FixedProbeStream
from repro.scheduler.dispatcher import Dispatcher
from repro.scheduler.jobs import (
    Workload,
    bursty_workload,
    heavy_tailed_workload,
    uniform_workload,
    weighted_workload,
)
from repro.scheduler.reference import reference_dispatch

POLICIES = (
    "adaptive",
    "threshold",
    "greedy",
    "left",
    "memory",
    "single",
    "weighted",
    "weighted-left",
)

# 120 is divisible by the d values used below, as the left policy requires.
N_JOBS = 1500
N_SERVERS = 120


def make_workload(kind: str) -> Workload:
    if kind == "uniform":
        return uniform_workload(N_JOBS)
    if kind == "heavy-tailed":
        return heavy_tailed_workload(N_JOBS, seed=11)
    return bursty_workload(N_JOBS, seed=11, burst_size=200, burst_gap=3.0)


def choice_vector(length: int, seed: int = 99) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, N_SERVERS, size=length, dtype=np.int64
    )


def assert_outcomes_identical(batched, reference) -> None:
    assert np.array_equal(batched.assignments, reference.assignments)
    assert batched.probes == reference.probes
    assert np.array_equal(batched.job_counts, reference.job_counts)
    assert np.array_equal(batched.work, reference.work)
    assert batched.metrics.makespan == reference.metrics.makespan
    assert batched.metrics.max_jobs == reference.metrics.max_jobs
    assert batched.metrics.probes_per_job == reference.metrics.probes_per_job


class TestFixedStreamReplay:
    @pytest.mark.parametrize("workload_kind", ["uniform", "heavy-tailed", "bursty"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical_to_reference(self, policy, workload_kind):
        workload = make_workload(workload_kind)
        choices = choice_vector(30 * N_JOBS)
        batched = Dispatcher(
            N_SERVERS,
            policy=policy,
            d=2,
            probe_stream=FixedProbeStream(N_SERVERS, choices),
        ).dispatch(workload)
        reference = reference_dispatch(
            workload,
            N_SERVERS,
            policy=policy,
            d=2,
            probe_stream=FixedProbeStream(N_SERVERS, choices),
        )
        assert_outcomes_identical(batched, reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_seeded_run_equals_reference(self, policy):
        """With a plain seed the batched engine consumes the exact probe
        sequence the per-job loop would have, so outcomes are unchanged."""
        workload = heavy_tailed_workload(N_JOBS, seed=5)
        batched = Dispatcher(N_SERVERS, policy=policy, d=3, seed=21).dispatch(workload)
        reference = reference_dispatch(
            workload, N_SERVERS, policy=policy, d=3, seed=21
        )
        assert_outcomes_identical(batched, reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_block_size_does_not_change_outcome(self, policy):
        workload = make_workload("bursty")
        choices = choice_vector(30 * N_JOBS)
        outcomes = [
            Dispatcher(
                N_SERVERS,
                policy=policy,
                probe_stream=FixedProbeStream(N_SERVERS, choices),
                block_size=block_size,
            ).dispatch(workload)
            for block_size in (None, 7, 256)
        ]
        for other in outcomes[1:]:
            assert np.array_equal(outcomes[0].assignments, other.assignments)
            assert outcomes[0].probes == other.probes


class TestStreamingBatches:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_dispatch_batch_partition_invariance(self, policy):
        """Streaming the jobs in arbitrary chunks matches one-shot dispatch."""
        workload = heavy_tailed_workload(N_JOBS, seed=8)
        sizes = workload.sizes()
        choices = choice_vector(30 * N_JOBS, seed=123)

        one_shot = Dispatcher(
            N_SERVERS, policy=policy, probe_stream=FixedProbeStream(N_SERVERS, choices)
        ).dispatch(workload)

        streamed = Dispatcher(
            N_SERVERS, policy=policy, probe_stream=FixedProbeStream(N_SERVERS, choices)
        )
        parts = []
        for start in range(0, N_JOBS, 217):  # deliberately stage-misaligned
            parts.append(
                streamed.dispatch_batch(
                    sizes[start : start + 217], total_jobs=N_JOBS
                )
            )
        assignments = np.concatenate(parts)

        assert np.array_equal(assignments, one_shot.assignments)
        assert streamed.probes == one_shot.probes
        assert np.array_equal(streamed.job_counts, one_shot.job_counts)
        np.testing.assert_allclose(streamed.work, one_shot.work)

    def test_streaming_outcome_snapshot(self):
        dispatcher = Dispatcher(50, policy="adaptive", seed=0)
        dispatcher.dispatch_batch(np.ones(300))
        dispatcher.dispatch_batch(np.ones(200))
        outcome = dispatcher.outcome()
        assert int(outcome.job_counts.sum()) == 500
        assert outcome.metrics.max_jobs <= 500 // 50 + 1
        assert dispatcher.jobs_dispatched == 500

    def test_threshold_requires_consistent_total(self):
        from repro.errors import ConfigurationError

        dispatcher = Dispatcher(10, policy="threshold", seed=0)
        dispatcher.dispatch_batch(np.ones(30), total_jobs=40)
        with pytest.raises(ConfigurationError):
            dispatcher.dispatch_batch(np.ones(20), total_jobs=40)

    def test_threshold_rejects_changing_total(self):
        from repro.errors import ConfigurationError

        dispatcher = Dispatcher(10, policy="threshold", seed=0)
        dispatcher.dispatch_batch(np.ones(30), total_jobs=40)
        with pytest.raises(ConfigurationError):
            dispatcher.dispatch_batch(np.ones(10), total_jobs=400)

    def test_threshold_requires_total_when_streaming(self):
        from repro.errors import ConfigurationError

        dispatcher = Dispatcher(10, policy="threshold", seed=0)
        with pytest.raises(ConfigurationError):
            dispatcher.dispatch_batch(np.ones(5))

    def test_assignments_do_not_alias_replay_vector(self):
        choices = choice_vector(100)
        stream = FixedProbeStream(N_SERVERS, choices)
        assignments = Dispatcher(
            N_SERVERS, policy="single", probe_stream=stream
        ).dispatch_batch(np.ones(50))
        assert not np.shares_memory(assignments, choices)

    def test_reset_clears_state(self):
        dispatcher = Dispatcher(20, policy="adaptive", seed=1)
        dispatcher.dispatch_batch(np.ones(100))
        dispatcher.reset()
        assert dispatcher.probes == 0
        assert dispatcher.jobs_dispatched == 0
        assert int(dispatcher.job_counts.sum()) == 0
        assert float(dispatcher.work.sum()) == 0.0

    def test_reset_clears_remembered_servers(self):
        dispatcher = Dispatcher(20, policy="memory", d=1, k=2, seed=1)
        dispatcher.dispatch_batch(np.ones(100))
        assert dispatcher._memory
        dispatcher.reset()
        assert dispatcher._memory == []


class TestWeightedPolicy:
    """The weighted work-balancing policy on its native workloads."""

    @pytest.mark.parametrize("dist", ["pareto", "exponential", "bimodal"])
    def test_bit_identical_on_weighted_workloads(self, dist):
        workload = weighted_workload(N_JOBS, seed=17, weight_dist=dist)
        choices = choice_vector(30 * N_JOBS, seed=31)
        batched = Dispatcher(
            N_SERVERS,
            policy="weighted",
            probe_stream=FixedProbeStream(N_SERVERS, choices),
        ).dispatch(workload)
        reference = reference_dispatch(
            workload,
            N_SERVERS,
            policy="weighted",
            probe_stream=FixedProbeStream(N_SERVERS, choices),
        )
        assert_outcomes_identical(batched, reference)

    def test_fixed_w_max_matches_reference(self):
        workload = weighted_workload(N_JOBS, seed=23, weight_dist="bimodal")
        bound = float(workload.sizes().max())
        choices = choice_vector(30 * N_JOBS, seed=37)
        batched = Dispatcher(
            N_SERVERS,
            policy="weighted",
            w_max=bound,
            probe_stream=FixedProbeStream(N_SERVERS, choices),
        ).dispatch(workload)
        reference = reference_dispatch(
            workload,
            N_SERVERS,
            policy="weighted",
            w_max=bound,
            probe_stream=FixedProbeStream(N_SERVERS, choices),
        )
        assert_outcomes_identical(batched, reference)

    def test_work_guarantee_holds(self):
        """Every server's work stays within W/n + 2*w_max of the rule."""
        workload = weighted_workload(2_000, seed=3, weight_dist="pareto")
        outcome = Dispatcher(50, policy="weighted", seed=4).dispatch(workload)
        sizes = workload.sizes()
        bound = sizes.sum() / 50 + 2 * sizes.max()
        assert float(outcome.work.max()) <= bound + 1e-9

    def test_rejects_non_positive_sizes(self):
        from repro.errors import ConfigurationError

        dispatcher = Dispatcher(10, policy="weighted", seed=0)
        with pytest.raises(ConfigurationError):
            dispatcher.dispatch_batch(np.array([1.0, 0.0, 2.0]))

    def test_rejects_sizes_above_declared_w_max(self):
        from repro.errors import ConfigurationError

        dispatcher = Dispatcher(10, policy="weighted", w_max=2.0, seed=0)
        with pytest.raises(ConfigurationError):
            dispatcher.dispatch_batch(np.array([1.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("small_burst", [None, 0])
    @pytest.mark.parametrize("policy", ["weighted", "weighted-left"])
    def test_non_finite_sizes_leave_dispatcher_untouched(
        self, policy, small_burst, bad
    ):
        """A NaN or infinite size is refused before any state changes."""
        from repro.errors import ConfigurationError

        def dispatcher():
            d = Dispatcher(
                N_SERVERS, policy=policy, small_burst=small_burst, seed=5
            )
            d.dispatch_batch(np.full(6, 1.5))
            return d

        refused, control = dispatcher(), dispatcher()
        before = refused.state_dict()
        with pytest.raises(ConfigurationError):
            refused.validate_sizes([1.0, bad])
        with pytest.raises(ConfigurationError):
            refused.dispatch_batch(np.array([1.0, bad, 2.0]))
        assert refused.state_dict() == before
        sizes = np.linspace(0.5, 3.0, 40)
        assert np.array_equal(
            refused.dispatch_batch(sizes), control.dispatch_batch(sizes)
        )
        assert refused.state_dict() == control.state_dict()

    @pytest.mark.parametrize("small_burst", [None, 0])
    def test_failed_dispatch_leaves_running_totals_unchanged(self, small_burst):
        """The running totals move only once the engine has placed the batch.

        A restored state may hold pre-existing work; at 1e9 on every server
        no job fits, so each call fails.  Its sizes exceed every size seen,
        so both totals would move if they were written before the engine ran.
        """
        from repro.errors import SimulationError

        dispatcher = Dispatcher(50, policy="weighted", small_burst=small_burst, seed=3)
        dispatcher.dispatch_batch(np.full(10, 1.0))
        state = dispatcher.state_dict()
        state["work"] = [1e9] * 50
        restored = Dispatcher.from_state(state)
        for _ in range(2):
            with pytest.raises(SimulationError):
                restored.dispatch_batch(np.array([3.0, 4.0]))
            after = restored.state_dict()
            for key in ("weight_dispatched", "w_max_seen", "jobs_dispatched",
                        "probes", "job_counts", "work"):
                assert after[key] == state[key], key

    def test_reset_clears_weighted_state(self):
        dispatcher = Dispatcher(10, policy="weighted", seed=0)
        dispatcher.dispatch_batch(np.full(40, 2.5))
        assert dispatcher.weight_dispatched == pytest.approx(100.0)
        dispatcher.reset()
        assert dispatcher.weight_dispatched == 0.0
        assert dispatcher._w_max_seen == 0.0


class TestTable1Policies:
    def test_left_policy_requires_equal_groups(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Dispatcher(10, policy="left", d=3)
        with pytest.raises(ConfigurationError):
            reference_dispatch(uniform_workload(5), 10, policy="left", d=3)

    def test_memory_policy_matches_reference_for_dk_grid(self):
        workload = uniform_workload(600)
        for d, k in [(1, 1), (2, 2), (1, 3), (3, 0)]:
            choices = choice_vector(30 * N_JOBS, seed=d * 10 + k)
            batched = Dispatcher(
                N_SERVERS,
                policy="memory",
                d=d,
                k=k,
                probe_stream=FixedProbeStream(N_SERVERS, choices),
            ).dispatch(workload)
            reference = reference_dispatch(
                workload,
                N_SERVERS,
                policy="memory",
                d=d,
                k=k,
                probe_stream=FixedProbeStream(N_SERVERS, choices),
            )
            assert_outcomes_identical(batched, reference)

    def test_left_policy_beats_single_choice(self):
        workload = uniform_workload(5000)
        left = Dispatcher(100, policy="left", d=2, seed=0).dispatch(workload)
        single = Dispatcher(100, policy="single", seed=0).dispatch(workload)
        assert left.metrics.max_jobs <= single.metrics.max_jobs
