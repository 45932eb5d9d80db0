"""Replay-stream equivalence certification of the chunked weighted engine.

The chunked engines behind :func:`repro.core.weighted.run_weighted_adaptive`,
:func:`~repro.core.weighted.run_weighted_threshold` and
:func:`~repro.core.weighted.run_weighted_greedy` are fed the same
pre-computed choice vector as their ball-by-ball references through two
:class:`~repro.runtime.probes.FixedProbeStream` instances; loads, counts and
probe consumption must be **bit-identical** (exact float equality, no
tolerances) for every weight family — including heavy-tailed ones — and for
every chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveProtocol
from repro.core.weighted import (
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
)
from repro.core.weighted_engine import default_weighted_chunk_size
from repro.errors import ConfigurationError
from repro.runtime.probes import FixedProbeStream

N_BINS = 64
N_BALLS = 800


def weight_family(kind: str, m: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0.1, 2.0, m)
    if kind == "pareto":
        return rng.pareto(1.5, m) + 0.1
    if kind == "pareto-extreme":
        # A few balls carry almost all the weight (alpha close to 1).
        return rng.pareto(1.05, m) + 0.05
    if kind == "exponential":
        return rng.exponential(1.0, m) + 1e-9
    if kind == "bimodal":
        return np.where(rng.random(m) < 0.1, 25.0, 0.5)
    if kind == "equal":
        return np.full(m, 1.0)
    raise AssertionError(kind)


FAMILIES = ["uniform", "pareto", "pareto-extreme", "exponential", "bimodal", "equal"]


def choice_vector(m: int, n_bins: int = N_BINS, seed: int = 99) -> np.ndarray:
    # Generous buffer: the adaptive/threshold rules use ~O(1) probes per
    # ball, so exhausting this vector would itself flag a consumption bug.
    return np.random.default_rng(seed).integers(
        0, n_bins, size=30 * m + 500, dtype=np.int64
    )


def assert_identical(engine_result, reference_result) -> None:
    assert np.array_equal(
        engine_result.weighted_loads, reference_result.weighted_loads
    )
    assert np.array_equal(engine_result.counts, reference_result.counts)
    assert engine_result.allocation_time == reference_result.allocation_time


class TestAdaptiveReplay:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical(self, family):
        weights = weight_family(family, N_BALLS)
        choices = choice_vector(N_BALLS)
        engine = run_weighted_adaptive(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        reference = reference_weighted_adaptive(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert_identical(engine, reference)

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 64, 513, 10_000])
    def test_chunk_size_invariance(self, chunk_size):
        weights = weight_family("pareto", N_BALLS)
        choices = choice_vector(N_BALLS)
        baseline = run_weighted_adaptive(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        chunked = run_weighted_adaptive(
            weights,
            N_BINS,
            probe_stream=FixedProbeStream(N_BINS, choices),
            chunk_size=chunk_size,
        )
        assert_identical(chunked, baseline)

    def test_heavily_loaded_case(self):
        # m >> n is the regime of the follow-up work; the engine must stay
        # exact when every bin holds many balls.
        weights = weight_family("uniform", 4_000)
        choices = choice_vector(4_000, n_bins=8)
        engine = run_weighted_adaptive(
            weights, 8, probe_stream=FixedProbeStream(8, choices)
        )
        reference = reference_weighted_adaptive(
            weights, 8, probe_stream=FixedProbeStream(8, choices)
        )
        assert_identical(engine, reference)

    def test_explicit_w_max_matches_reference(self):
        weights = weight_family("bimodal", N_BALLS)
        choices = choice_vector(N_BALLS)
        engine = run_weighted_adaptive(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices), w_max=50.0
        )
        reference = reference_weighted_adaptive(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices), w_max=50.0
        )
        assert_identical(engine, reference)

    @pytest.mark.slow
    @settings(max_examples=40, deadline=None)
    @given(
        n_bins=st.integers(1, 24),
        n_balls=st.integers(0, 200),
        seed=st.integers(0, 2**16),
        chunk_size=st.one_of(st.none(), st.integers(1, 64)),
    )
    def test_property_replay_equivalence(self, n_bins, n_balls, seed, chunk_size):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.05, 3.0, n_balls)
        choices = rng.integers(0, n_bins, size=30 * n_balls + 200)
        engine = run_weighted_adaptive(
            weights,
            n_bins,
            probe_stream=FixedProbeStream(n_bins, choices),
            chunk_size=chunk_size,
        )
        reference = reference_weighted_adaptive(
            weights, n_bins, probe_stream=FixedProbeStream(n_bins, choices)
        )
        assert_identical(engine, reference)


class TestThresholdReplay:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical(self, family):
        weights = weight_family(family, N_BALLS)
        choices = choice_vector(N_BALLS)
        engine = run_weighted_threshold(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        reference = reference_weighted_threshold(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert_identical(engine, reference)

    @pytest.mark.parametrize("chunk_size", [1, 13, 4096])
    def test_chunk_size_invariance(self, chunk_size):
        weights = weight_family("exponential", N_BALLS)
        choices = choice_vector(N_BALLS)
        baseline = run_weighted_threshold(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        chunked = run_weighted_threshold(
            weights,
            N_BINS,
            probe_stream=FixedProbeStream(N_BINS, choices),
            chunk_size=chunk_size,
        )
        assert_identical(chunked, baseline)


class TestGreedyReplay:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_random_ties(self, family, d):
        weights = weight_family(family, N_BALLS)
        choices = choice_vector(N_BALLS)
        engine = run_weighted_greedy(
            weights, N_BINS, d=d, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        reference = reference_weighted_greedy(
            weights, N_BINS, d=d, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert_identical(engine, reference)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_above_the_tail(self, family):
        # At 1,000 bins the default chunks hold 250 balls, so each chunk runs
        # conflict-free sub-phases before its per-ball tail.
        m, n = 3000, 1000
        weights = weight_family(family, m)
        choices = choice_vector(m, n)
        engine = run_weighted_greedy(
            weights, n, probe_stream=FixedProbeStream(n, choices)
        )
        reference = reference_weighted_greedy(
            weights, n, probe_stream=FixedProbeStream(n, choices)
        )
        assert_identical(engine, reference)

    def test_bit_identical_first_ties(self):
        weights = weight_family("equal", N_BALLS)
        choices = choice_vector(N_BALLS)
        engine = run_weighted_greedy(
            weights,
            N_BINS,
            tie_break="first",
            probe_stream=FixedProbeStream(N_BINS, choices),
        )
        reference = reference_weighted_greedy(
            weights,
            N_BINS,
            tie_break="first",
            probe_stream=FixedProbeStream(N_BINS, choices),
        )
        assert_identical(engine, reference)

    @pytest.mark.parametrize("chunk_size", [1, 9, 97])
    def test_chunk_size_invariance(self, chunk_size):
        weights = weight_family("pareto", N_BALLS)
        choices = choice_vector(N_BALLS)
        baseline = run_weighted_greedy(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        chunked = run_weighted_greedy(
            weights,
            N_BINS,
            probe_stream=FixedProbeStream(N_BINS, choices),
            chunk_size=chunk_size,
        )
        assert_identical(chunked, baseline)


class TestUnitWeightCorrespondence:
    def test_all_equal_weights_reproduce_unit_adaptive_exactly(self):
        """With w_i = 1 the weighted rule is probe-for-probe unit ADAPTIVE."""
        weights = np.ones(N_BALLS)
        choices = choice_vector(N_BALLS)
        weighted = run_weighted_adaptive(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        unit = AdaptiveProtocol().allocate(
            N_BALLS, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert np.array_equal(weighted.counts, unit.loads)
        assert np.array_equal(weighted.weighted_loads, unit.loads.astype(np.float64))
        assert weighted.allocation_time == unit.allocation_time

    def test_power_of_two_equal_weights_reproduce_unit_adaptive_counts(self):
        """Equal weights that are a power of two scale every float exactly,
        so the run is probe-for-probe the unit ADAPTIVE one."""
        weights = np.full(N_BALLS, 0.25)
        choices = choice_vector(N_BALLS)
        weighted = run_weighted_adaptive(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        unit = AdaptiveProtocol().allocate(
            N_BALLS, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert np.array_equal(weighted.counts, unit.loads)
        assert weighted.allocation_time == unit.allocation_time


class TestEngineHelpers:
    def test_default_chunk_size_bounds(self):
        uniform = np.full(100, 1.0)
        heavy = np.concatenate([np.full(99, 0.01), [100.0]])
        for n_bins in (1, 10, 1_000, 100_000):
            for weights in (uniform, heavy):
                assert 64 <= default_weighted_chunk_size(n_bins, weights) <= 8192
        # Heavier tails tolerate larger chunks (the threshold drifts less
        # relative to the load spread).
        assert default_weighted_chunk_size(1_000, heavy) > default_weighted_chunk_size(
            1_000, uniform
        )

    def test_default_chunk_size_validation(self):
        with pytest.raises(ConfigurationError):
            default_weighted_chunk_size(0, np.ones(4))


class TestLeftReplay:
    N_BINS_LEFT = 64  # divisible by every d below, as the replay contract needs

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_bit_identical(self, family, d):
        weights = weight_family(family, N_BALLS)
        choices = choice_vector(N_BALLS, n_bins=self.N_BINS_LEFT)
        engine = run_weighted_left(
            weights,
            self.N_BINS_LEFT,
            d=d,
            probe_stream=FixedProbeStream(self.N_BINS_LEFT, choices),
        )
        reference = reference_weighted_left(
            weights,
            self.N_BINS_LEFT,
            d=d,
            probe_stream=FixedProbeStream(self.N_BINS_LEFT, choices),
        )
        assert_identical(engine, reference)

    def test_seeded_run_bit_identical_any_groups(self):
        """Seeded runs use the float-offset sampling, so unequal groups work."""
        weights = weight_family("pareto", N_BALLS)
        engine = run_weighted_left(weights, 63, seed=7, d=3)
        reference = reference_weighted_left(weights, 63, seed=7, d=3)
        assert_identical(engine, reference)

    @pytest.mark.parametrize("chunk_size", [1, 9, 450])
    def test_chunk_size_invariance(self, chunk_size):
        weights = weight_family("bimodal", N_BALLS)
        choices = choice_vector(N_BALLS, n_bins=self.N_BINS_LEFT)
        baseline = run_weighted_left(
            weights,
            self.N_BINS_LEFT,
            probe_stream=FixedProbeStream(self.N_BINS_LEFT, choices),
        )
        chunked = run_weighted_left(
            weights,
            self.N_BINS_LEFT,
            probe_stream=FixedProbeStream(self.N_BINS_LEFT, choices),
            chunk_size=chunk_size,
        )
        assert_identical(chunked, baseline)

    def test_all_equal_weights_reproduce_unit_left_exactly(self):
        from repro.baselines.left import LeftProtocol

        weights = np.full(N_BALLS, 1.0)
        choices = choice_vector(N_BALLS, n_bins=self.N_BINS_LEFT)
        weighted = run_weighted_left(
            weights,
            self.N_BINS_LEFT,
            d=2,
            probe_stream=FixedProbeStream(self.N_BINS_LEFT, choices),
        )
        unit = LeftProtocol(d=2).allocate(
            N_BALLS,
            self.N_BINS_LEFT,
            probe_stream=FixedProbeStream(self.N_BINS_LEFT, choices),
        )
        assert np.array_equal(weighted.counts, unit.loads)
        assert np.array_equal(
            weighted.weighted_loads, unit.loads.astype(np.float64)
        )
        assert weighted.allocation_time == unit.allocation_time

    def test_unequal_groups_rejected_on_replay(self):
        weights = weight_family("uniform", 10)
        with pytest.raises(ConfigurationError):
            run_weighted_left(
                weights,
                63,
                d=2,
                probe_stream=FixedProbeStream(63, np.zeros(40, dtype=np.int64)),
            )


class TestMemoryReplay:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (1, 0), (2, 3)])
    def test_bit_identical(self, family, d, k):
        weights = weight_family(family, N_BALLS)
        choices = choice_vector(N_BALLS)
        engine = run_weighted_memory(
            weights, N_BINS, d=d, k=k, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        reference = reference_weighted_memory(
            weights, N_BINS, d=d, k=k, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert_identical(engine, reference)

    @pytest.mark.parametrize("chunk_size", [1, 17, 5000])
    def test_chunk_size_invariance(self, chunk_size):
        weights = weight_family("pareto-extreme", N_BALLS)
        choices = choice_vector(N_BALLS)
        baseline = run_weighted_memory(
            weights, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        chunked = run_weighted_memory(
            weights,
            N_BINS,
            probe_stream=FixedProbeStream(N_BINS, choices),
            chunk_size=chunk_size,
        )
        assert_identical(chunked, baseline)

    def test_all_equal_weights_reproduce_unit_memory_exactly(self):
        from repro.baselines.memory import MemoryProtocol

        weights = np.full(N_BALLS, 1.0)
        choices = choice_vector(N_BALLS)
        weighted = run_weighted_memory(
            weights, N_BINS, d=1, k=1, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        unit = MemoryProtocol(d=1, k=1).allocate(
            N_BALLS, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert np.array_equal(weighted.counts, unit.loads)
        assert np.array_equal(
            weighted.weighted_loads, unit.loads.astype(np.float64)
        )
        assert weighted.allocation_time == unit.allocation_time

    def test_heavily_loaded_case(self):
        weights = weight_family("exponential", 4_000)
        choices = choice_vector(4_000, n_bins=8)
        engine = run_weighted_memory(
            weights, 8, probe_stream=FixedProbeStream(8, choices)
        )
        reference = reference_weighted_memory(
            weights, 8, probe_stream=FixedProbeStream(8, choices)
        )
        assert_identical(engine, reference)
