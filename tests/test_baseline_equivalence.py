"""Replay-stream equivalence tests for the chunked baseline engine.

The chunked vectorised baselines (:mod:`repro.baselines`) and the
ball-by-ball loops of :mod:`repro.baselines.reference` are fed the same
pre-computed choice vector through two
:class:`~repro.runtime.probes.FixedProbeStream` instances (and the same
``seed``, which fully determines the auxiliary tie-break randomness); every
baseline must produce bit-identical loads, probe counts and stream
consumption across sizes — including ``m >> n``, ``n_balls = 0`` and
``d = 1``.  Further groups certify chunk-size invariance of the engine,
seeded (no explicit stream) equivalence, and the ``group_boundaries``
partition properties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    GreedyProtocol,
    LeftProtocol,
    MemoryProtocol,
    RebalancingProtocol,
    group_boundaries,
    reference_greedy,
    reference_left,
    reference_memory,
    reference_rebalancing,
)
from repro.baselines.engine import (
    chunked_argmin_commit,
    chunked_move_sweep,
    commit_chunk,
    default_chunk_size,
    matrix_source,
)
from repro.core.window import conflict_free_rows
from repro.errors import ConfigurationError
from repro.runtime.probes import FixedProbeStream

#: (n_balls, n_bins) grid: tiny, square, heavily loaded (m >> n), sparse
#: (n > m), empty, and one whose default chunks (n/d² balls: 1,000, 250 and
#: 111 at d = 1, 2, 3) start above the engine's per-ball tail.
SIZES = [
    (0, 6), (1, 4), (24, 24), (400, 12), (2000, 8), (60, 240), (500, 100),
    (3000, 1000),
]


def choice_vector(m: int, n: int, d: int, seed: int = 99) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n, size=max(m, 1) * d, dtype=np.int64)


class TestGreedyEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_replay_bit_identical(self, size, d, tie_break):
        m, n = size
        choices = choice_vector(m, n, d)
        vec_stream = FixedProbeStream(n, choices)
        ref_stream = FixedProbeStream(n, choices)
        result = GreedyProtocol(d=d, tie_break=tie_break).allocate(
            m, n, seed=7, probe_stream=vec_stream
        )
        loads, probes = reference_greedy(
            m, n, seed=7, d=d, tie_break=tie_break, probe_stream=ref_stream
        )
        assert np.array_equal(result.loads, loads)
        assert result.allocation_time == probes == m * d
        assert vec_stream.consumed == ref_stream.consumed == m * d

    def test_replay_without_seed_uses_documented_fallback(self):
        """With no seed the replay tie-break falls back to AUX_SEED, so two
        replays of the same vector still agree bit-for-bit."""
        m, n, d = 300, 9, 2
        choices = choice_vector(m, n, d)
        result = GreedyProtocol(d=d).allocate(
            m, n, probe_stream=FixedProbeStream(n, choices)
        )
        loads, _ = reference_greedy(
            m, n, d=d, probe_stream=FixedProbeStream(n, choices)
        )
        assert np.array_equal(result.loads, loads)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_seeded_run_equals_reference(self, d):
        """With a plain seed both sides consume the same probe generator and
        derive the same auxiliary tie-break child."""
        result = GreedyProtocol(d=d).allocate(700, 50, seed=21)
        loads, probes = reference_greedy(700, 50, seed=21, d=d)
        assert np.array_equal(result.loads, loads)
        assert result.allocation_time == probes


class TestLeftEquivalence:
    @pytest.mark.parametrize(
        "size", [(0, 6), (1, 4), (24, 24), (400, 12), (2000, 8), (3000, 1000)]
    )
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_replay_bit_identical(self, size, d):
        m, n = size
        if n % d:
            pytest.skip("replay needs equal groups")
        choices = choice_vector(m, n, d)
        vec_stream = FixedProbeStream(n, choices)
        ref_stream = FixedProbeStream(n, choices)
        result = LeftProtocol(d=d).allocate(m, n, probe_stream=vec_stream)
        loads, probes = reference_left(m, n, d=d, probe_stream=ref_stream)
        assert np.array_equal(result.loads, loads)
        assert result.allocation_time == probes == m * d
        assert vec_stream.consumed == ref_stream.consumed == m * d

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_run_equals_reference(self, size, d):
        m, n = size
        if n < d:
            pytest.skip("need at least d bins")
        result = LeftProtocol(d=d).allocate(m, n, seed=13)
        loads, probes = reference_left(m, n, seed=13, d=d)
        assert np.array_equal(result.loads, loads)
        assert result.allocation_time == probes


class TestMemoryEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("dk", [(1, 1), (2, 2), (1, 0), (3, 1), (1, 3)])
    def test_replay_bit_identical(self, size, dk):
        m, n = size
        d, k = dk
        choices = choice_vector(m, n, d)
        vec_stream = FixedProbeStream(n, choices)
        ref_stream = FixedProbeStream(n, choices)
        result = MemoryProtocol(d=d, k=k).allocate(m, n, probe_stream=vec_stream)
        loads, probes = reference_memory(m, n, d=d, k=k, probe_stream=ref_stream)
        assert np.array_equal(result.loads, loads)
        assert result.allocation_time == probes == m * d
        assert vec_stream.consumed == ref_stream.consumed == m * d


class TestRebalancingEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("d", [2, 3])
    def test_replay_bit_identical(self, size, d):
        m, n = size
        choices = choice_vector(m, n, d)
        vec_stream = FixedProbeStream(n, choices)
        ref_stream = FixedProbeStream(n, choices)
        result = RebalancingProtocol(d=d).allocate(m, n, probe_stream=vec_stream)
        loads, probes, moves = reference_rebalancing(
            m, n, d=d, probe_stream=ref_stream
        )
        assert np.array_equal(result.loads, loads)
        assert result.allocation_time == probes
        assert result.costs.reallocations == moves

    def test_max_passes_forwarded(self):
        m, n, d = 600, 10, 2
        choices = choice_vector(m, n, d)
        capped = RebalancingProtocol(d=d, max_passes=1).allocate(
            m, n, probe_stream=FixedProbeStream(n, choices)
        )
        loads, _, moves = reference_rebalancing(
            m, n, d=d, max_passes=1, probe_stream=FixedProbeStream(n, choices)
        )
        assert np.array_equal(capped.loads, loads)
        assert capped.costs.reallocations == moves


class TestEngineInvariants:
    def test_chunk_size_does_not_change_outcome(self):
        """Any chunk partition commits the same placements: the conflict-free
        rule makes every chunk exactly reproduce the sequential prefix."""
        m, n, d = 900, 30, 2
        choices = np.random.default_rng(3).integers(0, n, size=(m, d), dtype=np.int64)
        outcomes = []
        for chunk in (1, 3, 64, None):
            loads = np.zeros(n, dtype=np.int64)
            assignments = np.empty(m, dtype=np.int64)
            chunked_argmin_commit(
                loads,
                matrix_source(choices),
                m,
                d,
                chunk_size=chunk,
                assignments=assignments,
            )
            outcomes.append((loads, assignments))
        for loads, assignments in outcomes[1:]:
            assert np.array_equal(outcomes[0][0], loads)
            assert np.array_equal(outcomes[0][1], assignments)

    def test_move_sweep_chunk_invariance(self):
        m, n, d = 400, 16, 2
        rng = np.random.default_rng(5)
        choices = rng.integers(0, n, size=(m, d), dtype=np.int64)
        states = []
        for chunk in (1, 7, None):
            loads = np.zeros(n, dtype=np.int64)
            placement = np.empty(m, dtype=np.int64)
            chunked_argmin_commit(
                loads, matrix_source(choices), m, d, assignments=placement
            )
            moved = chunked_move_sweep(loads, choices, placement, chunk_size=chunk)
            states.append((loads, placement, moved))
        for loads, placement, moved in states[1:]:
            assert np.array_equal(states[0][0], loads)
            assert np.array_equal(states[0][1], placement)
            assert states[0][2] == moved

    def test_commit_chunk_single_bin_degenerates_gracefully(self):
        """With one bin every row conflicts; the engine must still commit one
        ball per sub-phase and terminate."""
        loads = np.zeros(1, dtype=np.int64)
        rows = np.zeros((17, 2), dtype=np.int64)
        commit_chunk(loads, rows)
        assert loads[0] == 17

    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(10, 2) >= 1
        assert default_chunk_size(10_000_000, 1) <= 1 << 14
        with pytest.raises(ConfigurationError):
            default_chunk_size(0, 2)

    def test_conflict_free_rows_semantics(self):
        rows = np.array(
            [
                [0, 1],  # first row: always free
                [2, 2],  # in-row duplicate only: free
                [1, 3],  # 1 seen in row 0: conflict
                [4, 5],  # fresh: free
                [5, 6],  # 5 seen in row 3: conflict
            ]
        )
        assert conflict_free_rows(rows).tolist() == [True, True, False, True, False]

    def test_conflict_free_rows_rejects_non_matrix(self):
        with pytest.raises(ConfigurationError):
            conflict_free_rows(np.arange(4))


class TestGroupBoundariesProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5000),
        d=st.integers(1, 64),
    )
    def test_partition_properties(self, n, d):
        if n < d:
            with pytest.raises(ConfigurationError):
                group_boundaries(n, d)
            return
        boundaries = group_boundaries(n, d)
        sizes = np.diff(boundaries)
        assert boundaries.shape == (d + 1,)
        assert boundaries[0] == 0 and boundaries[-1] == n
        assert int(sizes.sum()) == n
        assert np.all(sizes >= 1)
        # Balanced: no two groups differ by more than one bin, larger first.
        assert int(sizes.max() - sizes.min()) <= 1
        assert np.all(np.diff(sizes) <= 0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 600), d=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_left_choices_stay_within_groups(self, n, d, seed):
        """Every seeded left[d] run keeps group g's samples inside group g —
        checked indirectly: with m = 1 the single ball lands in group of the
        winning (leftmost-minimum) choice, which is always group 0."""
        if n < d:
            return
        result = LeftProtocol(d=d).allocate(1, n, seed=seed)
        boundaries = group_boundaries(n, d)
        placed = int(np.flatnonzero(result.loads)[0])
        assert boundaries[0] <= placed < boundaries[1]
