"""Replay-stream certification of the (d,k)-memory chunked commit.

:func:`~repro.baselines.memory_engine.chunked_memory_commit` and the
ball-by-ball :func:`~repro.baselines.reference.reference_memory` are fed the
same pre-computed choice vector through two
:class:`~repro.runtime.probes.FixedProbeStream` instances; loads, per-ball
assignments, remembered sets and probe consumption must be **bit-identical**
for every ``(d, k)`` configuration — the ``k = 0`` d-choice engine, the
two-candidate ``(1, 1)`` loop and the general loop — and for every chunk
size.  A second group certifies that the rewired
:class:`~repro.baselines.memory.MemoryProtocol` is exactly that commit
(one-shot, streamed through ``Simulation.step`` with any split, and via
``repro.simulate``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation, SimulationSpec, simulate
from repro.baselines.memory import MemoryProtocol, memory_hand_off, run_memory
from repro.baselines.memory_engine import chunked_memory_commit
from repro.baselines.reference import reference_memory
from repro.errors import ConfigurationError
from repro.runtime.probes import FixedProbeStream

N_BINS = 48
N_BALLS = 900


def choice_vector(m: int, d: int, n_bins: int = N_BINS, seed: int = 31) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n_bins, size=m * d, dtype=np.int64)


def engine_run(
    m: int,
    n_bins: int,
    d: int,
    k: int,
    choices: np.ndarray,
    chunk_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int], int]:
    """Drive the engine directly; returns loads, assignments, memory, probes."""
    loads = np.zeros(n_bins, dtype=np.int64)
    assignments = np.empty(m, dtype=np.int64)
    stream = FixedProbeStream(n_bins, choices)
    memory = chunked_memory_commit(
        stream, loads, [], m, d, k, assignments=assignments, chunk_size=chunk_size
    )
    return loads, assignments, memory, stream.consumed


def oracle_run(
    m: int, n_bins: int, d: int, k: int, choices: np.ndarray
) -> tuple[np.ndarray, list[int], list[int]]:
    """The literal scalar rule; returns loads, assignments, memory."""
    counts = [0] * n_bins
    placed: list[int] = []
    memory = memory_hand_off(
        counts, choices.reshape(m, d).tolist(), [], k, assignments=placed
    )
    return np.asarray(counts, dtype=np.int64), placed, memory


class TestEngineReplayEquivalence:
    @pytest.mark.parametrize(
        "d,k",
        [(1, 1), (1, 0), (2, 1), (3, 1), (2, 2), (1, 3), (2, 3)],
    )
    def test_bit_identical_loads_probes_and_memory(self, d, k):
        """Every (d,k) — including k=0, k>d — replays the reference exactly."""
        choices = choice_vector(N_BALLS, d)
        ref_loads, ref_probes = reference_memory(
            N_BALLS, N_BINS, d=d, k=k, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        loads, assignments, memory, probes = engine_run(N_BALLS, N_BINS, d, k, choices)
        oracle_loads, oracle_assign, oracle_memory = oracle_run(
            N_BALLS, N_BINS, d, k, choices
        )
        assert np.array_equal(loads, ref_loads)
        assert probes == ref_probes == N_BALLS * d
        assert np.array_equal(loads, oracle_loads)
        assert np.array_equal(assignments, np.asarray(oracle_assign))
        assert [int(b) for b in memory] == [int(b) for b in oracle_memory]

    def test_zero_balls(self):
        loads, assignments, memory, probes = engine_run(
            0, N_BINS, 1, 1, np.empty(0, dtype=np.int64)
        )
        assert probes == 0 and not loads.any() and memory == []

    def test_heavily_loaded_case(self):
        """m >> n keeps the engine exact when every bin holds many balls."""
        m, n = 6_000, 8
        choices = choice_vector(m, 1, n_bins=n)
        ref_loads, _ = reference_memory(
            m, n, d=1, k=1, probe_stream=FixedProbeStream(n, choices)
        )
        loads, _, _, _ = engine_run(m, n, 1, 1, choices)
        assert np.array_equal(loads, ref_loads)

    def test_single_bin(self):
        """n=1 makes every ball a shared-bin special case."""
        m = 64
        choices = np.zeros(m, dtype=np.int64)
        loads, _, memory, _ = engine_run(m, 1, 1, 1, choices)
        assert loads.tolist() == [m] and memory == [0]

    def test_adversarial_wide_band_falls_back_scalar(self):
        """A replay stream that piles the early balls onto few bins spreads
        the loads far apart before it turns uniform; the (1,1) loop must
        stay exact across the skew."""
        n = 24
        rng = np.random.default_rng(0)
        skew = np.concatenate(
            [rng.integers(0, 2, size=800), rng.integers(0, n, size=800)]
        )
        ref_loads, _ = reference_memory(
            1600, n, d=1, k=1, probe_stream=FixedProbeStream(n, skew)
        )
        loads, _, _, _ = engine_run(1600, n, 1, 1, skew)
        assert np.array_equal(loads, ref_loads)

    @pytest.mark.parametrize("d,k", [(2, 1), (1, 1)])
    def test_streamed_state_hand_off(self, d, k):
        """Splitting the balls across engine calls carries the remembered
        set exactly (the dispatcher's streaming contract)."""
        choices = choice_vector(N_BALLS, d)
        full_loads, full_assign, full_memory, _ = engine_run(
            N_BALLS, N_BINS, d, k, choices
        )
        loads = np.zeros(N_BINS, dtype=np.int64)
        assignments = np.empty(N_BALLS, dtype=np.int64)
        stream = FixedProbeStream(N_BINS, choices)
        memory: list[int] = []
        placed = 0
        for step in (1, 7, 130, 400, N_BALLS):
            count = min(step, N_BALLS - placed)
            memory = chunked_memory_commit(
                stream, loads, memory, count, d, k,
                assignments=assignments[placed : placed + count],
            )
            placed += count
        assert np.array_equal(loads, full_loads)
        assert np.array_equal(assignments, full_assign)
        assert memory == full_memory

    def test_validation(self):
        stream = FixedProbeStream(4, np.zeros(4, dtype=np.int64))
        loads = np.zeros(4, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            chunked_memory_commit(stream, loads, [], -1, 1, 1)
        with pytest.raises(ConfigurationError):
            chunked_memory_commit(stream, loads, [], 1, 0, 1)
        with pytest.raises(ConfigurationError):
            chunked_memory_commit(stream, loads, [], 1, 1, -1)
        with pytest.raises(ConfigurationError):
            chunked_memory_commit(stream, loads, [], 1, 1, 1, chunk_size=0)


class TestChunkSizeInvariance:
    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(
        n_bins=st.integers(1, 32),
        n_balls=st.integers(0, 400),
        d=st.integers(1, 3),
        k=st.integers(0, 3),
        chunk_size=st.one_of(st.none(), st.integers(1, 128)),
        seed=st.integers(0, 2**16),
    )
    def test_property_replay_equivalence(self, n_bins, n_balls, d, k, chunk_size, seed):
        choices = np.random.default_rng(seed).integers(
            0, n_bins, size=n_balls * d, dtype=np.int64
        )
        ref_loads, ref_probes = reference_memory(
            n_balls, n_bins, d=d, k=k, probe_stream=FixedProbeStream(n_bins, choices)
        )
        loads, _, _, probes = engine_run(
            n_balls, n_bins, d, k, choices, chunk_size=chunk_size
        )
        assert np.array_equal(loads, ref_loads)
        assert probes == ref_probes

    @pytest.mark.parametrize("chunk_size", [1, 2, 13, 100, 4096])
    def test_chunk_size_never_changes_the_run(self, chunk_size):
        choices = choice_vector(N_BALLS, 1)
        baseline, base_assign, base_memory, _ = engine_run(
            N_BALLS, N_BINS, 1, 1, choices
        )
        loads, assignments, memory, _ = engine_run(
            N_BALLS, N_BINS, 1, 1, choices, chunk_size=chunk_size
        )
        assert np.array_equal(loads, baseline)
        assert np.array_equal(assignments, base_assign)
        assert memory == base_memory


class TestRewiredProtocol:
    def test_allocate_matches_reference(self):
        choices = choice_vector(N_BALLS, 1)
        result = MemoryProtocol(d=1, k=1).allocate(
            N_BALLS, N_BINS, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        ref_loads, ref_probes = reference_memory(
            N_BALLS, N_BINS, d=1, k=1, probe_stream=FixedProbeStream(N_BINS, choices)
        )
        assert np.array_equal(result.loads, ref_loads)
        assert result.allocation_time == ref_probes

    def test_seeded_allocate_unchanged_vs_hand_off_loop(self):
        """The rewire must not change any seeded run: the engine output is
        the scalar hand-off's, probe for probe."""
        from repro.baselines.memory_engine import chunked_memory_hand_off
        from repro.runtime.probes import RandomProbeStream

        result = run_memory(2_000, 64, seed=17, d=2, k=1)
        counts = [0] * 64
        chunked_memory_hand_off(
            RandomProbeStream(64, 17), counts, [], 2_000, 2, 1
        )
        assert np.array_equal(result.loads, np.asarray(counts))

    @pytest.mark.parametrize("splits", [[1], [3, 500, 2], [250, 250, 250, 250]])
    def test_step_split_bit_identity(self, splits):
        spec = SimulationSpec(
            "memory", n_balls=N_BALLS, n_bins=N_BINS, seed=5, params={"d": 1, "k": 1}
        )
        one_shot = Simulation(spec).run()
        sim = Simulation(spec)
        for step in splits:
            sim.step(step)
        stepped = sim.results()
        assert np.array_equal(stepped.loads, one_shot.loads)
        assert stepped.allocation_time == one_shot.allocation_time

    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(
        splits=st.lists(st.integers(1, 700), min_size=1, max_size=5),
        seed=st.integers(0, 2**16),
        d=st.integers(1, 3),
        k=st.integers(0, 2),
    )
    def test_any_step_split_any_dk(self, splits, seed, d, k):
        spec = SimulationSpec(
            "memory", n_balls=1_200, n_bins=32, seed=seed, params={"d": d, "k": k}
        )
        one_shot = Simulation(spec).run()
        sim = Simulation(spec)
        for step in splits:
            sim.step(step)
        stepped = sim.results()
        assert np.array_equal(stepped.loads, one_shot.loads)

    def test_simulate_facade(self):
        spec = SimulationSpec(
            "memory", n_balls=500, n_bins=50, seed=3, params={"d": 1, "k": 1}
        )
        direct = run_memory(500, 50, seed=3, d=1, k=1)
        assert np.array_equal(simulate(spec).loads, direct.loads)
