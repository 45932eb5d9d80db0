"""Tests for the vectorised window-filling primitive (repro.core.window)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backend import use_backend
from repro.core.window import (
    assign_window,
    fill_window,
    fill_window_batch,
    occurrence_ranks,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.probes import BatchedProbeStream, FixedProbeStream, RandomProbeStream


def _unwriteable_loads(n_rows: int | None):
    """Loads no window can update in place: a list and a read-only array."""
    shape = (3,) if n_rows is None else (n_rows, 3)
    frozen = np.zeros(shape, dtype=np.int64)
    frozen.flags.writeable = False
    return [frozen.tolist(), frozen]


class TestOccurrenceRanks:
    def test_documented_example(self):
        assert list(occurrence_ranks(np.array([3, 5, 3, 3, 5]))) == [0, 0, 1, 2, 1]

    def test_empty(self):
        assert occurrence_ranks(np.array([], dtype=int)).size == 0

    def test_all_distinct(self):
        assert list(occurrence_ranks(np.array([4, 1, 9]))) == [0, 0, 0]

    def test_all_equal(self):
        assert list(occurrence_ranks(np.array([2, 2, 2, 2]))) == [0, 1, 2, 3]

    def test_non_1d_raises(self):
        with pytest.raises(ConfigurationError):
            occurrence_ranks(np.zeros((2, 2), dtype=int))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
    def test_matches_naive_counting(self, values):
        values = np.array(values)
        ranks = occurrence_ranks(values)
        seen: dict[int, int] = {}
        for value, rank in zip(values, ranks):
            assert rank == seen.get(int(value), 0)
            seen[int(value)] = seen.get(int(value), 0) + 1


def _naive_fill(loads, limit, n_balls, choices):
    """Ball-by-ball reference of the window semantics."""
    loads = loads.copy()
    probes = 0
    placed = 0
    for j in choices:
        if placed == n_balls:
            break
        probes += 1
        if loads[j] <= limit:
            loads[j] += 1
            placed += 1
        if placed == n_balls:
            break
    return loads, probes


class TestFillWindow:
    def test_zero_balls_is_noop(self):
        loads = np.zeros(5, dtype=np.int64)
        outcome = fill_window(loads, 1, 0, RandomProbeStream(5, seed=0))
        assert outcome.placed == 0 and outcome.probes == 0
        assert loads.sum() == 0

    def test_insufficient_capacity_raises(self):
        loads = np.full(4, 3, dtype=np.int64)
        with pytest.raises(ProtocolError):
            fill_window(loads, 2, 1, RandomProbeStream(4, seed=0))

    def test_mismatched_stream_raises(self):
        loads = np.zeros(4, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            fill_window(loads, 2, 1, RandomProbeStream(5, seed=0))

    def test_negative_balls_raises(self):
        with pytest.raises(ConfigurationError):
            fill_window(np.zeros(4, dtype=np.int64), 1, -1, RandomProbeStream(4))

    def test_places_exact_count(self):
        loads = np.zeros(10, dtype=np.int64)
        outcome = fill_window(loads, 1, 15, RandomProbeStream(10, seed=2))
        assert outcome.placed == 15
        assert loads.sum() == 15
        assert loads.max() <= 2

    def test_stream_consumption_matches_probes(self):
        stream = RandomProbeStream(10, seed=3)
        loads = np.zeros(10, dtype=np.int64)
        outcome = fill_window(loads, 0, 10, stream)
        assert stream.consumed == outcome.probes

    @pytest.mark.parametrize("block_size", [1, 2, 7, 64, None])
    def test_block_size_does_not_change_result_on_fixed_stream(self, block_size):
        rng = np.random.default_rng(0)
        choices = rng.integers(0, 20, size=5000)
        loads_a = np.zeros(20, dtype=np.int64)
        outcome_a = fill_window(
            loads_a, 2, 40, FixedProbeStream(20, choices), block_size=block_size
        )
        expected_loads, expected_probes = _naive_fill(
            np.zeros(20, dtype=np.int64), 2, 40, choices
        )
        assert np.array_equal(loads_a, expected_loads)
        assert outcome_a.probes == expected_probes

    @settings(max_examples=60, deadline=None)
    @given(
        n_bins=st.integers(2, 12),
        limit=st.integers(0, 4),
        data=st.data(),
    )
    def test_property_equivalence_with_naive(self, n_bins, limit, data):
        capacity = n_bins * (limit + 1)
        n_balls = data.draw(st.integers(0, capacity))
        # Provide a long-enough fixed choice vector for both implementations.
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, n_bins, size=capacity * 50 + 100)
        loads_vec = np.zeros(n_bins, dtype=np.int64)
        outcome = fill_window(loads_vec, limit, n_balls, FixedProbeStream(n_bins, choices))
        naive_loads, naive_probes = _naive_fill(
            np.zeros(n_bins, dtype=np.int64), limit, n_balls, choices
        )
        assert np.array_equal(loads_vec, naive_loads)
        assert outcome.probes == naive_probes
        assert outcome.placed == n_balls

    @pytest.mark.parametrize("loads", _unwriteable_loads(None))
    def test_unwriteable_loads_rejected_before_probing(self, loads):
        stream = RandomProbeStream(3, seed=1)
        with pytest.raises(ConfigurationError, match="writeable NumPy array"):
            fill_window(loads, 1, 4, stream)
        assert stream.consumed == 0

    def test_pass_size_bounded_for_large_windows(self):
        # One pass would need ~6.75M probes; memory stays at a bounded pass.
        class RecordingStream(RandomProbeStream):
            largest = 0

            def take(self, count):
                self.largest = max(self.largest, count)
                return super().take(count)

        stream = RecordingStream(10, seed=4)
        loads = np.zeros(10, dtype=np.int64)
        fill_window(loads, 600_000, 5_000_000, stream)
        assert loads.sum() == 5_000_000
        assert stream.largest <= 1 << 22

    def test_existing_loads_respected(self):
        loads = np.array([2, 0, 0], dtype=np.int64)
        choices = np.array([0, 0, 1, 0, 2, 1])
        outcome = fill_window(loads, 1, 3, FixedProbeStream(3, choices))
        # bin 0 is already above the limit: the probes into it are rejected.
        assert np.array_equal(loads, [2, 2, 1])
        assert outcome.probes == 6


class TestAssignWindow:
    """assign_window must mirror fill_window and report placement order."""

    def _sequential_assignments(self, loads, limit, n_balls, choices):
        loads = loads.copy()
        assignments = []
        probes = 0
        cursor = 0
        while len(assignments) < n_balls:
            j = int(choices[cursor])
            cursor += 1
            probes += 1
            if loads[j] <= limit:
                loads[j] += 1
                assignments.append(j)
        return np.array(assignments, dtype=np.int64), probes, loads

    @pytest.mark.parametrize("block_size", [None, 3, 64])
    def test_matches_sequential_process(self, block_size):
        rng = np.random.default_rng(17)
        n_bins, n_balls, limit = 37, 150, 5
        start_loads = rng.integers(0, 3, size=n_bins).astype(np.int64)
        choices = rng.integers(0, n_bins, size=10_000, dtype=np.int64)

        expected, expected_probes, expected_loads = self._sequential_assignments(
            start_loads, limit, n_balls, choices
        )

        loads = start_loads.copy()
        stream = FixedProbeStream(n_bins, choices)
        result = assign_window(loads, limit, n_balls, stream, block_size=block_size)

        assert np.array_equal(result.assignments, expected)
        assert result.probes == expected_probes
        assert np.array_equal(loads, expected_loads)
        assert stream.consumed == expected_probes

    def test_zero_balls(self):
        loads = np.zeros(5, dtype=np.int64)
        stream = FixedProbeStream(5, np.arange(5))
        result = assign_window(loads, 1, 0, stream)
        assert result.assignments.size == 0
        assert result.probes == 0

    def test_insufficient_capacity_raises(self):
        loads = np.full(4, 3, dtype=np.int64)
        stream = FixedProbeStream(4, np.zeros(100, dtype=np.int64))
        with pytest.raises(ProtocolError):
            assign_window(loads, 2, 5, stream)

    @pytest.mark.parametrize("loads", _unwriteable_loads(None))
    def test_unwriteable_loads_rejected_before_probing(self, loads):
        stream = RandomProbeStream(3, seed=1)
        with pytest.raises(ConfigurationError, match="writeable NumPy array"):
            assign_window(loads, 1, 4, stream)
        assert stream.consumed == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_matches_sequential(self, data):
        n_bins = data.draw(st.integers(1, 12))
        limit = data.draw(st.integers(0, 4))
        # From free capacity >= 2 (load below the limit) to bins already
        # over it.
        start = np.array(
            data.draw(
                st.lists(
                    st.integers(0, limit + 3), min_size=n_bins, max_size=n_bins
                )
            ),
            dtype=np.int64,
        )
        capacity = int(np.maximum(limit + 1 - start, 0).sum())
        n_balls = data.draw(st.integers(0, capacity))
        block_size = data.draw(st.none() | st.integers(1, max(1, 3 * n_balls)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        choices = np.random.default_rng(seed).integers(0, n_bins, size=4000)

        expected, expected_probes, expected_loads = self._sequential_assignments(
            start, limit, n_balls, choices
        )
        loads = start.copy()
        stream = FixedProbeStream(n_bins, choices)
        result = assign_window(loads, limit, n_balls, stream, block_size=block_size)

        assert np.array_equal(result.assignments, expected)
        assert result.probes == expected_probes
        assert np.array_equal(loads, expected_loads)
        assert stream.consumed == expected_probes
        assert np.array_equal(
            stream.take(16), choices[expected_probes : expected_probes + 16]
        )


class TestFillWindowBatch:
    @pytest.mark.parametrize("loads", _unwriteable_loads(2))
    def test_unwriteable_loads_rejected_before_probing(self, loads):
        batch = BatchedProbeStream([RandomProbeStream(3, seed=s) for s in (1, 2)])
        with pytest.raises(ConfigurationError, match="writeable NumPy array"):
            fill_window_batch(loads, 1, 4, batch)
        assert [child.consumed for child in batch.children] == [0, 0]

    @staticmethod
    def _twin_children(kind: str, n_bins: int, trials: int):
        """Two equal lists of per-trial streams: seeded or replayed."""
        if kind == "seeded":
            return [
                [RandomProbeStream(n_bins, seed=100 + t) for t in range(trials)]
                for _ in range(2)
            ]
        rng = np.random.default_rng(31)
        vectors = [rng.integers(0, n_bins, size=4000) for _ in range(trials)]
        return [[FixedProbeStream(n_bins, v) for v in vectors] for _ in range(2)]

    @pytest.mark.parametrize("backend", ["numpy", "scalar"])
    @pytest.mark.parametrize("kind", ["seeded", "fixed"])
    def test_rows_equal_fill_window_per_row(self, backend, kind):
        trials, n_bins, limit, n_balls = 3, 97, 6, 300
        rng = np.random.default_rng(7)
        start = rng.integers(0, limit + 2, size=(trials, n_bins))
        batched_children, row_children = self._twin_children(kind, n_bins, trials)
        batched_loads = start.copy()
        row_loads = start.copy()
        with use_backend(backend):
            probes = fill_window_batch(
                batched_loads, limit, n_balls, BatchedProbeStream(batched_children)
            )
            expected = [
                fill_window(row_loads[t], limit, n_balls, row_children[t]).probes
                for t in range(trials)
            ]
        assert probes.dtype == np.int64
        assert probes.tolist() == expected
        assert np.array_equal(batched_loads, row_loads)
        for batched, single in zip(batched_children, row_children):
            assert batched.consumed == single.consumed
            assert np.array_equal(batched.take(16), single.take(16))

    def test_short_row_raises_before_any_probe(self):
        n_bins, limit = 8, 2
        loads = np.zeros((3, n_bins), dtype=np.int64)
        loads[1] = limit + 1  # row 1 has no free slot at all
        before = loads.copy()
        children = [RandomProbeStream(n_bins, seed=s) for s in range(3)]
        with pytest.raises(ProtocolError, match="trial 1"):
            fill_window_batch(loads, limit, 5, BatchedProbeStream(children))
        assert [child.consumed for child in children] == [0, 0, 0]
        assert np.array_equal(loads, before)

    def test_capacity_is_exact_past_the_limit(self):
        # Bins above the limit add no capacity (and take none away): a
        # window of exactly the free slots fits, one more ball does not.
        n_bins, limit = 8, 2
        start = np.zeros((2, n_bins), dtype=np.int64)
        start[:, ::2] = limit + 10
        fits = (n_bins // 2) * (limit + 1)
        loads = start.copy()
        batch = BatchedProbeStream.from_seeds(n_bins, [3, 4])
        fill_window_batch(loads, limit, fits, batch)
        assert np.array_equal(loads[:, 1::2], np.full((2, n_bins // 2), limit + 1))
        assert np.array_equal(loads[:, ::2], start[:, ::2])
        with pytest.raises(ProtocolError, match="trial 0"):
            fill_window_batch(
                start.copy(), limit, fits + 1, BatchedProbeStream.from_seeds(n_bins, [3, 4])
            )


class TestAgainstScalarBackend:
    """The numpy window engine against the per-probe scalar loop."""

    @staticmethod
    def _run(backend, window_fn, start, limit, n_balls, choices):
        loads = start.copy()
        stream = FixedProbeStream(start.size, choices)
        with use_backend(backend):
            result = window_fn(loads, limit, n_balls, stream)
        return loads, result, stream.consumed

    @pytest.mark.parametrize("window_fn", [fill_window, assign_window])
    def test_more_bins_than_uint16_keys(self, window_fn):
        # Bin 65,536 would alias bin 0 under 16-bit sort keys.  Both have one
        # free slot and are probed twice first, so a pass ranking them as
        # one bin would reject bin 0's first probe.
        n, limit = 65_537, 3
        rng = np.random.default_rng(65_537)
        start = rng.integers(limit - 1, limit + 3, size=n)
        start[[0, n - 1]] = limit
        choices = np.concatenate([[n - 1, 0, n - 1, 0], rng.integers(0, n, size=n)])
        numpy_run = self._run("numpy", window_fn, start, limit, 2000, choices)
        scalar_run = self._run("scalar", window_fn, start, limit, 2000, choices)
        assert np.array_equal(numpy_run[0], scalar_run[0])
        assert numpy_run[1].probes == scalar_run[1].probes
        assert numpy_run[2] == scalar_run[2]
        if window_fn is assign_window:
            assert np.array_equal(numpy_run[1].assignments, scalar_run[1].assignments)
            assert list(numpy_run[1].assignments[:2]) == [n - 1, 0]

    @pytest.mark.parametrize("window_fn", [fill_window, assign_window])
    def test_exhausted_fixed_stream_same_error(self, window_fn):
        # Three balls need three distinct bins; the replay offers two.
        messages = []
        for backend in ("numpy", "scalar"):
            with pytest.raises(ProtocolError, match="exhausted") as info:
                self._run(
                    backend, window_fn, np.zeros(4, dtype=np.int64), 0, 3,
                    np.array([0, 0, 1, 0, 1]),
                )
            messages.append(str(info.value))
        assert messages[0] == messages[1]
