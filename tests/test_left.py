"""Tests for the left[d] baseline (Vöcking's always-go-left)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.left import (
    LeftProtocol,
    group_boundaries,
    replay_group_map,
    run_left,
    seeded_group_choices,
)
from repro.errors import ConfigurationError
from repro.runtime.probes import RandomProbeStream


class TestGroupBoundaries:
    def test_even_split(self):
        assert np.array_equal(group_boundaries(10, 2), [0, 5, 10])

    def test_uneven_split_extra_to_first_groups(self):
        assert np.array_equal(group_boundaries(10, 3), [0, 4, 7, 10])

    def test_every_bin_covered_once(self):
        for n, d in [(7, 2), (11, 3), (100, 7)]:
            boundaries = group_boundaries(n, d)
            sizes = np.diff(boundaries)
            assert sizes.sum() == n
            assert boundaries[0] == 0 and boundaries[-1] == n
            assert np.all(sizes >= 1)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            group_boundaries(5, 0)
        with pytest.raises(ConfigurationError):
            group_boundaries(1, 2)


class TestReplayGroupMap:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("groups", [1, 2, 3, 250, 2500])
    def test_equals_group_starts(self, d, groups):
        n_bins = d * groups
        base, size = replay_group_map(n_bins, d)
        expected = group_boundaries(n_bins, d)[:-1]
        assert base.dtype == expected.dtype == np.int64
        assert np.array_equal(base, expected)
        assert size == groups

    @pytest.mark.parametrize(
        "n_bins,d,match",
        [(5, 0, "at least 1"), (1, 2, "at least d=2 bins"), (10, 3, "equal groups")],
    )
    def test_invalid(self, n_bins, d, match):
        with pytest.raises(ConfigurationError, match=match):
            replay_group_map(n_bins, d)


class TestSeededGroupChoices:
    @pytest.mark.parametrize(
        "n_bins,d",
        [(10_000, 1), (10_000, 2), (10_001, 3), (7, 2), (10_000, 4), (11, 4)],
    )
    def test_equals_broadcast_floor(self, n_bins, d):
        # The per-ball references call the same function, so the
        # equivalence suites cannot see a drift; the seed formula can.
        n_balls = 5_000
        choices = seeded_group_choices(
            n_bins, d, n_balls, np.random.default_rng(n_bins + d)
        )
        boundaries = group_boundaries(n_bins, d)
        offsets = np.random.default_rng(n_bins + d).random(size=(n_balls, d))
        expected = (boundaries[:-1] + np.floor(offsets * np.diff(boundaries))).astype(
            np.int64
        )
        assert choices.dtype == np.int64
        assert np.array_equal(choices, expected)

    def test_zero_balls(self):
        choices = seeded_group_choices(8, 2, 0, np.random.default_rng(0))
        assert choices.shape == (0, 2)


class TestLeftProtocol:
    def test_invalid_d(self):
        with pytest.raises(ConfigurationError):
            LeftProtocol(d=0)

    def test_allocation_time_is_dm(self, problem_size):
        m, n = problem_size
        assert run_left(m, n, seed=0, d=2).allocation_time == 2 * m

    def test_all_balls_placed(self, problem_size):
        m, n = problem_size
        assert int(run_left(m, n, seed=1).loads.sum()) == m

    def test_deterministic(self):
        a = run_left(500, 60, seed=2)
        b = run_left(500, 60, seed=2)
        assert np.array_equal(a.loads, b.loads)

    def test_rejects_probe_stream_with_unequal_groups(self):
        """Replay needs equal groups: a uniform probe cannot map to a uniform
        in-group choice when group sizes differ."""
        with pytest.raises(ConfigurationError):
            LeftProtocol(d=3).allocate(
                5, 10, probe_stream=RandomProbeStream(10, seed=0)
            )

    def test_accepts_probe_stream_with_equal_groups(self):
        """With n_bins divisible by d, each probe maps to group g's bin
        ``g·(n/d) + probe mod (n/d)``, consuming d probes per ball."""
        import numpy as np
        from repro.runtime.probes import FixedProbeStream

        # n=4, d=2, size=2: ball 1 probes (3, 1) -> bins (3 % 2, 2 + 1 % 2)
        # = (1, 3), both empty -> leftmost group wins -> bin 1.  Ball 2
        # probes (1, 0) -> bins (1, 2); bin 2 is empty -> bin 2.
        stream = FixedProbeStream(4, np.array([3, 1, 1, 0]))
        result = LeftProtocol(d=2).allocate(2, 4, probe_stream=stream)
        assert np.array_equal(result.loads, [0, 1, 1, 0])
        assert stream.consumed == 4

    def test_mismatched_stream(self):
        with pytest.raises(ConfigurationError):
            LeftProtocol().allocate(3, 6, probe_stream=RandomProbeStream(4, seed=0))

    def test_choices_stay_within_groups(self):
        """Each ball samples one bin per group, so with d=n each bin gets load 1."""
        n = 6
        result = LeftProtocol(d=n).allocate(1, n, seed=0)
        assert result.loads.sum() == 1

    def test_max_load_competitive_with_greedy(self):
        """Vöcking: left[d] is at least as good as greedy[d] (asymptotically)."""
        from repro.baselines.greedy import run_greedy

        m = n = 4000
        left = np.mean([run_left(m, n, seed=s, d=2).max_load for s in range(4)])
        greedy = np.mean([run_greedy(m, n, seed=s, d=2).max_load for s in range(4)])
        assert left <= greedy + 0.75

    def test_heavily_loaded_close_to_average(self):
        m, n = 20_000, 1_000
        assert run_left(m, n, seed=3, d=2).max_load <= m / n + 5

    def test_zero_balls(self):
        assert run_left(0, 10, seed=0).allocation_time == 0

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            run_left(5, 0)
