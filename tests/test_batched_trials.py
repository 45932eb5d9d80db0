"""Certification of the batched ``allocate_batch`` paths.

The batched paths promise *per-trial bit-identity*: running ``T`` trials
through :meth:`~repro.core.protocol.AllocationProtocol.allocate_batch` yields,
for every trial, exactly the loads, allocation time and probe checkpoints of
the single-trial engine with the same seed (or the same replayed choice
vector).  These tests certify that promise for every natively batched
protocol, for the honest per-trial fallbacks, under
:class:`~repro.runtime.probes.FixedProbeStream` replay, across trial-block
and probe-block partitions (hypothesis), and through the full
``run_trials`` surface including seed single-homing.

A subtlety the suite leans on everywhere: ``Generator.spawn`` (used for
auxiliary tie-break randomness) advances the spawn counter of a *shared*
``SeedSequence`` object, so every comparison derives a FRESH, equal seed
table per side instead of reusing SeedSequence objects across runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro  # noqa: F401  (registers the baselines)
from repro.core import make_protocol
from repro.errors import ConfigurationError
from repro.experiments.config import SweepConfig, TrialConfig
from repro.experiments.runner import (
    _run_trial_block,
    as_spec,
    default_trial_block,
    run_sweep,
    run_trial,
    run_trials,
)
from repro.runtime.probes import (
    BatchedProbeStream,
    FixedProbeStream,
    RandomProbeStream,
)
from repro.runtime.rng import trial_seed, trial_seed_table

#: Protocols with a trial-axis body, ``_allocate_trials`` (``batches = True``).
BATCHED_PROTOCOLS = [
    ("adaptive", {}),
    ("greedy", {"d": 2, "tie_break": "random"}),
    ("greedy", {"d": 3, "tie_break": "first"}),
    ("left", {"d": 2}),
]

#: Protocols that honestly fall back to the base-class per-trial loop.
FALLBACK_PROTOCOLS = [
    ("threshold", {}),
    ("single-choice", {}),
    ("memory", {"d": 1, "k": 1}),
    ("rebalancing", {"d": 2}),
    ("weighted-greedy", {"d": 2}),
]


def _fresh_seeds(master: int, trials: int) -> list[np.random.SeedSequence]:
    """A fresh seed table (never reuse SeedSequence objects across runs)."""
    return trial_seed_table(master, trials)


def _looped_records(config) -> list[dict]:
    """The per-trial reference: one ``run_trial`` per trial index."""
    return [run_trial(config, i).as_record() for i in range(config.trials)]


def _block_records(config, block: int) -> list[dict]:
    """Every trial, run as consecutive ``_run_trial_block`` blocks of ``block``."""
    spec = as_spec(config)
    return [
        result.as_record()
        for start in range(0, spec.trials, block)
        for result in _run_trial_block(spec, start, min(start + block, spec.trials))
    ]


def _assert_results_identical(batched, single, label):
    assert np.array_equal(batched.loads, single.loads), (label, "loads")
    assert batched.allocation_time == single.allocation_time, (label, "time")
    assert batched.costs.probes == single.costs.probes, (label, "probes")
    assert tuple(batched.costs.probe_checkpoints) == tuple(
        single.costs.probe_checkpoints
    ), (label, "checkpoints")
    assert batched.params == single.params, (label, "params")


class TestSeededBitIdentity:
    @pytest.mark.parametrize("name,params", BATCHED_PROTOCOLS)
    def test_batched_equals_per_trial(self, name, params):
        trials, m, n = 5, 3_000, 256
        protocol = make_protocol(name, **params)
        assert protocol.batches
        batched = protocol.allocate_batch(m, n, _fresh_seeds(2013, trials))
        assert len(batched) == trials
        for i, result in enumerate(batched):
            single = make_protocol(name, **params).allocate(
                m, n, trial_seed(2013, i, trials)
            )
            _assert_results_identical(result, single, (name, params, i))

    @pytest.mark.parametrize("name,params", FALLBACK_PROTOCOLS)
    def test_fallback_equals_per_trial(self, name, params):
        trials, m, n = 3, 600, 64
        protocol = make_protocol(name, **params)
        assert not protocol.batches
        batched = protocol.allocate_batch(m, n, _fresh_seeds(7, trials))
        for i, result in enumerate(batched):
            single = make_protocol(name, **params).allocate(
                m, n, trial_seed(7, i, trials)
            )
            _assert_results_identical(result, single, (name, params, i))

    @pytest.mark.parametrize(
        "name,params",
        BATCHED_PROTOCOLS + [("threshold", {}), ("single-choice", {})],
    )
    def test_zero_balls(self, name, params):
        results = make_protocol(name, **params).allocate_batch(
            0, 32, _fresh_seeds(1, 3)
        )
        for result in results:
            assert result.loads.sum() == 0
            assert result.allocation_time == 0

    @pytest.mark.parametrize("name", ["adaptive", "greedy", "left"])
    def test_record_trace_falls_back_to_exact_loop(self, name):
        trials, m, n = 3, 800, 64
        protocol = make_protocol(name)
        batched = protocol.allocate_batch(
            m, n, _fresh_seeds(11, trials), record_trace=True
        )
        for i, result in enumerate(batched):
            single = make_protocol(name).allocate(
                m, n, trial_seed(11, i, trials), record_trace=True
            )
            _assert_results_identical(result, single, (f"{name}-trace", i))
            assert result.trace is not None
            assert len(result.trace) == len(single.trace)

    def test_batch_args_validated(self):
        protocol = make_protocol("adaptive")
        with pytest.raises(ConfigurationError):
            protocol.allocate_batch(10, 4)  # neither seeds nor streams
        with pytest.raises(ConfigurationError):
            protocol.allocate_batch(
                10,
                4,
                _fresh_seeds(0, 2),
                probe_streams=[FixedProbeStream(4, np.zeros(10, dtype=np.int64))],
            )
        with pytest.raises(ConfigurationError):
            protocol.allocate_batch(10, 4, [])

    @pytest.mark.parametrize("case", ["same-stream", "other-bins"])
    @pytest.mark.parametrize(
        "name,params",
        [
            ("adaptive", {}),
            ("greedy", {"d": 2}),
            ("left", {"d": 2}),
            ("threshold", {}),
            ("single-choice", {}),
        ],
    )
    def test_bad_probe_streams_rejected_before_any_draw(self, name, params, case):
        # Entry i must equal a run on probe_streams[i]: a stream shared by
        # two trials cannot be consumed by both, and a stream over other
        # bins fails before trial 0 draws from its own.
        stream = RandomProbeStream(64, seed=5)
        second = stream if case == "same-stream" else RandomProbeStream(65, seed=6)
        match = "distinct" if case == "same-stream" else "n_bins"
        with pytest.raises(ConfigurationError, match=match):
            make_protocol(name, **params).allocate_batch(
                600, 64, probe_streams=[stream, second]
            )
        assert stream.consumed == 0


class TestReplayBitIdentity:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("adaptive", {}),
            ("threshold", {}),
            ("greedy", {"d": 2, "tie_break": "random"}),
            ("left", {"d": 2}),
            ("single-choice", {}),
        ],
    )
    def test_fixed_stream_replay(self, name, params):
        """Batched and single-trial engines consume identical choice vectors."""
        trials, m, n = 4, 400, 64
        rng = np.random.default_rng(99)
        vectors = [
            rng.integers(0, n, size=20 * m, dtype=np.int64) for _ in range(trials)
        ]
        protocol = make_protocol(name, **params)
        batched = protocol.allocate_batch(
            m,
            n,
            probe_streams=[FixedProbeStream(n, v) for v in vectors],
        )
        for i, result in enumerate(batched):
            stream = FixedProbeStream(n, vectors[i])
            single = make_protocol(name, **params).allocate(
                m, n, probe_stream=stream
            )
            _assert_results_identical(result, single, (name, "replay", i))
            # The batched engine consumed exactly as many probes of trial
            # i's vector as the single-trial engine did.
            assert stream.consumed == single.allocation_time

    def test_batched_stream_helpers(self):
        n = 16
        batch = BatchedProbeStream.from_seeds(n, _fresh_seeds(3, 4))
        assert batch.trials == 4
        with pytest.raises(ConfigurationError):
            BatchedProbeStream([])
        with pytest.raises(ConfigurationError):
            BatchedProbeStream(
                [
                    FixedProbeStream(4, np.zeros(1, dtype=np.int64)),
                    FixedProbeStream(8, np.zeros(1, dtype=np.int64)),
                ]
            )


class TestSeedSingleHoming:
    def test_table_matches_scalar_derivation(self):
        for master in (0, 2013):
            table = trial_seed_table(master, 6)
            for i, entry in enumerate(table):
                scalar = trial_seed(master, i, 6)
                assert entry.entropy == scalar.entropy
                assert entry.spawn_key == scalar.spawn_key
                assert (
                    entry.generate_state(4).tolist()
                    == scalar.generate_state(4).tolist()
                )

    def test_unseeded_tables_stay_independent(self):
        """seed=None must keep drawing fresh entropy, never a cached table."""
        first = trial_seed_table(None, 2)
        second = trial_seed_table(None, 2)
        assert first[0].entropy != second[0].entropy
        assert all(s.spawn_key == (i,) for i, s in enumerate(first))

    def test_seed_sequence_master_uses_spawn(self):
        master = np.random.SeedSequence(42)
        table = trial_seed_table(master, 3)
        assert [s.spawn_key for s in table] == [(0,), (1,), (2,)]

    def test_all_execution_modes_derive_identical_results(self):
        config = TrialConfig(
            protocol="adaptive", n_balls=800, n_bins=128, trials=6, seed=17
        )
        looped = _looped_records(config)
        batched = run_trials(config, as_records=True)
        blocked = _block_records(config, 2)
        blocked_by_three = _block_records(config, 3)
        assert looped == batched == blocked == blocked_by_three


class TestRunTrialsBatchedSurface:
    def test_trials_one_equals_legacy_exactly(self):
        config = TrialConfig(
            protocol="threshold", n_balls=700, n_bins=100, trials=1, seed=3
        )
        legacy = run_trial(config, 0)
        batched = run_trials(config)
        assert len(batched) == 1
        _assert_results_identical(batched[0], legacy, "trials=1")

    @pytest.mark.parametrize("name,params", [("memory", {"d": 1, "k": 1})])
    def test_fallback_protocols_through_runner(self, name, params):
        config = TrialConfig(
            protocol=name, n_balls=300, n_bins=50, trials=3, seed=5, params=params
        )
        looped = _looped_records(config)
        batched = run_trials(config, as_records=True)
        assert looped == batched

    def test_sweep_config_carries_execution_mode(self):
        sweep = SweepConfig(
            protocols=("adaptive",),
            n_bins=64,
            ball_grid=(200,),
            trials=3,
            seed=9,
            workers=2,
        )
        rows_fanned_out = run_sweep(sweep)
        rows_in_process = run_sweep(sweep, workers=1)
        assert rows_fanned_out == rows_in_process
        with pytest.raises(ConfigurationError):
            SweepConfig(
                protocols=("adaptive",),
                n_bins=64,
                ball_grid=(200,),
                workers=0,
            )

    def test_simulate_multi_trial_routes_through_runner(self):
        from repro.api.spec import SimulationSpec

        spec = SimulationSpec(
            protocol="greedy",
            n_balls=500,
            n_bins=64,
            seed=21,
            trials=4,
            params={"d": 2},
        )
        facade = repro.simulate(spec)
        runner = run_trials(spec)
        assert len(facade) == 4
        for a, b in zip(facade, runner):
            _assert_results_identical(a, b, "simulate")


class TestDefaultTrialBlock:
    def test_small_problems_get_large_blocks(self):
        assert default_trial_block(100, 10, trials=10_000) == 10_000

    def test_large_problems_get_bounded_blocks(self):
        block = default_trial_block(10_000_000, 1_000_000, trials=10_000)
        # ~ (8e6 + 4e7) * 8 bytes per trial against a 256 MB budget.
        assert 1 <= block < 100

    def test_caps_at_trials_and_validates(self):
        assert default_trial_block(0, 1) >= 1
        assert default_trial_block(100, 10, trials=3) == 3
        with pytest.raises(ConfigurationError):
            default_trial_block(10, 0)
        with pytest.raises(ConfigurationError):
            default_trial_block(-1, 10)


class TestPeakMemory:
    pytestmark = pytest.mark.slow

    def test_ten_thousand_trial_sweep_stays_in_budget(self):
        """A 10k-trial small-n batched sweep must stay under 512 MiB RSS.

        Measured at ~174 MiB on the reference container (single 10k-trial
        block; transients capped by the engines' element budgets); the
        512 MiB budget leaves ~3x headroom while still catching any
        regression that materialises per-ball state across the whole batch
        (a naive ``(trials, n_balls)`` probe matrix alone would be GiBs).
        """
        import subprocess
        import sys

        script = (
            "import resource\n"
            "from repro.experiments.config import TrialConfig\n"
            "from repro.experiments.runner import run_trials\n"
            "config = TrialConfig(protocol='adaptive', n_balls=200,\n"
            "                     n_bins=50, trials=10_000, seed=1)\n"
            "records = run_trials(config, as_records=True)\n"
            "assert len(records) == 10_000\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(peak)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        peak_kib = int(proc.stdout.strip().splitlines()[-1])
        assert peak_kib < 512 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"


class TestPartitionInvariance:
    """Results are independent of every partitioning knob (hypothesis)."""

    pytestmark = pytest.mark.slow

    @settings(max_examples=12, deadline=None)
    @given(
        index=st.integers(0, len(BATCHED_PROTOCOLS) - 1),
        m=st.integers(0, 400),
        n=st.integers(4, 64),
        trials=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        trial_block=st.integers(1, 7),
    )
    def test_trial_block_invariance(self, index, m, n, trials, seed, trial_block):
        name, params = BATCHED_PROTOCOLS[index]
        config = TrialConfig(
            protocol=name,
            n_balls=m,
            n_bins=n,
            trials=trials,
            seed=seed,
            params=dict(params),
        )
        reference = _looped_records(config)
        blocked = _block_records(config, trial_block)
        assert reference == blocked

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(0, 300),
        n=st.integers(4, 48),
        trials=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        block_size=st.integers(1, 200),
    )
    def test_probe_block_invariance_staged(self, m, n, trials, seed, block_size):
        """Batched ADAPTIVE is invariant to the probe block size too."""
        default = make_protocol("adaptive").allocate_batch(
            m, n, _fresh_seeds(seed, trials)
        )
        custom = make_protocol("adaptive", block_size=block_size).allocate_batch(
            m, n, _fresh_seeds(seed, trials)
        )
        for a, b in zip(default, custom):
            assert np.array_equal(a.loads, b.loads)
            assert a.allocation_time == b.allocation_time
            assert tuple(a.costs.probe_checkpoints) == tuple(
                b.costs.probe_checkpoints
            )
