"""Cross-backend equivalence and registry tests for the kernel backends.

Every registered :class:`~repro.core.backend.KernelBackend` must produce
*bit-identical* results: the backends are execution strategies for the same
algorithms, so loads, probe counts, stream consumption, weighted loads and
assignments may not differ by a single ulp between ``"numpy"`` and the
``"scalar"`` reference loops.  The replay matrices mirror the existing
per-engine equivalence suites (baseline / weighted / memory), driven once
per backend.  Further groups certify the spec-level ``backend=`` field
(round-trip, validation, legacy documents) and the driver threading
(Simulation, run_trials, Dispatcher, CLI).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import DispatchSpec, Simulation, SimulationSpec, WorkloadSpec, simulate
from repro.baselines.engine import _TAIL_ROWS, chunked_argmin_commit, matrix_source
from repro.baselines.memory_engine import (
    chunked_memory_commit,
    chunked_weighted_memory_commit,
)
from repro.core.backend import (
    DEFAULT_BACKEND,
    NumpyBackend,
    active_backend,
    backend_names,
    describe_backends,
    get_backend,
    resolve_backend,
    use_backend,
    validate_backend_name,
)
from repro.core.protocol import available_protocols, make_protocol
from repro.core.weighted_engine import (
    adaptive_weighted_thresholds,
    chunked_weighted_assign,
)
from repro.core.window import assign_window, conflict_free_rows, fill_window
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments.runner import run_trials
from repro.runtime.probes import FixedProbeStream, RandomProbeStream
from repro.scheduler.dispatcher import Dispatcher

#: (n_balls, n_bins) grid shared with the per-engine equivalence suites:
#: tiny, square, heavily loaded (m >> n), sparse (n > m), empty, and one
#: whose default d-choice chunks (n/d² balls) start above the per-ball tail.
SIZES = [
    (0, 6), (1, 4), (24, 24), (400, 12), (2000, 8), (60, 240), (500, 100),
    (3000, 1000),
]

ALL_BACKENDS = backend_names()
STREAMING_PROTOCOLS = tuple(
    name for name in available_protocols() if make_protocol(name).streaming
)


def choice_vector(m: int, n: int, d: int, seed: int = 99) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, n, size=max(m, 1) * d, dtype=np.int64
    )


#: Protocols whose probe consumption is fixed at ``m * d`` — these replay a
#: shared FixedProbeStream choice vector through every backend.
REPLAY_PROTOCOLS = [
    ("greedy", {"d": 2}, 2),
    ("greedy", {"d": 1}, 1),
    ("left", {"d": 2}, 2),
    ("memory", {"d": 1, "k": 1}, 1),
    ("memory", {"d": 2, "k": 2}, 2),
    ("memory", {"d": 1, "k": 3}, 1),
    ("memory", {"d": 3, "k": 1}, 3),
    ("rebalancing", {"d": 2}, 2),
    ("single-choice", {}, 1),
    ("weighted-greedy", {"d": 2, "weight_dist": "uniform"}, 2),
    ("weighted-left", {"d": 2, "weight_dist": "pareto"}, 2),
    ("weighted-memory", {"d": 2, "k": 2, "weight_dist": "uniform"}, 2),
    ("weighted-memory", {"d": 1, "k": 1, "weight_dist": "pareto"}, 1),
]

#: Protocols with data-dependent probe consumption — these run seeded (the
#: bit-identity claim covers the probe sequence, so seeded runs must agree).
SEEDED_PROTOCOLS = [
    ("adaptive", {}),
    ("threshold", {}),
    ("weighted-adaptive", {"weight_dist": "uniform"}),
    ("weighted-threshold", {"weight_dist": "pareto"}),
]


def assert_results_identical(reference, candidate):
    assert np.array_equal(reference.loads, candidate.loads)
    assert reference.allocation_time == candidate.allocation_time
    ref_weighted = getattr(reference, "weighted_loads", None)
    cand_weighted = getattr(candidate, "weighted_loads", None)
    if ref_weighted is None:
        assert cand_weighted is None
    else:
        assert np.array_equal(ref_weighted, cand_weighted)


# --------------------------------------------------------------------------- #
# Registry and context
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == ["numpy", "scalar"]

    def test_default_is_numpy(self):
        assert DEFAULT_BACKEND == "numpy"
        assert active_backend().name == "numpy"

    def test_describe_backends_shape(self):
        records = describe_backends()
        assert sorted(r["name"] for r in records) == backend_names()
        by_name = {r["name"]: r for r in records}
        assert by_name["numpy"]["default"] is True
        assert by_name["scalar"]["default"] is False

    def test_unknown_backend_names_available(self):
        with pytest.raises(ConfigurationError, match="unknown backend 'bogus'"):
            get_backend("bogus")
        with pytest.raises(ConfigurationError, match="numpy"):
            get_backend("bogus")

    def test_validate_backend_name(self):
        validate_backend_name("scalar")
        validate_backend_name(None)
        with pytest.raises(ConfigurationError, match="must be a string"):
            validate_backend_name(3)
        with pytest.raises(ConfigurationError, match="unknown backend 'numba'"):
            validate_backend_name("numba")

    def test_use_backend_nests_and_restores(self):
        assert active_backend().name == DEFAULT_BACKEND
        with use_backend("scalar") as outer:
            assert outer.name == "scalar"
            assert active_backend().name == "scalar"
            with use_backend("numpy"):
                assert active_backend().name == "numpy"
            assert active_backend().name == "scalar"
        assert active_backend().name == DEFAULT_BACKEND

    def test_resolve_backend_passthrough(self):
        scalar = get_backend("scalar")
        assert resolve_backend(scalar) is scalar
        assert resolve_backend(None).name == DEFAULT_BACKEND


# --------------------------------------------------------------------------- #
# Spec field
# --------------------------------------------------------------------------- #
class TestSpecBackendField:
    def test_simulation_spec_round_trip(self):
        spec = SimulationSpec(
            "adaptive", n_balls=1000, n_bins=100, seed=1, backend="scalar"
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert data["backend"] == "scalar"
        assert SimulationSpec.from_dict(data) == spec

    def test_legacy_document_without_backend(self):
        spec = SimulationSpec("adaptive", n_balls=1000, n_bins=100, seed=1)
        data = spec.to_dict()
        del data["backend"]
        restored = SimulationSpec.from_dict(data)
        assert restored.backend is None
        assert restored == spec

    def test_unknown_backend_rejected_with_names(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SimulationSpec("adaptive", n_balls=10, n_bins=5, backend="bogus")
        with pytest.raises(ConfigurationError, match="scalar"):
            SimulationSpec("adaptive", n_balls=10, n_bins=5, backend="bogus")

    def test_dispatch_spec_round_trip_and_legacy(self):
        spec = DispatchSpec(
            "greedy", n_servers=32, seed=2, params={"d": 2}, backend="scalar"
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert DispatchSpec.from_dict(data) == spec
        del data["backend"]
        assert DispatchSpec.from_dict(data).backend is None
        with pytest.raises(ConfigurationError, match="unknown backend"):
            DispatchSpec("greedy", n_servers=32, backend="bogus")


# --------------------------------------------------------------------------- #
# Cross-backend bit-identity
# --------------------------------------------------------------------------- #
class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize(
        "protocol,params,d", REPLAY_PROTOCOLS, ids=lambda v: str(v)
    )
    def test_replay_bit_identical(self, backend_name, size, protocol, params, d):
        m, n = size
        if protocol == "left" and n % d:
            pytest.skip("replay needs equal groups")
        choices = choice_vector(m, n, d)
        base_spec = SimulationSpec(protocol, n_balls=m, n_bins=n, seed=7, params=params)
        ref_stream = FixedProbeStream(n, choices)
        reference = Simulation(base_spec, probe_stream=ref_stream).run()
        cand_stream = FixedProbeStream(n, choices)
        candidate = Simulation(
            SimulationSpec(
                protocol,
                n_balls=m,
                n_bins=n,
                seed=7,
                params=params,
                backend=backend_name,
            ),
            probe_stream=cand_stream,
        ).run()
        assert_results_identical(reference, candidate)
        assert ref_stream.consumed == cand_stream.consumed

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("protocol,params", SEEDED_PROTOCOLS, ids=lambda v: str(v))
    def test_seeded_bit_identical(self, backend_name, size, protocol, params):
        m, n = size
        reference = simulate(
            SimulationSpec(protocol, n_balls=m, n_bins=n, seed=11, params=params)
        )
        candidate = simulate(
            SimulationSpec(
                protocol,
                n_balls=m,
                n_bins=n,
                seed=11,
                params=params,
                backend=backend_name,
            )
        )
        assert_results_identical(reference, candidate)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(1, 12),
        b=st.integers(0, 8 * _TAIL_ROWS),
        base=st.integers(0, 5),
        with_priorities=st.booleans(),
        with_weights=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_commit_chunk_kernels_agree(
        self, d, n, b, base, with_priorities, with_weights, seed
    ):
        # Few bins make in-row repeats and load ties common; priorities from
        # {0, 0.5, 1} make exact priority ties common too.  Chunks of more
        # than _TAIL_ROWS rows run conflict-free sub-phases and hand their
        # last pending rows, no longer contiguous in the chunk, to the
        # per-ball finish.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=(b, d))
        priorities = rng.choice([0.0, 0.5, 1.0], size=(b, d)) if with_priorities else None
        weights = rng.uniform(0.1, 3.0, size=b) if with_weights else None
        start = rng.integers(0, 4, size=n).astype(np.float64 if with_weights else np.int64)
        outcomes = {}
        for name in ALL_BACKENDS:
            loads = start.copy()
            assignments = np.full(base + b, -1, dtype=np.int64)
            get_backend(name).commit_chunk(
                loads,
                rows,
                priorities=priorities,
                assignments=assignments,
                base=base,
                weights=weights,
            )
            outcomes[name] = (loads.tobytes(), assignments.tobytes())
        assert all(o == outcomes["scalar"] for o in outcomes.values())

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(1, 12),
        b=st.integers(0, 40),
        chunk_size=st.integers(1, 16),
        seed=st.integers(0, 2**31),
    )
    def test_move_sweep_and_conflict_rows_kernels_agree(self, d, n, b, chunk_size, seed):
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, n, size=(b, d))
        # A ball's current bin is one of its candidates, as in rebalancing.
        placement = choices[np.arange(b), rng.integers(0, d, size=b)]
        start = np.bincount(placement, minlength=n) + rng.integers(0, 3, size=n)
        outcomes = {}
        for name in ALL_BACKENDS:
            loads, placed = start.copy(), placement.copy()
            backend = get_backend(name)
            moved = backend.move_sweep(loads, choices, placed, chunk_size=chunk_size)
            with use_backend(name):
                free = conflict_free_rows(choices, n), conflict_free_rows(choices)
            outcomes[name] = (moved, loads.tolist(), placed.tolist(), [f.tolist() for f in free])
        assert all(o == outcomes["scalar"] for o in outcomes.values())

    @pytest.mark.parametrize("block_size", [None, 1, 7])
    @pytest.mark.parametrize("collect", [True, False])
    @pytest.mark.parametrize("source", ["seeded", "fixed", "short-fixed"])
    def test_run_window_kernels_agree(self, source, collect, block_size):
        # Pre-loaded bins, some already past the limit.  "short-fixed" holds
        # only three probes beyond the window's, fewer than either kernel's
        # first block asks for.
        n, limit = 40, 3
        rng = np.random.default_rng(13)
        start = rng.integers(0, limit + 3, size=n)
        n_balls = int(np.maximum(limit + 1 - start, 0).sum()) * 3 // 4
        choices = rng.integers(0, n, size=5_000)
        if source == "short-fixed":
            probe = FixedProbeStream(n, choices)
            get_backend("scalar").run_window(
                start.copy(), limit, n_balls, probe, None, False
            )
            choices = choices[: probe.consumed + 3]

        def stream():
            if source == "seeded":
                return RandomProbeStream(n, seed=21)
            return FixedProbeStream(n, choices)

        outcomes = {}
        for name in ALL_BACKENDS:
            loads = start.copy()
            probe = stream()
            probes, chunks = get_backend(name).run_window(
                loads, limit, n_balls, probe, block_size, collect
            )
            placed = np.concatenate(chunks).tolist() if chunks else []
            following = probe.take(16 if probe.available is None else probe.available)
            outcomes[name] = (
                loads.tolist(), probes, probe.consumed, placed, following.tolist()
            )
        assert all(o == outcomes["scalar"] for o in outcomes.values())
        assert len(outcomes["scalar"][3]) == (n_balls if collect else 0)

    @pytest.mark.parametrize("block_size", [None, 1, 7])
    def test_run_window_kernels_agree_when_the_stream_runs_out(self, block_size):
        # 40 balls fit under the limit, but the stream holds only 30 probes:
        # both kernels keep the balls placed before it ran out.
        n, limit = 50, 2
        rng = np.random.default_rng(3)
        start = rng.integers(0, limit + 1, size=n)
        choices = rng.integers(0, n, size=30)
        outcomes = {}
        for name in ALL_BACKENDS:
            loads = start.copy()
            probe = FixedProbeStream(n, choices)
            with pytest.raises(ProtocolError, match="exhausted"):
                get_backend(name).run_window(loads, limit, 40, probe, block_size, True)
            outcomes[name] = (loads.tolist(), probe.consumed)
        assert all(o == outcomes["scalar"] for o in outcomes.values())

    @pytest.mark.parametrize("with_assignments", [True, False])
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    @pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (3, 2)])
    @pytest.mark.parametrize("side", ["in-place", "round-trip"])
    def test_memory_fallback_kernels_agree(
        self, side, d, k, chunk_size, with_assignments
    ):
        # The scalar backend runs the rules on loads in place below one ball
        # per ratio bins and on a list round trip above.
        ratio = get_backend("scalar")._in_place_bins_per_ball
        n = 10 * ratio
        n_balls = 9 if side == "in-place" else 400
        assert (n_balls * ratio < n) == (side == "in-place")
        rng = np.random.default_rng(d * 10 + k)
        start = rng.integers(0, 4, size=n)
        choices = rng.integers(0, n, size=n_balls * d + 50)
        memory = [5, 17][:k]
        outcomes = {}
        for name in ALL_BACKENDS:
            loads = start.copy()
            assignments = np.full(n_balls, -1) if with_assignments else None
            stream = FixedProbeStream(n, choices)
            remembered = get_backend(name).memory_fallback(
                stream, loads, list(memory), n_balls, d, k,
                assignments=assignments, chunk_size=chunk_size,
            )
            outcomes[name] = (
                loads.tolist(),
                None if assignments is None else assignments.tolist(),
                remembered,
                stream.consumed,
            )
        assert all(o == outcomes["scalar"] for o in outcomes.values())
        assert outcomes["scalar"][3] == n_balls * d

    @pytest.mark.parametrize("n_bins", [65_536, 65_537])
    def test_weighted_assign_at_the_radix_key_boundary(self, n_bins):
        # Probes hit the two lowest and two highest bins.  At 65,537 bins the
        # top bin is 65,536, which a uint16 key would wrap onto bin 0.
        m = 600
        rng = np.random.default_rng(n_bins)
        weights = rng.uniform(0.5, 1.5, size=m)
        thresholds = adaptive_weighted_thresholds(weights, 4, float(weights.max()))
        hot = np.array([0, 1, n_bins - 2, n_bins - 1])
        choices = hot[rng.integers(0, 4, size=20 * m)]
        outcomes = {}
        for name in ALL_BACKENDS:
            loads = np.zeros(n_bins)
            assignments = np.empty(m, dtype=np.int64)
            stream = FixedProbeStream(n_bins, choices)
            with use_backend(name):
                probes = chunked_weighted_assign(
                    loads, weights, thresholds, stream, assignments=assignments
                )
            outcomes[name] = (probes, stream.consumed, loads.tobytes(), assignments.tobytes())
        assert all(o == outcomes["scalar"] for o in outcomes.values())

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_step_split_matches_one_shot(self, backend_name):
        spec = SimulationSpec(
            "memory",
            n_balls=1200,
            n_bins=60,
            seed=3,
            params={"d": 2, "k": 2},
            backend=backend_name,
        )
        one_shot = Simulation(spec).run()
        stepped = Simulation(spec)
        while not stepped.state.done:
            stepped.step(170)
        assert_results_identical(one_shot, stepped.results())


# --------------------------------------------------------------------------- #
# Chunk-size invariance per backend
# --------------------------------------------------------------------------- #
class TestChunkInvariancePerBackend:
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @settings(max_examples=20, deadline=None)
    @given(chunk_size=st.integers(1, 700), seed=st.integers(0, 2**31))
    def test_argmin_commit_chunk_invariance(self, backend_name, chunk_size, seed):
        m, n, d = 600, 25, 2
        choices = np.random.default_rng(seed).integers(
            0, n, size=(m, d), dtype=np.int64
        )
        with use_backend(backend_name):
            states = []
            for chunk in (chunk_size, None):
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
                states.append((loads, assignments))
        assert np.array_equal(states[0][0], states[1][0])
        assert np.array_equal(states[0][1], states[1][1])

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @pytest.mark.parametrize("d,k", [(2, 2), (1, 1)])
    @settings(max_examples=20, deadline=None)
    @given(chunk_size=st.integers(1, 500), seed=st.integers(0, 2**31))
    def test_memory_commit_chunk_invariance(self, backend_name, d, k, chunk_size, seed):
        m, n = 400, 16
        choices = np.random.default_rng(seed).integers(
            0, n, size=m * d, dtype=np.int64
        )
        with use_backend(backend_name):
            states = []
            for chunk in (chunk_size, None):
                loads = np.zeros(n, dtype=np.int64)
                memory = chunked_memory_commit(
                    FixedProbeStream(n, choices), loads, [], m, d, k,
                    chunk_size=chunk,
                )
                states.append((loads, memory))
        assert np.array_equal(states[0][0], states[1][0])
        assert states[0][1] == states[1][1]

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @settings(max_examples=20, deadline=None)
    @given(chunk_size=st.integers(1, 500), seed=st.integers(0, 2**31))
    def test_weighted_memory_chunk_invariance(self, backend_name, chunk_size, seed):
        m, n, d, k = 300, 12, 2, 2
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, n, size=m * d, dtype=np.int64)
        weights = rng.uniform(0.1, 3.0, size=m)
        with use_backend(backend_name):
            states = []
            for chunk in (chunk_size, None):
                loads = np.zeros(n, dtype=np.float64)
                memory = chunked_weighted_memory_commit(
                    FixedProbeStream(n, choices), loads, [], weights, d, k,
                    chunk_size=chunk,
                )
                states.append((loads, memory))
        assert np.array_equal(states[0][0], states[1][0])
        assert states[0][1] == states[1][1]

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @pytest.mark.parametrize("window_fn", [fill_window, assign_window])
    @settings(max_examples=20, deadline=None)
    @given(block_size=st.integers(1, 700), seed=st.integers(0, 2**31))
    def test_window_block_invariance(self, backend_name, window_fn, block_size, seed):
        n, limit = 25, 3
        rng = np.random.default_rng(seed)
        start = rng.integers(0, limit + 3, size=n)
        n_balls = int(np.maximum(limit + 1 - start, 0).sum()) * 3 // 4
        choices = rng.integers(0, n, size=20_000, dtype=np.int64)
        with use_backend(backend_name):
            states = []
            for block in (block_size, None):
                loads = start.copy()
                stream = FixedProbeStream(n, choices)
                result = window_fn(loads, limit, n_balls, stream, block_size=block)
                states.append(
                    (loads, getattr(result, "assignments", None), result.probes,
                     stream.consumed)
                )
        assert np.array_equal(states[0][0], states[1][0])
        assert np.array_equal(states[0][1], states[1][1])
        assert states[0][2:] == states[1][2:]


# --------------------------------------------------------------------------- #
# Driver threading
# --------------------------------------------------------------------------- #
class TestDriverThreading:
    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("protocol", STREAMING_PROTOCOLS)
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_run_trials_bit_identical(self, backend_name, protocol, record_trace):
        # allocate_batch, not the runner, picks the trial axis or the
        # per-trial loop, so every backend runs through the same blocks.
        base = SimulationSpec(
            protocol,
            n_balls=1500,
            n_bins=150,
            seed=9,
            trials=3,
            record_trace=record_trace,
        )
        reference = run_trials(base)
        candidate = run_trials(replace(base, backend=backend_name))
        assert len(reference) == len(candidate) == 3
        for ref, cand in zip(reference, candidate):
            assert_results_identical(ref, cand)
            assert ref.costs.probe_checkpoints == cand.costs.probe_checkpoints
            assert ref.trace == cand.trace
            assert (cand.trace is not None) == record_trace

    def test_run_trials_ambient_backend(self):
        spec = SimulationSpec(
            "adaptive", n_balls=800, n_bins=80, seed=5, trials=2
        )
        reference = run_trials(spec)
        with use_backend("scalar"):
            candidate = run_trials(spec)
        for ref, cand in zip(reference, candidate):
            assert_results_identical(ref, cand)

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "policy,params",
        [
            ("greedy", {"d": 2}),
            ("left", {"d": 2}),
            ("memory", {"d": 2, "k": 2}),
            ("adaptive", {}),
            ("threshold", {}),
            ("weighted", {}),
            ("weighted-left", {"d": 2}),
        ],
    )
    def test_dispatcher_bit_identical(self, backend_name, policy, params):
        workload = WorkloadSpec("heavy-tailed", n_jobs=2000, seed=31)
        reference = simulate(
            DispatchSpec(policy, n_servers=64, seed=17, params=params,
                         workload=workload)
        )
        candidate = simulate(
            DispatchSpec(policy, n_servers=64, seed=17, params=params,
                         workload=workload, backend=backend_name)
        )
        assert np.array_equal(reference.loads, candidate.loads)
        assert np.array_equal(reference.assignments, candidate.assignments)
        assert np.array_equal(reference.work, candidate.work)
        assert reference.allocation_time == candidate.allocation_time

    @pytest.mark.parametrize(
        "policy,params",
        [
            ("adaptive", {}),
            ("threshold", {}),
            ("greedy", {"d": 2}),
            ("left", {"d": 2}),
            ("memory", {"d": 2, "k": 1}),
            ("weighted", {}),
            ("weighted-left", {"d": 2}),
        ],
    )
    def test_small_bursts_run_the_scalar_backend(self, policy, params):
        """A small burst never reaches the dispatcher's own backend."""

        class CountingBackend(NumpyBackend):
            calls = 0

        def counted(method):
            base = getattr(NumpyBackend, method)

            def kernel(self, *args, **kwargs):
                self.calls += 1
                return base(self, *args, **kwargs)

            return kernel

        for method in (
            "occurrence_ranks", "conflict_free_rows", "run_window", "commit_chunk",
            "move_sweep", "simulate_weighted_block", "memory_fallback",
            "weighted_memory_fallback",
        ):
            setattr(CountingBackend, method, counted(method))
        backend = CountingBackend()
        dispatcher = Dispatcher(
            1000, policy=policy, seed=3, small_burst=8, backend=backend, **params
        )
        sizes = np.random.default_rng(2).uniform(0.5, 1.5, size=200)
        dispatcher.dispatch_batch(sizes[:7], total_jobs=200)
        assert backend.calls == 0
        dispatcher.dispatch_batch(sizes[7:], total_jobs=200)
        assert backend.calls > 0

    @pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (2, 2)])
    def test_memory_burst_on_a_short_stream_fails_alike(self, d, k):
        """A memory burst whose stream runs out leaves the same job counts on
        both routes: the small-burst route's in-place loop draws the whole
        burst before its first write, the vector route runs on a copy."""
        n = 1000
        choices = np.random.default_rng(5).integers(0, n, size=40 * d + 3)
        outcomes = {}
        for small_burst in (None, 0):
            dispatcher = Dispatcher(
                n, policy="memory", d=d, k=k, block_size=1,
                small_burst=small_burst, probe_stream=FixedProbeStream(n, choices),
            )
            dispatcher.dispatch_batch(np.ones(30))
            before = dispatcher.state_dict()
            with pytest.raises(ProtocolError, match="exhausted"):
                dispatcher.dispatch_batch(np.ones(20))
            after = dispatcher.state_dict()
            del before["probe_stream"], after["probe_stream"]
            assert after == before
            outcomes[small_burst] = after
        assert outcomes[None]["job_counts"] == outcomes[0]["job_counts"]

    def test_dispatcher_streaming_backend(self):
        sizes = np.random.default_rng(4).uniform(0.5, 2.0, size=900)
        reference = Dispatcher(50, policy="greedy", d=2, seed=23)
        candidate = Dispatcher(50, policy="greedy", d=2, seed=23, backend="scalar")
        for start in range(0, 900, 300):
            ref_assign = reference.dispatch_batch(sizes[start:start + 300])
            cand_assign = candidate.dispatch_batch(sizes[start:start + 300])
            assert np.array_equal(ref_assign, cand_assign)
        assert np.array_equal(reference.job_counts, candidate.job_counts)
        assert reference.probes == candidate.probes

    def test_dispatcher_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            Dispatcher(10, policy="greedy", backend="bogus")

    def test_cli_list_backends(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out

    def test_cli_backend_flag_runs_spec(self, capsys, tmp_path):
        from repro.experiments.cli import main

        spec = SimulationSpec("adaptive", n_balls=2000, n_bins=200, seed=1)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["--spec", str(path), "--json"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert main(["--spec", str(path), "--json", "--backend", "scalar"]) == 0
        candidate = json.loads(capsys.readouterr().out)
        assert reference == candidate

    def test_cli_rejects_unknown_backend(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["--list", "--backend", "bogus"])
        assert "unknown backend" in capsys.readouterr().err
