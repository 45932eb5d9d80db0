"""The one stage walk of the streaming sessions, and the traces it records.

:func:`~repro.core.thresholds.stage_segments` cuts a run of balls at stage
ends; :meth:`~repro.core.session.ProtocolSession.place` walks those pieces
for every streaming protocol, so every one of them records the same
per-stage trace.  :meth:`~repro.core.protocol.AllocationProtocol.allocate_batch`
alone chooses between the trial axis and the per-trial loop, so traced
``run_trials`` blocks loop their trials (``tests/test_backends.py`` runs
them under every backend).  This module certifies the walk and its
traces, and that the protocols without stages refuse a trace.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro  # noqa: F401  (registers the baselines)
from repro.api import Simulation, SimulationSpec, simulate
from repro.core.protocol import available_protocols, make_protocol
from repro.core.thresholds import stage_of_ball, stage_segments, stage_windows
from repro.errors import ConfigurationError
from repro.experiments.runner import run_trials
from repro.runtime.probes import RandomProbeStream

STREAMING_PROTOCOLS = tuple(
    name for name in available_protocols() if make_protocol(name).streaming
)
ROUND_AND_SWEEP_PROTOCOLS = ("rebalancing", "parallel-greedy", "parallel-collision")


def assert_same_run(a, b, checkpoints: bool = True) -> None:
    assert np.array_equal(a.loads, b.loads)
    assert a.allocation_time == b.allocation_time
    if checkpoints:
        assert a.costs.probe_checkpoints == b.costs.probe_checkpoints
    wa = getattr(a, "weighted_loads", None)
    wb = getattr(b, "weighted_loads", None)
    assert (wa is None) == (wb is None)
    if wa is not None:
        assert np.array_equal(wa, wb)


class TestStageSegments:
    @settings(max_examples=200, deadline=None)
    @given(
        placed=st.integers(0, 500),
        count=st.integers(0, 500),
        n=st.integers(1, 60),
    )
    def test_pieces_tile_the_range_one_stage_each(self, placed, count, n):
        segments = list(stage_segments(placed, count, n))
        balls = [i for _, first, last, _ in segments for i in range(first, last + 1)]
        assert balls == list(range(placed + 1, placed + count + 1))
        for stage, first, last, ends_stage in segments:
            assert first <= last
            assert stage_of_ball(first, n) == stage_of_ball(last, n) == stage
            assert ends_stage == (stage_of_ball(last + 1, n) != stage)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(0, 500), n=st.integers(1, 60))
    def test_from_zero_reproduces_stage_windows(self, m, n):
        assert [segment[:3] for segment in stage_segments(0, m, n)] == [
            (w.stage, w.first_ball, w.last_ball) for w in stage_windows(m, n)
        ]

    def test_rejects_non_positive_n(self):
        with pytest.raises(ConfigurationError):
            list(stage_segments(0, 5, 0))


class TestEveryStreamingProtocolTraces:
    M, N = 1_050, 100

    @pytest.mark.parametrize("name", STREAMING_PROTOCOLS)
    def test_trace_leaves_the_run_unchanged(self, name):
        plain = simulate(SimulationSpec(name, self.M, self.N, seed=3))
        traced = simulate(
            SimulationSpec(name, self.M, self.N, seed=3, record_trace=True)
        )
        # Traced THRESHOLD also logs a checkpoint per stage; the run is the same.
        assert_same_run(traced, plain, checkpoints=False)
        assert plain.trace is None
        assert len(traced.trace) == math.ceil(self.M / self.N)
        assert [r.stage for r in traced.trace] == list(range(len(traced.trace)))
        assert sum(r.balls_placed for r in traced.trace) == self.M
        assert int(traced.trace.probes_per_stage().sum()) == traced.allocation_time

    @pytest.mark.parametrize("name", STREAMING_PROTOCOLS)
    def test_one_shot_stepped_and_trials_traces_agree(self, name):
        spec = SimulationSpec(
            name, self.M, self.N, seed=8, trials=2, record_trace=True
        )
        trials = run_trials(spec)
        for trial, batched in enumerate(trials):
            one_shot = Simulation(spec, trial=trial).run()
            sim = Simulation(spec, trial=trial)
            for k in (7, 150, 93, 404):
                sim.step(k)
            stepped = sim.results()
            for run in (one_shot, stepped):
                assert_same_run(batched, run)
                assert batched.trace == run.trace

    @pytest.mark.parametrize("name", STREAMING_PROTOCOLS)
    def test_empty_run_records_no_stage(self, name):
        result = simulate(SimulationSpec(name, 0, 5, seed=1, record_trace=True))
        assert result.trace is not None and len(result.trace) == 0

    def test_weighted_memory_stages_snapshot_the_remembered_set(self):
        result = simulate(
            SimulationSpec("weighted-memory", 250, 100, seed=4, record_trace=True)
        )
        for record in result.trace:
            assert record.remembered is not None and len(record.remembered) == 1


@pytest.mark.parametrize(
    "name", [name for name in STREAMING_PROTOCOLS if name.startswith("weighted-")]
)
def test_weighted_ball_counts_track_every_step(name):
    # A weighted session tallies its ball counts as it goes; each read must
    # equal a fresh count of every ball placed so far.
    session = make_protocol(name).begin(1_000, 30, seed=6, record_trace=True)
    for k in (1, 99, 0, 400, 500):
        session.place(k)
        fresh = np.bincount(session.assignments[: session.placed], minlength=30)
        assert np.array_equal(session.loads, fresh)
    assert np.array_equal(session.result().loads, fresh)


class TestRoundAndSweepProtocolsRefuseTraces:
    @pytest.mark.parametrize("name", ROUND_AND_SWEEP_PROTOCOLS)
    def test_refused_before_any_probe(self, name):
        stream = RandomProbeStream(10, seed=1)
        with pytest.raises(ConfigurationError, match="trace"):
            make_protocol(name).allocate(15, 10, probe_stream=stream, record_trace=True)
        assert stream.consumed == 0
        with pytest.raises(ConfigurationError, match="trace"):
            simulate(SimulationSpec(name, 15, 10, seed=1, record_trace=True))
        assert simulate(SimulationSpec(name, 15, 10, seed=1)).trace is None


def test_finished_weighted_loads_are_a_copy():
    sim = Simulation(SimulationSpec("weighted-greedy", 200, 10, seed=2))
    result = sim.run()
    before = result.weighted_max_load
    sim.state.weighted_loads[0] += 100.0
    assert sim.results().weighted_max_load == before
