"""Tests for repro.service: framing, telemetry, micro-batching, the server.

The contract under test: the live service is a *transparent* wrapper around
the batch dispatcher — any stream of submissions produces exactly the
assignments of feeding the same job groups to a bare
:class:`~repro.scheduler.Dispatcher` in the same order, regardless of how
the micro-batcher coalesces them; backpressure, telemetry and the TCP
protocol never change a single assignment.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReproError
from repro.scheduler.dispatcher import Dispatcher
from repro.scheduler.metrics import compute_metrics, sorted_percentiles
from repro.service import (
    DispatchService,
    FrameConnection,
    FrameTooLargeError,
    FramingError,
    MicroBatcher,
    QueueOverflow,
    RequestLog,
    RollingWindow,
    ServiceClient,
    ServiceError,
    ServiceTelemetry,
    ServiceThread,
    decode_frame,
    encode_frame,
)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    """Fail a test during which the ``asyncio`` logger records an error.

    asyncio reports an exception nobody retrieved from a future or task,
    and one raised by a loop callback, only through that logger; a test
    would pass without it.  Those reports come when the object is
    collected, hence the collection before the check.
    """
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(handler)
    assert not records, [record.getMessage() for record in records]


def make_dispatcher(**kwargs) -> Dispatcher:
    kwargs.setdefault("policy", "adaptive")
    kwargs.setdefault("seed", 42)
    return Dispatcher(kwargs.pop("n_servers", 100), **kwargs)


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #
class TestFraming:
    def test_round_trip(self):
        message = {"type": "submit", "sizes": [1.0, 2.5], "id": 7, "s": "a\nb"}
        wire = encode_frame(message)
        assert wire.endswith(b"\n")
        # JSON escaping keeps the payload newline out of the wire line.
        assert wire.count(b"\n") == 1
        assert decode_frame(wire) == message

    def test_non_dict_payload_rejected(self):
        with pytest.raises(FramingError, match="dict"):
            encode_frame([1, 2, 3])

    def test_non_serialisable_payload_rejected(self):
        with pytest.raises(FramingError, match="JSON"):
            encode_frame({"x": float("nan")})  # allow_nan=False is strict
        with pytest.raises(FramingError, match="JSON"):
            encode_frame({"x": object()})

    def test_malformed_line_rejected(self):
        # Strict JSON: no NaN/Infinity literals; nesting past the parser's
        # recursion limit is malformed too, not a RecursionError.
        for line in (b"not json\n", b'{"id":NaN}\n', b'{"id":-Infinity}\n', b"[" * 10**5):
            with pytest.raises(FramingError, match="malformed"):
                decode_frame(line)
        with pytest.raises(FramingError, match="dict"):
            decode_frame(b"[1,2]\n")

    def test_frame_connection_round_trip(self):
        a, b = socket.socketpair()
        left, right = FrameConnection(a), FrameConnection(b)
        left.send({"type": "hello", "worker_id": 3})
        assert right.recv() == {"type": "hello", "worker_id": 3}
        right.send({"ok": True})
        assert left.recv() == {"ok": True}
        left.close()
        right.close()

    def test_frame_connection_eof_raises_connection_error(self):
        a, b = socket.socketpair()
        right = FrameConnection(b)
        a.sendall(b'{"type":"partial"')  # torn frame, then peer dies
        a.close()
        with pytest.raises(ConnectionError, match="closed by peer"):
            right.recv()
        right.close()

    def test_framing_error_is_a_repro_error(self):
        assert issubclass(FramingError, ReproError)
        assert issubclass(FrameTooLargeError, FramingError)

    def test_frame_connection_oversize_raises_and_closes(self, monkeypatch):
        from repro.service import framing

        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 64)
        a, b = socket.socketpair()
        right = FrameConnection(b)
        # A single >64-byte line with no newline inside the cap: readline
        # stops mid-frame, which must be reported as oversize, not EOF.
        a.sendall(b'{"padding":"' + b"x" * 200 + b'"}\n')
        with pytest.raises(FrameTooLargeError, match="MAX_FRAME_BYTES"):
            right.recv()
        # The desynchronised connection was closed, not left readable.
        with pytest.raises((ConnectionError, OSError, ValueError)):
            right.recv()
        a.close()

    def test_async_read_frame_survives_default_limit(self):
        # read_frame converts a StreamReader limit overrun into
        # FrameTooLargeError instead of leaking bare ValueError.
        async def scenario():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(b'{"padding":"' + b"y" * 200 + b'"}\n')
            reader.feed_eof()
            from repro.service.framing import read_frame

            with pytest.raises(FrameTooLargeError, match="limit"):
                await read_frame(reader)

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# Telemetry
# --------------------------------------------------------------------- #
class TestRollingWindow:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            RollingWindow(0)

    def test_partial_fill(self):
        window = RollingWindow(10)
        window.add([1.0, 2.0, 3.0])
        assert sorted(window.samples()) == [1.0, 2.0, 3.0]
        assert window.count == 3

    def test_wraparound_evicts_oldest(self):
        window = RollingWindow(4)
        for v in range(6):
            window.add(float(v))
        assert sorted(window.samples()) == [2.0, 3.0, 4.0, 5.0]
        assert window.count == 6

    def test_oversized_add_keeps_tail(self):
        window = RollingWindow(3)
        window.add(np.arange(10, dtype=float))
        assert sorted(window.samples()) == [7.0, 8.0, 9.0]

    def test_percentiles_match_numpy(self):
        window = RollingWindow(100)
        values = np.linspace(0.0, 1.0, 57)
        window.add(values)
        got = window.percentiles((50.0, 95.0, 99.0))
        expected = np.percentile(values, (50.0, 95.0, 99.0))
        assert np.allclose(got, expected)

    def test_empty_percentiles_are_nan(self):
        assert all(np.isnan(v) for v in RollingWindow(4).percentiles())


class TestServiceTelemetry:
    def test_counts_and_rate(self):
        clock = iter(np.arange(0.0, 100.0, 0.5))
        now = [0.0]

        def fake_clock():
            now[0] = next(clock)
            return now[0]

        telemetry = ServiceTelemetry(window=64, rate_horizon=1000.0, clock=fake_clock)
        telemetry.record_batch(np.full(10, 0.001), 0.0005)
        telemetry.record_batch(np.full(5, 0.002), 0.0004)
        assert telemetry.jobs == 15
        assert telemetry.batches == 2
        assert telemetry.jobs_per_second() > 0

    def test_snapshot_without_samples_is_json_clean(self):
        snapshot = ServiceTelemetry().snapshot()
        assert snapshot["jobs_dispatched"] == 0
        assert snapshot["job_latency_p99"] is None
        assert snapshot["mean_batch_jobs"] is None
        json.dumps(snapshot, allow_nan=False)  # the wire format must accept it

    def test_snapshot_gauges_match_compute_metrics(self):
        dispatcher = make_dispatcher()
        dispatcher.dispatch_batch(np.full(50, 1.0))
        snapshot = ServiceTelemetry().snapshot(dispatcher, queue_depth=3)
        metrics = compute_metrics(
            dispatcher.work, dispatcher.job_counts, dispatcher.probes
        )
        assert snapshot["queue_depth"] == 3
        for key, value in metrics.as_dict().items():
            assert snapshot[f"gauge_{key}"] == float(value)

    def test_record_shed(self):
        telemetry = ServiceTelemetry()
        telemetry.record_shed(7)
        assert telemetry.snapshot()["jobs_shed"] == 7


class TestWorkPercentileMetrics:
    def test_metrics_carry_work_percentiles(self):
        work = np.arange(100, dtype=float)
        counts = np.ones(100, dtype=np.int64)
        metrics = compute_metrics(work, counts, probes=100)
        p50, p99 = np.percentile(work, (50.0, 99.0))
        assert metrics.work_p50 == p50
        assert metrics.work_p99 == p99
        as_dict = metrics.as_dict()
        assert as_dict["work_p50"] == p50
        assert as_dict["work_p99"] == p99


# --------------------------------------------------------------------- #
# Telemetry read/record paths against the formulas they replaced
# --------------------------------------------------------------------- #
def sample_array(n: int, seed: int, kind: str) -> np.ndarray:
    """A seeded float array of one of the shapes the percentile tests need."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random(n)
    if kind == "ties":
        return rng.integers(-3, 4, n).astype(np.float64)
    if kind == "wide":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    values = rng.standard_normal(n)
    if kind == "inf":
        values[rng.random(n) < 0.1] = np.inf
        values[rng.random(n) < 0.1] = -np.inf
    elif kind == "nan":
        values[rng.integers(n)] = np.nan
    return values


def same_float(got: float, expected) -> bool:
    expected = float(expected)
    return got == expected or (np.isnan(got) and np.isnan(expected))


def mask_rate(events: list, capacity: int, now: float, horizon: float) -> float:
    """The rate formula of the all-rows event mask, as an oracle."""
    if not events:
        return 0.0
    kept = np.array(events[-capacity:], dtype=np.float64)
    recent = kept[kept[:, 0] >= now - horizon]
    if recent.size == 0:
        return 0.0
    span = max(now - float(recent[:, 0].min()), 1e-9)
    return float(recent[:, 1].sum()) / span


class TestSortedPercentiles:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["uniform", "ties", "wide", "inf", "nan", "normal"]),
        drawn=st.lists(st.floats(0.0, 100.0), max_size=3),
    )
    def test_equals_numpy_percentile(self, n, seed, kind, drawn):
        values = sample_array(n, seed, kind)
        qs = (0.0, 50.0, 95.0, 99.0, 100.0, *drawn)
        with np.errstate(invalid="ignore"):
            expected = np.percentile(values, qs)
        got = sorted_percentiles(values, qs)
        assert all(type(v) is float for v in got)
        assert all(same_float(g, e) for g, e in zip(got, expected)), (got, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["uniform", "ties", "wide", "inf", "nan"]),
    )
    def test_compute_metrics_work_percentiles_equal_numpy(self, n, seed, kind):
        work = sample_array(n, seed, kind)
        with np.errstate(invalid="ignore", over="ignore"):
            metrics = compute_metrics(work, np.ones(n, dtype=np.int64), probes=n)
            p50, p99 = np.percentile(work, (50.0, 99.0))
        assert same_float(metrics.work_p50, p50)
        assert same_float(metrics.work_p99, p99)


class TestIncrementalRate:
    @settings(max_examples=150, deadline=None)
    @given(
        window=st.integers(1, 200),
        horizon=st.floats(0.01, 5.0),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("record"), st.integers(1, 40)),
                st.tuples(st.just("advance"), st.floats(0.0, 0.05)),
                st.tuples(st.just("idle"), st.floats(1.0, 10.0)),
                st.tuples(st.just("read"), st.just(0)),
            ),
            max_size=600,
        ),
    )
    def test_equals_the_event_mask(self, window, horizon, steps):
        now = [0.0]
        telemetry = ServiceTelemetry(
            window=window, rate_horizon=horizon, clock=lambda: now[0]
        )
        events: list = []
        capacity = min(window, 4096)
        for action, value in steps:
            if action == "record":
                telemetry.record_batch(np.full(value, 1e-3), 1e-4)
                events.append((now[0], value))
            elif action == "read":
                # Repeated reads with no event between them agree too.
                for _ in range(2):
                    assert telemetry.jobs_per_second() == mask_rate(
                        events, capacity, now[0], horizon
                    )
            else:
                now[0] += value
        assert telemetry.jobs_per_second() == mask_rate(
            events, capacity, now[0], horizon
        )


class TestRecordPaths:
    @pytest.mark.parametrize("capacity", [1, 2, 5])
    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_scalar_add_matches_one_element_array(self, capacity, scalar):
        fast, reference = RollingWindow(capacity), RollingWindow(capacity)
        fast.add(np.arange(3, dtype=np.float64))
        reference.add(np.arange(3, dtype=np.float64))
        for v in np.linspace(-2.5, 7.5, 11):
            fast.add(scalar(v))
            reference.add(np.array([v]))
            written = min(fast.count, capacity)  # np.empty leaves the rest
            assert np.array_equal(fast._buffer[:written], reference._buffer[:written])
            assert fast._cursor == reference._cursor
            assert fast.count == reference.count

    @pytest.mark.parametrize(
        "assignments",
        [
            np.array([4, 0, 7, 7], dtype=np.int64),
            [4, 0, 7, 7],
            np.array(3, dtype=np.int64),
            np.array([[1, 2], [3, 4]]),
        ],
        ids=["int64-array", "list", "0-d-array", "2-d-array"],
    )
    def test_request_log_record_keeps_its_state(self, assignments):
        log = RequestLog(capacity=2)
        log.record("a", [9])
        log.record("b", assignments)
        expected = [int(a) for a in np.asarray(assignments).ravel()]
        state = log.state_dict()
        assert state["entries"] == [["a", [9]], ["b", expected]]
        assert all(type(a) is int for a in state["entries"][1][1])
        json.dumps(state, allow_nan=False)

    def test_request_log_entries_are_untracked_copies(self):
        log = RequestLog()
        assignments = np.array([4, 0, 7], dtype=np.int64)
        log.record("a", assignments)
        assignments[0] = 99  # the caller's array is not the log's
        (entry,) = log._entries.values()
        assert not gc.is_tracked(entry)
        replay = log.get("a")
        replay[:] = -1  # nor is a replay's
        assert log.get("a").tolist() == [4, 0, 7]
        assert log.state_dict()["entries"] == [["a", [4, 0, 7]]]

    def test_snapshot_matches_the_parent_formulas(self):
        now = [0.0]
        window, horizon = 64, 0.05
        telemetry = ServiceTelemetry(
            window=window, rate_horizon=horizon, clock=lambda: now[0]
        )
        dispatcher = make_dispatcher(n_servers=100)
        rng = np.random.default_rng(3)
        events, job_latencies, batch_latencies, sizes = [], [], [], []
        for _ in range(300):
            k = int(rng.integers(1, 40))
            now[0] += float(rng.exponential(0.002))
            dispatcher.dispatch_batch(rng.uniform(0.5, 2.0, k))
            latencies = rng.exponential(1e-3, k)
            seconds = float(rng.exponential(1e-4))
            telemetry.record_batch(latencies, seconds)
            events.append((now[0], k))
            job_latencies.extend(latencies)
            batch_latencies.append(seconds)
            sizes.append(float(k))
        now[0] += 0.01

        work, counts = dispatcher.work, dispatcher.job_counts
        job_p = np.percentile(job_latencies[-window:], (50.0, 95.0, 99.0))
        batch_p = np.percentile(batch_latencies[-window:], (50.0, 95.0, 99.0))
        work_p = np.percentile(work, (50.0, 99.0))
        makespan, avg_work = float(work.max()), float(work.mean())
        expected = {
            "uptime_seconds": now[0],
            "jobs_dispatched": int(sum(k for _, k in events)),
            "batches_dispatched": 300,
            "jobs_shed": 0,
            "jobs_per_second": mask_rate(events, window, now[0], horizon),
            "job_latency_p50": float(job_p[0]),
            "job_latency_p95": float(job_p[1]),
            "job_latency_p99": float(job_p[2]),
            "batch_latency_p50": float(batch_p[0]),
            "batch_latency_p95": float(batch_p[1]),
            "batch_latency_p99": float(batch_p[2]),
            "mean_batch_jobs": float(np.mean(sizes[-window:])),
            "queue_depth": 5,
            "gauge_makespan": makespan,
            "gauge_avg_work": avg_work,
            "gauge_work_imbalance_ratio": makespan / avg_work,
            "gauge_max_jobs": float(counts.max()),
            "gauge_min_jobs": float(counts.min()),
            "gauge_job_imbalance": float(counts.max() - counts.min()),
            "gauge_probes_per_job": dispatcher.probes / int(counts.sum()),
            "gauge_work_p50": float(work_p[0]),
            "gauge_work_p99": float(work_p[1]),
        }
        assert telemetry.snapshot(dispatcher, queue_depth=5) == expected


# --------------------------------------------------------------------- #
# Micro-batcher
# --------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_config_validation(self):
        dispatcher = make_dispatcher()
        with pytest.raises(ConfigurationError, match="max_queue_jobs"):
            MicroBatcher(dispatcher, max_queue_jobs=0)
        with pytest.raises(ConfigurationError, match="overflow"):
            MicroBatcher(dispatcher, overflow="panic")
        with pytest.raises(ConfigurationError, match="max_batch_jobs"):
            MicroBatcher(dispatcher, max_batch_jobs=0)

    def test_submit_requires_running(self):
        batcher = MicroBatcher(make_dispatcher())
        with pytest.raises(ConfigurationError, match="not accepting"):
            asyncio.run(batcher.submit([1.0]))

    def test_sequential_submissions_are_bit_identical(self):
        groups = [np.full(n, 1.0) for n in (3, 1, 7, 2, 120)]

        async def scenario():
            batcher = MicroBatcher(make_dispatcher())
            batcher.start()
            outs = [await batcher.submit(g) for g in groups]
            await batcher.stop()
            return outs

        outs = asyncio.run(scenario())
        reference = make_dispatcher()
        for group, out in zip(groups, outs):
            assert np.array_equal(out, reference.dispatch_batch(group))

    def test_concurrent_submissions_coalesce_and_stay_ordered(self):
        groups = [np.full(4, 1.0) for _ in range(25)]

        async def scenario():
            batcher = MicroBatcher(make_dispatcher())
            batcher.start()
            outs = await asyncio.gather(*(batcher.submit(g) for g in groups))
            batches = batcher.telemetry.batches
            await batcher.stop()
            return outs, batches

        outs, batches = asyncio.run(scenario())
        # Coalescing happened: far fewer dispatch calls than submissions.
        assert batches < len(groups)
        # FIFO order: the concatenation equals one reference mega-batch.
        reference = make_dispatcher()
        expected = reference.dispatch_batch(np.concatenate(groups))
        assert np.array_equal(np.concatenate(outs), expected)

    def test_empty_submission_short_circuits(self):
        async def scenario():
            batcher = MicroBatcher(make_dispatcher())
            batcher.start()
            out = await batcher.submit([])
            await batcher.stop()
            return out

        assert asyncio.run(scenario()).size == 0

    def test_shed_overflow_raises_queue_overflow(self):
        async def scenario():
            batcher = MicroBatcher(
                make_dispatcher(), max_queue_jobs=10, overflow="shed"
            )
            batcher.start()
            async with batcher.flush_lock:  # hold the flush task off
                first = asyncio.ensure_future(batcher.submit(np.full(10, 1.0)))
                await asyncio.sleep(0)
                with pytest.raises(QueueOverflow, match="queue full"):
                    await batcher.submit(np.full(5, 1.0))
                assert batcher.queue_depth == 10
            out = await first
            shed = batcher.telemetry.jobs_shed
            await batcher.stop()
            return out, shed

        out, shed = asyncio.run(scenario())
        assert out.size == 10
        assert shed == 5

    def test_block_overflow_parks_then_completes(self):
        async def scenario():
            batcher = MicroBatcher(
                make_dispatcher(), max_queue_jobs=10, overflow="block"
            )
            batcher.start()
            async with batcher.flush_lock:
                first = asyncio.ensure_future(batcher.submit(np.full(10, 1.0)))
                await asyncio.sleep(0)
                second = asyncio.ensure_future(batcher.submit(np.full(5, 1.0)))
                for _ in range(5):
                    await asyncio.sleep(0)
                assert not second.done()  # parked on backpressure
                assert batcher.queue_depth == 10
            outs = await asyncio.gather(first, second)
            await batcher.stop()
            return outs

        first, second = asyncio.run(scenario())
        reference = make_dispatcher()
        assert np.array_equal(first, reference.dispatch_batch(np.full(10, 1.0)))
        assert np.array_equal(second, reference.dispatch_batch(np.full(5, 1.0)))

    def test_stop_releases_blocked_producers(self):
        async def scenario():
            batcher = MicroBatcher(
                make_dispatcher(), max_queue_jobs=10, overflow="block"
            )
            batcher.start()
            async with batcher.flush_lock:
                first = asyncio.ensure_future(batcher.submit(np.full(10, 1.0)))
                await asyncio.sleep(0)
                second = asyncio.ensure_future(batcher.submit(np.full(5, 1.0)))
                for _ in range(3):
                    await asyncio.sleep(0)
                stopper = asyncio.ensure_future(batcher.stop())
                for _ in range(5):
                    await asyncio.sleep(0)
                # The parked producer failed cleanly before stop completed.
                assert second.done()
                with pytest.raises(ConfigurationError, match="stopped while"):
                    second.result()
            await stopper
            return await first  # the final flush still dispatched it

        assert asyncio.run(scenario()).size == 10

    def test_oversized_submission_admitted_alone(self):
        async def scenario():
            batcher = MicroBatcher(
                make_dispatcher(), max_queue_jobs=10, overflow="block"
            )
            batcher.start()
            out = await batcher.submit(np.full(25, 1.0))
            await batcher.stop()
            return out

        assert asyncio.run(scenario()).size == 25

    def test_max_batch_jobs_splits_flushes_bit_identically(self):
        groups = [np.full(6, 1.0) for _ in range(10)]

        async def scenario():
            batcher = MicroBatcher(make_dispatcher(), max_batch_jobs=13)
            batcher.start()
            outs = await asyncio.gather(*(batcher.submit(g) for g in groups))
            batches = batcher.telemetry.batches
            await batcher.stop()
            return outs, batches

        outs, batches = asyncio.run(scenario())
        assert batches >= 5  # 60 jobs / 13-cap => at least 5 dispatch calls
        reference = make_dispatcher()
        expected = reference.dispatch_batch(np.concatenate(groups))
        assert np.array_equal(np.concatenate(outs), expected)

    def test_bad_submission_is_rejected_alone_at_admission(self):
        # A submission the dispatcher would refuse (here: over w_max) fails
        # at submit time, on its own — it never taints the micro-batch the
        # concurrent good submissions are coalesced into.
        async def scenario():
            dispatcher = make_dispatcher(policy="weighted", w_max=1.0)
            batcher = MicroBatcher(dispatcher)
            batcher.start()
            async with batcher.flush_lock:  # force everything into one tick
                good = asyncio.ensure_future(batcher.submit([0.5, 0.5]))
                bad = asyncio.ensure_future(batcher.submit([2.0]))  # > w_max
                late = asyncio.ensure_future(batcher.submit([0.25]))
                await asyncio.sleep(0)
            results = await asyncio.gather(good, bad, late, return_exceptions=True)
            await batcher.stop()
            return results

        good, bad, late = asyncio.run(scenario())
        assert isinstance(bad, ReproError)
        assert "w_max" in str(bad)
        reference = make_dispatcher(policy="weighted", w_max=1.0)
        assert np.array_equal(good, reference.dispatch_batch([0.5, 0.5]))
        assert np.array_equal(late, reference.dispatch_batch([0.25]))

    def test_flush_failure_falls_back_to_per_submission_dispatch(self):
        # Defence in depth for failures admission cannot predict: under the
        # threshold policy the fused 15-job batch overruns the declared
        # 10-job stream and fails as a whole; the flush then re-dispatches
        # one submission at a time, so only the group that actually
        # overruns errors and the survivors get exactly the assignments of
        # the equivalent un-fused stream.
        async def scenario():
            batcher = MicroBatcher(make_dispatcher(policy="threshold"), total_jobs=10)
            batcher.start()
            async with batcher.flush_lock:  # fuse all three into one batch
                good = asyncio.ensure_future(batcher.submit(np.full(6, 1.0)))
                bad = asyncio.ensure_future(batcher.submit(np.full(5, 1.0)))
                late = asyncio.ensure_future(batcher.submit(np.full(4, 1.0)))
                await asyncio.sleep(0)
            results = await asyncio.gather(good, bad, late, return_exceptions=True)
            await batcher.stop()
            return results

        good, bad, late = asyncio.run(scenario())
        assert isinstance(bad, ReproError)
        assert "total_jobs" in str(bad)
        reference = make_dispatcher(policy="threshold")
        assert np.array_equal(
            good, reference.dispatch_batch(np.full(6, 1.0), total_jobs=10)
        )
        assert np.array_equal(
            late, reference.dispatch_batch(np.full(4, 1.0), total_jobs=10)
        )

    def test_blocked_producer_is_not_overtaken(self):
        # FIFO holds under backpressure: a submission that would fit the
        # queue immediately still waits behind an earlier parked producer,
        # so dispatch order always equals submission order.
        async def scenario():
            batcher = MicroBatcher(
                make_dispatcher(), max_queue_jobs=10, overflow="block"
            )
            batcher.start()
            async with batcher.flush_lock:
                first = asyncio.ensure_future(batcher.submit(np.full(8, 1.0)))
                await asyncio.sleep(0)
                parked = asyncio.ensure_future(batcher.submit(np.full(5, 1.0)))
                await asyncio.sleep(0)  # 8 + 5 > 10: parks on backpressure
                small = asyncio.ensure_future(batcher.submit(np.full(2, 1.0)))
                for _ in range(5):
                    await asyncio.sleep(0)
                # 8 + 2 <= 10 would fit, but FIFO parks it behind `parked`.
                assert not parked.done() and not small.done()
                assert batcher.queue_depth == 8
            outs = await asyncio.gather(first, parked, small)
            await batcher.stop()
            return outs

        outs = asyncio.run(scenario())
        reference = make_dispatcher()
        expected = reference.dispatch_batch(np.full(15, 1.0))
        assert np.array_equal(np.concatenate(outs), expected)

    def test_drain_waits_for_queue(self):
        async def scenario():
            batcher = MicroBatcher(make_dispatcher())
            batcher.start()
            futures = [
                asyncio.ensure_future(batcher.submit(np.full(3, 1.0)))
                for _ in range(5)
            ]
            await asyncio.sleep(0)  # let the submissions enqueue first
            await batcher.drain()
            assert batcher.queue_depth == 0
            # Everything queued has been dispatched; the submitter tasks
            # resolve without further dispatcher work.
            assert batcher.dispatcher.jobs_dispatched == 15
            outs = await asyncio.gather(*futures)
            assert sum(o.size for o in outs) == 15
            await batcher.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# The service protocol (in-process handler)
# --------------------------------------------------------------------- #
class TestDispatchServiceProtocol:
    def run_messages(self, messages, **service_kwargs):
        async def scenario():
            service = DispatchService(make_dispatcher(), **service_kwargs)
            await service.start()
            replies = [await service.handle(m) for m in messages]
            await service.stop()
            return replies

        return asyncio.run(scenario())

    def test_requires_a_dispatcher(self):
        with pytest.raises(ConfigurationError, match="Dispatcher"):
            DispatchService(object())

    def test_submit_reply_carries_assignments(self):
        (reply,) = self.run_messages(
            [{"type": "submit", "sizes": [1.0, 1.0, 1.0], "id": 9}]
        )
        assert reply["type"] == "result"
        assert reply["id"] == 9
        reference = make_dispatcher()
        assert reply["assignments"] == reference.dispatch_batch(
            np.full(3, 1.0)
        ).tolist()

    def test_stats_and_drain(self):
        submit = {"type": "submit", "sizes": [1.0] * 10, "id": 1}
        replies = self.run_messages(
            [submit, {"type": "drain", "id": 2}, {"type": "stats", "id": 3}]
        )
        assert replies[1] == {"type": "drained", "id": 2, "jobs_dispatched": 10}
        stats = replies[2]["stats"]
        assert stats["jobs_dispatched"] == 10
        assert stats["gauge_makespan"] > 0
        assert "gauge_work_p99" in stats

    def test_bad_messages_are_error_replies_not_crashes(self):
        replies = self.run_messages(
            [
                {"type": "submit", "id": 1},  # no sizes
                {"type": "teleport", "id": 2},
                {"no_type": True},
            ]
        )
        assert [r["type"] for r in replies] == ["error"] * 3
        assert "sizes" in replies[0]["error"]
        assert "teleport" in replies[1]["error"]
        assert replies[0]["id"] == 1 and replies[1]["id"] == 2

    def test_non_numeric_or_nested_sizes_are_error_replies(self):
        # np.asarray failures (non-numeric, ragged) and nested-but-regular
        # lists must come back as error frames, not kill the respond task
        # and leave the client waiting forever.
        replies = self.run_messages(
            [
                {"type": "submit", "sizes": ["x"], "id": 1},
                {"type": "submit", "sizes": [[1.0], [2.0, 3.0]], "id": 2},
                {"type": "submit", "sizes": [[1.0, 2.0], [3.0, 4.0]], "id": 3},
                {"type": "submit", "sizes": [None], "id": 4},
                {"type": "submit", "sizes": [1.0, 2.0], "id": 5},
            ]
        )
        assert [r["type"] for r in replies] == ["error"] * 4 + ["result"]
        for reply in replies[:4]:
            assert "sizes" in reply["error"]
        assert len(replies[4]["assignments"]) == 2

    def test_checkpoint_reply_and_file(self, tmp_path):
        path = tmp_path / "state.json"
        replies = self.run_messages(
            [
                {"type": "submit", "sizes": [1.0] * 8, "id": 1},
                {"type": "checkpoint", "id": 2},
            ],
            checkpoint_path=str(path),
        )
        state = replies[1]["state"]
        assert state["kind"] == "dispatcher-state"
        assert state["jobs_dispatched"] == 8
        assert replies[1]["path"] == str(path)
        assert json.loads(path.read_text()) == state


# --------------------------------------------------------------------- #
# The TCP server end-to-end
# --------------------------------------------------------------------- #
class TestServiceOverTcp:
    def test_full_conversation(self):
        service = DispatchService(make_dispatcher())
        with ServiceThread(service) as thread:
            with thread.client() as client:
                first = client.submit([1.0] * 10)
                piped = client.submit_pipelined([[1.0] * 5] * 8)
                stats = client.stats()
                assert stats["jobs_dispatched"] == 50
                assert stats["gauge_makespan"] > 0
                assert client.drain() == 50
                state = client.checkpoint()
                assert state["jobs_dispatched"] == 50
        # Bit-identity against a bare dispatcher fed the same groups in the
        # same submission order (coalescing never changes assignments).
        reference = make_dispatcher()
        assert np.array_equal(first, reference.dispatch_batch(np.full(10, 1.0)))
        expected = reference.dispatch_batch(np.full(40, 1.0))
        assert np.array_equal(np.concatenate(piped), expected)

    def test_pipelined_submissions_coalesce(self):
        service = DispatchService(make_dispatcher())
        with ServiceThread(service) as thread:
            with thread.client() as client:
                client.submit_pipelined([[1.0] * 2] * 40)
                stats = client.stats()
        # 40 groups arrived back-to-back: far fewer than 40 dispatch calls.
        assert stats["batches_dispatched"] < 40
        assert stats["jobs_dispatched"] == 80

    def test_large_submit_frame_exceeds_asyncio_default_limit(self):
        # One submit frame well past asyncio's 64 KiB default StreamReader
        # limit: the server must read it (limit=MAX_FRAME_BYTES) instead of
        # dropping the connection with no reply.
        service = DispatchService(make_dispatcher())
        sizes = [1.0] * 20_000  # ~100 KiB on the wire
        with ServiceThread(service) as thread:
            with thread.client() as client:
                assignments = client.submit(sizes)
        assert assignments.size == 20_000
        reference = make_dispatcher()
        assert np.array_equal(
            assignments, reference.dispatch_batch(np.full(20_000, 1.0))
        )

    def test_oversized_frame_gets_error_reply_then_close(self, monkeypatch):
        from repro.service import framing

        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 1024)
        service = DispatchService(make_dispatcher())
        with ServiceThread(service) as thread:
            host, port = thread.address
            conn = FrameConnection(socket.create_connection((host, port), 10))
            try:
                conn.send({"type": "submit", "sizes": [1.0] * 1000, "id": 1})
                reply = conn.recv()
                assert reply["type"] == "error"
                assert "limit" in reply["error"]
                # The overrun desynchronised the stream; the server closes
                # the connection after the error reply.
                with pytest.raises(ConnectionError):
                    conn.recv()
            finally:
                conn.close()

    def test_bad_sizes_payload_is_an_error_reply_over_tcp(self):
        service = DispatchService(make_dispatcher())
        with ServiceThread(service) as thread:
            with thread.client() as client:
                with pytest.raises(ServiceError, match="sizes"):
                    client.request({"type": "submit", "sizes": ["x", "y"]})
                # The connection survives and keeps dispatching.
                assert client.submit([1.0, 1.0]).size == 2

    def test_error_reply_raises_service_error(self):
        service = DispatchService(
            make_dispatcher(policy="weighted", w_max=1.0)
        )
        with ServiceThread(service) as thread:
            with thread.client() as client:
                with pytest.raises(ServiceError, match="w_max"):
                    client.submit([5.0])
                # The connection survives the error.
                assert client.submit([0.5]).size == 1

    def test_shed_overflow_is_an_error_reply(self):
        service = DispatchService(
            make_dispatcher(), max_queue_jobs=10, overflow="shed"
        )
        with ServiceThread(service) as thread:
            with thread.client() as client:
                # Pipeline enough back-to-back jobs that the bounded queue
                # must shed at least one submission.
                try:
                    client.submit_pipelined([[1.0] * 9] * 30)
                    shed = 0
                except ServiceError as exc:
                    assert "queue full" in str(exc)
                    shed = 1
                stats_shed = client.stats()["jobs_shed"]
        assert shed == 0 or stats_shed > 0

    def test_shutdown_message_stops_the_service(self):
        service = DispatchService(make_dispatcher())
        thread = ServiceThread(service)
        client = thread.client()
        client.submit([1.0])
        client.shutdown()
        thread._thread.join(timeout=10)
        assert not thread._thread.is_alive()
        client.close()

    def test_concurrent_clients_all_get_their_own_assignments(self):
        service = DispatchService(make_dispatcher(n_servers=500))
        results: dict[int, list] = {}

        def worker(idx, thread):
            with thread.client() as client:
                results[idx] = [client.submit([1.0] * 3) for _ in range(10)]

        with ServiceThread(service) as thread:
            threads = [
                threading.Thread(target=worker, args=(i, thread)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            total = thread.request({"type": "drain"})["jobs_dispatched"]
        assert total == 4 * 10 * 3
        assert all(all(a.size == 3 for a in outs) for outs in results.values())
        # Every job landed on a real server exactly once overall.
        assert int(service.dispatcher.job_counts.sum()) == total


# --------------------------------------------------------------------- #
# The connection loop: frames admitted inline, replies from the flush
# --------------------------------------------------------------------- #
class RawPeer:
    """A test peer writing raw bytes to the service and reading reply frames."""

    def __init__(self, address, timeout: float = 10.0, rcvbuf: int | None = None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(timeout)
        self.sock.connect(address)
        self._rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self) -> dict:
        line = self._rfile.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("service closed the connection")
        return decode_frame(line)

    def close(self) -> None:
        self._rfile.close()
        self.sock.close()

    def __enter__(self) -> "RawPeer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def submit_frame(frame_id, sizes, request_id=None) -> bytes:
    message = {"type": "submit", "id": frame_id, "sizes": list(sizes)}
    if request_id is not None:
        message["request_id"] = request_id
    return encode_frame(message)


@st.composite
def replay_rounds(draw):
    """Rounds of submit frames, some replaying an earlier round's request id.

    Each round is ``(frames, cuts, pause)``: the frames as
    ``(request_id, sizes, original)`` triples (``original`` indexes the
    replayed frame, or is ``None``), the byte offsets its payload is cut at,
    and whether to pause between the chunks.
    """
    frames: list = []
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        start = len(frames)
        for _ in range(draw(st.integers(1, 8))):
            committed = [i for i in range(start) if frames[i][0] is not None]
            if committed and draw(st.integers(0, 3)) == 0:
                original = draw(st.sampled_from(committed))
                frames.append((frames[original][0], frames[original][1], original))
                continue
            sizes = draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=1, max_size=12))
            keyed = draw(st.booleans())
            frames.append((f"r{len(frames)}" if keyed else None, sizes, None))
        payload = b"".join(
            submit_frame(i, sizes, request_id)
            for i, (request_id, sizes, _) in enumerate(frames[start:], start)
        )
        cuts = sorted(set(draw(st.lists(st.integers(1, len(payload) - 1), max_size=6))))
        rounds.append((range(start, len(frames)), cuts, draw(st.booleans())))
    return frames, rounds


class TestConnectionLoop:
    N_SERVERS = 1000

    def service(self, **kwargs) -> DispatchService:
        return DispatchService(make_dispatcher(n_servers=self.N_SERVERS), **kwargs)

    def test_small_submits_and_stats_create_no_tasks(self):
        # Each frame used to cost one task; now only checkpoint and drain do.
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(type(coro).__name__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        rng = np.random.default_rng(1)
        with ServiceThread(self.service()) as thread:
            installed = threading.Event()

            def install() -> None:
                thread._loop.set_task_factory(counting_factory)
                installed.set()

            thread._loop.call_soon_threadsafe(install)
            assert installed.wait(10)
            with thread.client() as client:
                for i in range(200):
                    client.submit(rng.uniform(0.5, 2.0, int(rng.integers(1, 33))))
                    if i % 20 == 0:
                        client.stats()
                frames_created = len(created)
        # The connection's own handler is the one task left.
        assert frames_created < 5, created

    def test_one_sendall_of_eight_submits_is_one_dispatch(self):
        groups = [[1.0 + i] * (i + 1) for i in range(8)]
        payload = b"".join(submit_frame(i, g) for i, g in enumerate(groups))
        assert len(payload) < 1024
        service = self.service()
        calls = []
        dispatch = service.dispatcher.dispatch_batch

        def counting_dispatch(sizes, **kwargs):
            calls.append(len(sizes))
            return dispatch(sizes, **kwargs)

        service.dispatcher.dispatch_batch = counting_dispatch
        with ServiceThread(service) as thread:
            with RawPeer(thread.address) as peer:
                peer.send(payload)
                replies = [peer.recv() for _ in groups]
        assert calls == [sum(len(g) for g in groups)]
        by_id = {reply["id"]: reply["assignments"] for reply in replies}
        reference = make_dispatcher(n_servers=self.N_SERVERS)
        for i, group in enumerate(groups):
            assert by_id[i] == reference.dispatch_batch(np.asarray(group)).tolist()

    @settings(max_examples=30, deadline=None)
    @given(stream=replay_rounds())
    def test_chunked_stream_with_replays_matches_a_bare_dispatcher(self, stream):
        # Frames split mid-line across writes, fused into micro-batches
        # however they arrive, still get exactly a bare dispatcher's
        # assignments; a replay of a committed id is answered from the log.
        frames, rounds = stream
        reference = make_dispatcher(n_servers=self.N_SERVERS)
        expected = []
        for request_id, sizes, original in frames:
            if original is None:
                expected.append(reference.dispatch_batch(np.asarray(sizes)).tolist())
            else:
                expected.append(expected[original])
        with ServiceThread(self.service()) as thread:
            with RawPeer(thread.address) as peer:
                for indices, cuts, pause in rounds:
                    payload = b"".join(
                        submit_frame(i, frames[i][1], frames[i][0]) for i in indices
                    )
                    for lo, hi in zip([0, *cuts], [*cuts, len(payload)]):
                        peer.send(payload[lo:hi])
                        if pause:
                            time.sleep(0.001)
                    replies = {}
                    for _ in indices:
                        reply = peer.recv()
                        replies[reply["id"]] = reply
                    assert sorted(replies) == list(indices)
                    for i in indices:
                        assert replies[i]["type"] == "result"
                        assert replies[i]["assignments"] == expected[i]
                        assert replies[i].get("replayed", False) is (frames[i][2] is not None)
        # Replays dispatched nothing.  (The probe stream's position is not
        # compared: it depends on how the jobs were split into batches.)
        served = thread.service.dispatcher
        assert served.jobs_dispatched == reference.jobs_dispatched
        assert np.array_equal(served.job_counts, reference.job_counts)
        assert np.array_equal(served.work, reference.work)

    def test_a_client_that_half_closes_gets_every_reply(self):
        # Replies still owed at EOF are written before the service closes.
        groups = [[1.0] * (1 + i % 5) for i in range(50)]
        with ServiceThread(self.service(max_queue_jobs=8)) as thread:
            with RawPeer(thread.address) as peer:
                peer.send(b"".join(submit_frame(i, g) for i, g in enumerate(groups)))
                peer.sock.shutdown(socket.SHUT_WR)
                replies = [peer.recv() for _ in groups]
                with pytest.raises(ConnectionError):
                    peer.recv()
        reference = make_dispatcher(n_servers=self.N_SERVERS)
        expected = reference.dispatch_batch(np.concatenate(groups)).tolist()
        got = {reply["id"]: reply["assignments"] for reply in replies}
        assert sum((got[i] for i in range(len(groups))), []) == expected

    def test_an_id_past_the_float_range_still_gets_a_reply(self):
        # 1e400 is a JSON number that decodes to inf, which strict JSON
        # cannot echo back: the reply is an error without the id.
        with ServiceThread(self.service()) as thread:
            with RawPeer(thread.address) as peer:
                peer.send(b'{"type":"stats","id":1e400}\n')
                reply = peer.recv()
                assert reply["type"] == "error" and reply["id"] is None
                peer.send(submit_frame(1, [1.0]))
                assert peer.recv()["type"] == "result"

    def test_a_client_that_stops_reading_does_not_stall_others(self):
        service = self.service()
        flood = b"".join(submit_frame(i, [1.0]) for i in range(50_000))
        with ServiceThread(service) as thread:
            with RawPeer(thread.address, rcvbuf=4096) as stalled:
                # It never reads its replies.  How many the kernel buffers
                # before the service stops taking its frames varies.
                stalled.send(flood)
                deadline = time.monotonic() + 10
                while service.dispatcher.jobs_dispatched < 1000:
                    assert time.monotonic() < deadline, "the flood was not served"
                    time.sleep(0.01)
                with thread.client(timeout=10) as client:
                    for _ in range(20):
                        assignments = client.submit([1.0, 2.0])
                        assert assignments.size == 2
                        assert ((0 <= assignments) & (assignments < self.N_SERVERS)).all()
                    stats = client.stats()
        assert stats["jobs_dispatched"] >= 1000 + 40


# --------------------------------------------------------------------- #
# Frame fuzz: whatever a client sends, one reply per line
# --------------------------------------------------------------------- #
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FUZZ_SIZES = (
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
        max_size=6,
    )
    | st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=6)
    | JSON_VALUES
)


def is_json_line(line: bytes) -> bool:
    try:
        json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return False
    return True


@st.composite
def fuzz_line(draw) -> bytes:
    """One client line: a protocol-shaped dict, any JSON value, or junk bytes."""
    kind = draw(st.sampled_from(["frame"] * 6 + ["value", "bytes"]))
    if kind == "bytes":
        return draw(
            st.binary(max_size=16).filter(
                lambda b: b"\n" not in b and not is_json_line(b)
            )
        )
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    frame = draw(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2))
    kind = draw(
        st.sampled_from(["submit"] * 5 + ["stats", "drain", "checkpoint", "teleport"])
        | JSON_VALUES
    )
    frame["type"] = kind
    for key, values in (
        ("id", JSON_VALUES),
        ("sizes", FUZZ_SIZES),
        ("request_id", st.sampled_from(["a", "b", "c"]) | JSON_VALUES),
    ):
        if draw(st.integers(0, 3)):
            frame[key] = draw(values)
    if draw(st.integers(0, 9)) == 0:
        del frame["type"]
    return json.dumps(frame).encode()


def expected_reply(line: bytes, reference: Dispatcher, log: dict) -> tuple:
    """The ``(type, id)`` the service must answer ``line`` with.

    A successful fresh submit is dispatched on ``reference`` (and its
    request id logged); the expectation then carries its assignments,
    or the logged ones for a replay.
    """
    try:
        message = decode_frame(line)
    except FramingError:
        return "error", None, None
    reply_id = message.get("id")
    kind = message.get("type", None)
    if "type" not in message or kind not in ("submit", "stats", "drain", "checkpoint"):
        return "error", reply_id, None
    if kind != "submit":
        return {"stats": "stats", "drain": "drained"}.get(kind, kind), reply_id, None
    request_id = message.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        return "error", reply_id, None
    if request_id in log:
        return "replayed", reply_id, log[request_id]
    sizes = message.get("sizes")
    if not isinstance(sizes, list):
        return "error", reply_id, None
    try:
        sizes = np.asarray(sizes, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return "error", reply_id, None
    if sizes.ndim != 1 or not np.isfinite(sizes).all():
        return "error", reply_id, None
    assignments = reference.dispatch_batch(sizes).tolist()
    if request_id is not None and sizes.size:
        log[request_id] = assignments
    return "result", reply_id, assignments


def state_of(dispatcher: Dispatcher) -> str:
    # As JSON text: work summed past the float range is NaN, which no
    # dict comparison equates with itself.
    return json.dumps(dispatcher.state_dict(), sort_keys=True)


class TestFrameFuzz:
    N_SERVERS = 1000

    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(fuzz_line(), max_size=25))
    # A size numpy cannot make a float used to kill the frame's handler,
    # and work summed past the float range the next stats reply.
    @example(lines=[b'{"type":"submit","id":1,"sizes":[1' + b"0" * 400 + b"]}"])
    @example(
        lines=[
            json.dumps({"type": "submit", "id": 1, "sizes": [1.5e308] * 3000}).encode(),
            b'{"type":"stats","id":2}',
        ]
    )
    # So did an id a reply cannot carry, and a line nested too deep to parse.
    @example(lines=[b'{"type":"submit","id":NaN,"sizes":[1.0]}', b"[" * 100_000])
    def test_every_line_gets_one_reply_and_errors_change_nothing(self, lines):
        reference = Dispatcher(self.N_SERVERS, policy="adaptive", seed=9)
        log: dict = {}
        service = DispatchService(Dispatcher(self.N_SERVERS, policy="adaptive", seed=9))
        with ServiceThread(service) as thread:
            with RawPeer(thread.address) as peer:
                for line in [*lines, submit_frame("last", [1.0, 1.0]).rstrip(b"\n")]:
                    before = state_of(service.dispatcher)
                    with np.errstate(all="ignore"):
                        kind, reply_id, assignments = expected_reply(line, reference, log)
                    peer.send(line + b"\n")
                    reply = peer.recv()
                    assert reply.get("id") == reply_id, (line, reply)
                    if kind == "error":
                        assert reply["type"] == "error", (line, reply)
                        assert state_of(service.dispatcher) == before
                        continue
                    if kind in ("result", "replayed"):
                        assert reply["type"] == "result", (line, reply)
                        assert reply["assignments"] == assignments
                        assert reply.get("replayed", False) is (kind == "replayed")
                    else:
                        assert reply["type"] == kind, (line, reply)
                    assert state_of(service.dispatcher) == state_of(reference)
                # No line was answered twice: the next reply is the last one's.
                peer.send(encode_frame({"type": "stats", "id": "sentinel"}))
                assert peer.recv()["id"] == "sentinel"


# --------------------------------------------------------------------- #
# CLI: repro serve / --version
# --------------------------------------------------------------------- #
class TestServeCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_parser_defaults(self):
        from repro.experiments.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.policy == "adaptive"
        assert args.overflow == "block"
        assert args.port == 0

    def test_serve_subprocess_end_to_end(self, tmp_path):
        checkpoint = tmp_path / "state.json"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "serve",
                "--n-servers",
                "50",
                "--seed",
                "3",
                "--port",
                "0",
                "--checkpoint",
                str(checkpoint),
            ],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "listening on" in banner
            host_port = banner.split("listening on ")[1].split(" ")[0]
            host, port = host_port.rsplit(":", 1)
            deadline = time.monotonic() + 10
            client = None
            while client is None:
                try:
                    client = ServiceClient(host, int(port))
                except OSError:  # pragma: no cover - startup race
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            assignments = client.submit([1.0] * 6)
            assert assignments.size == 6
            client.checkpoint()
            assert json.loads(checkpoint.read_text())["jobs_dispatched"] == 6
            client.shutdown()
            client.close()
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
            proc.stderr.close()
