"""Live service telemetry: rolling latencies, throughput, and load gauges.

The service answers ``stats`` requests from two sources:

* **rolling request telemetry** — per-job and per-batch latencies kept in
  fixed-size ring buffers (percentiles over the last ``window`` samples)
  plus a windowed jobs/sec rate, all O(window) memory no matter how long
  the service runs;
* **live schedule gauges** — makespan, job imbalance, per-server work
  percentiles and friends, computed by the *same*
  :func:`repro.scheduler.metrics.compute_metrics` path the batch reports
  use, over the dispatcher's accumulated per-server aggregates.  A service
  gauge and an offline report of the same state are therefore the same
  number, not two implementations that can drift.

Latency definitions: a job's latency runs from the moment its submit
message is accepted into the queue until its micro-batch's
``dispatch_batch`` call returns (queueing + dispatch); a batch's latency is
the ``dispatch_batch`` wall time alone.

Read cost: a ``stats`` read sorts each latency window once (the
percentiles are NumPy's linear percentiles exactly, via
:func:`~repro.scheduler.metrics.sorted_percentiles`), the jobs/sec rate is
amortised O(1) (a running job sum over the in-horizon events, trimmed as
they age out), and the gauges cost one pass over the fleet.  Recording a
batch writes its samples into the rings in place, with no per-job Python
loop.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.errors import ConfigurationError
from repro.scheduler.metrics import compute_metrics, sorted_percentiles

__all__ = ["RollingWindow", "ServiceTelemetry"]


class RollingWindow:
    """Fixed-capacity ring buffer of float samples with exact percentiles.

    Adding costs the samples written (one float is stored in place);
    :meth:`percentiles` costs one sort of the retained window and returns
    exactly what ``np.percentile`` would.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}"
            )
        self._buffer = np.empty(int(capacity), dtype=np.float64)
        self._cursor = 0
        self.count = 0  # total samples ever added

    @property
    def capacity(self) -> int:
        return self._buffer.size

    def add(self, values) -> None:
        """Append samples (scalar or array), evicting the oldest on overflow."""
        if isinstance(values, float):  # also np.float64
            self._buffer[self._cursor] = values
            self._cursor = (self._cursor + 1) % self._buffer.size
            self.count += 1
            return
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if values.size >= self._buffer.size:
            # The tail alone fills the ring; older samples are all evicted.
            self._buffer[:] = values[values.size - self._buffer.size :]
            self._cursor = 0
        else:
            end = self._cursor + values.size
            if end <= self._buffer.size:
                self._buffer[self._cursor : end] = values
            else:
                split = self._buffer.size - self._cursor
                self._buffer[self._cursor :] = values[:split]
                self._buffer[: end - self._buffer.size] = values[split:]
            self._cursor = end % self._buffer.size
        self.count += int(values.size)

    def samples(self) -> np.ndarray:
        """The retained samples (unordered — fine for percentiles)."""
        if self.count >= self._buffer.size:
            return self._buffer
        return self._buffer[: self._cursor]

    def percentiles(self, qs=(50.0, 95.0, 99.0)) -> list[float]:
        """Percentiles over the retained window; NaNs when no samples yet."""
        samples = self.samples()
        if samples.size == 0:
            return [float("nan")] * len(qs)
        return sorted_percentiles(samples, qs)


class ServiceTelemetry:
    """Accumulates the service's request-level measurements.

    Parameters
    ----------
    window:
        Ring-buffer capacity for the per-job and per-batch latency samples
        (and the batch-completion event log driving the jobs/sec rate).
    rate_horizon:
        Length, in seconds, of the sliding window the jobs/sec rate is
        measured over.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        window: int = 4096,
        rate_horizon: float = 10.0,
        clock=time.monotonic,
    ) -> None:
        if rate_horizon <= 0:
            raise ConfigurationError(
                f"rate_horizon must be positive, got {rate_horizon}"
            )
        self.job_latency = RollingWindow(window)
        self.batch_latency = RollingWindow(window)
        self.batch_sizes = RollingWindow(window)
        self._clock = clock
        self._rate_horizon = float(rate_horizon)
        # Batch-completion events (timestamp, job count) for the rate gauge:
        # the last min(window, 4096) batches, minus those a read found past
        # the horizon, oldest first, with their job total kept alongside.
        self._events: deque[tuple[float, int]] = deque(maxlen=min(window, 4096))
        self._event_jobs = 0
        self.batches = 0
        self.jobs = 0
        self.jobs_shed = 0
        self.started_at = clock()

    # ------------------------------------------------------------------ #
    def record_batch(self, job_latencies: np.ndarray, batch_seconds: float) -> None:
        """Record one flushed micro-batch.

        ``job_latencies`` holds each job's queue-to-dispatched latency in
        seconds (one entry per job of the batch); ``batch_seconds`` is the
        wall time of the ``dispatch_batch`` call itself.
        """
        job_latencies = np.asarray(job_latencies, dtype=np.float64).ravel()
        n_jobs = job_latencies.size
        self.job_latency.add(job_latencies)
        self.batch_latency.add(batch_seconds)
        self.batch_sizes.add(float(n_jobs))
        self.batches += 1
        self.jobs += n_jobs
        events = self._events
        if len(events) == events.maxlen:
            # The oldest event leaves the ring, and its jobs the rate.
            self._event_jobs -= events.popleft()[1]
        events.append((self._clock(), n_jobs))
        self._event_jobs += n_jobs

    def record_shed(self, n_jobs: int) -> None:
        """Count jobs rejected by the shed overflow policy."""
        self.jobs_shed += int(n_jobs)

    def jobs_per_second(self) -> float:
        """Dispatch rate over the sliding ``rate_horizon`` window.

        The jobs of the retained batches stamped within the horizon, over
        the time since the oldest of them.  The clock is monotonic, so the
        events past the horizon are always the oldest ones: they are
        dropped once, here, which makes a read amortised O(1).
        """
        if self.batches == 0:
            return 0.0
        now = self._clock()
        events = self._events
        start = now - self._rate_horizon
        while events and events[0][0] < start:
            self._event_jobs -= events.popleft()[1]
        if not events:
            return 0.0
        span = max(now - events[0][0], 1e-9)
        return float(self._event_jobs) / span

    # ------------------------------------------------------------------ #
    def snapshot(self, dispatcher=None, queue_depth: int | None = None) -> dict:
        """One flat JSON-friendly stats document (the ``stats`` reply body).

        With a dispatcher, the live schedule gauges are appended from
        :meth:`Dispatcher.outcome` state via the shared
        :func:`~repro.scheduler.metrics.compute_metrics` path.
        """
        # Empty windows yield NaN percentiles, and job sizes summing past
        # the float range non-finite gauges; the wire format (strict JSON,
        # allow_nan=False) wants None there instead.
        def clean(value: float) -> float | None:
            return float(value) if np.isfinite(value) else None

        job_p50, job_p95, job_p99 = self.job_latency.percentiles()
        batch_p50, batch_p95, batch_p99 = self.batch_latency.percentiles()
        stats: dict = {
            "uptime_seconds": self._clock() - self.started_at,
            "jobs_dispatched": self.jobs,
            "batches_dispatched": self.batches,
            "jobs_shed": self.jobs_shed,
            "jobs_per_second": self.jobs_per_second(),
            "job_latency_p50": clean(job_p50),
            "job_latency_p95": clean(job_p95),
            "job_latency_p99": clean(job_p99),
            "batch_latency_p50": clean(batch_p50),
            "batch_latency_p95": clean(batch_p95),
            "batch_latency_p99": clean(batch_p99),
            "mean_batch_jobs": (
                clean(float(np.mean(self.batch_sizes.samples())))
                if self.batches
                else None
            ),
        }
        if queue_depth is not None:
            stats["queue_depth"] = int(queue_depth)
        if dispatcher is not None and dispatcher.jobs_dispatched > 0:
            metrics = compute_metrics(
                dispatcher.work, dispatcher.job_counts, dispatcher.probes
            )
            stats.update(
                {f"gauge_{k}": clean(float(v)) for k, v in metrics.as_dict().items()}
            )
        return stats
