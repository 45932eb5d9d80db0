"""Scheduling metrics derived from a dispatch run.

Metrics are computed from the per-server aggregates (``work`` and
``job_counts``) rather than per-job records, so they cost O(n_servers)
regardless of workload size and apply equally to a one-shot
:meth:`~repro.scheduler.dispatcher.Dispatcher.dispatch` outcome and to a
mid-stream :meth:`~repro.scheduler.dispatcher.Dispatcher.outcome` snapshot
taken between ``dispatch_batch`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ScheduleMetrics", "compute_metrics", "sorted_percentiles"]


def sorted_percentiles(values: np.ndarray, qs) -> list[float]:
    """NumPy's default (linear) percentiles of a non-empty 1-D array.

    Bit-identical to ``np.percentile(values, qs)``, at the cost of one
    ``np.sort`` plus a few float operations per ``q``: ``np.percentile``
    partitions around every needed index (plus the first and last) and
    pays tens of microseconds of dispatch per call, which made it the
    dearest part of a ``stats`` read.  The steps below are NumPy's own:
    virtual index ``(n - 1) * (q / 100)``, its floor/next neighbours (both
    pinned to the last element at or past the end, where NumPy's gamma is
    measured from index -1), and the two-sided lerp.  A NaN anywhere sorts
    last and makes every percentile NaN, as in NumPy.
    """
    ordered = np.sort(values)
    n = ordered.size
    last = ordered[-1].item()
    if last != last:
        return [last] * len(qs)
    result = []
    for q in qs:
        index = (n - 1) * (q / 100)
        if index >= n - 1:
            below = above = last
            gamma = index + 1
        else:
            floor = int(index)
            below = ordered[floor].item()
            above = ordered[floor + 1].item()
            gamma = index - floor
        diff = above - below
        if gamma >= 0.5:
            result.append(above - diff * (1 - gamma))
        else:
            result.append(below + diff * gamma)
    return result


@dataclass(frozen=True)
class ScheduleMetrics:
    """Application-level quality measures of an assignment of jobs to servers.

    Attributes
    ----------
    makespan:
        Maximum total work assigned to any server (completion time when all
        servers start at time 0).
    avg_work:
        Average work per server; ``makespan / avg_work`` is the usual
        imbalance ratio.
    max_jobs, min_jobs:
        Extremes of the per-server job counts (the balls-into-bins loads).
    job_imbalance:
        ``max_jobs − min_jobs`` — the gap the paper's Corollary 3.5 bounds.
    probes_per_job:
        Average number of server probes per dispatched job (allocation time
        per ball).
    work_p50, work_p99:
        Percentiles of the per-server work distribution (exactly NumPy's
        linear interpolation, via :func:`sorted_percentiles`).
        ``work_p99`` against ``makespan`` separates "one hot server" from
        "a hot tail"; the live service gauges and the batch reports read
        them from this one metrics path.
    """

    makespan: float
    avg_work: float
    max_jobs: int
    min_jobs: int
    job_imbalance: int
    probes_per_job: float
    work_p50: float
    work_p99: float

    @property
    def work_imbalance_ratio(self) -> float:
        """``makespan / avg_work``; 1.0 is a perfectly balanced schedule."""
        if self.avg_work == 0:
            return 1.0
        return self.makespan / self.avg_work

    def as_dict(self) -> dict[str, float]:
        return {
            "makespan": self.makespan,
            "avg_work": self.avg_work,
            "work_imbalance_ratio": self.work_imbalance_ratio,
            "max_jobs": float(self.max_jobs),
            "min_jobs": float(self.min_jobs),
            "job_imbalance": float(self.job_imbalance),
            "probes_per_job": self.probes_per_job,
            "work_p50": self.work_p50,
            "work_p99": self.work_p99,
        }


def compute_metrics(
    work: np.ndarray, job_counts: np.ndarray, probes: int
) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` from per-server work and job counts."""
    work = np.asarray(work, dtype=np.float64)
    job_counts = np.asarray(job_counts, dtype=np.int64)
    if work.ndim != 1 or job_counts.ndim != 1 or work.size != job_counts.size:
        raise ConfigurationError("work and job_counts must be 1-D arrays of equal size")
    if work.size == 0:
        raise ConfigurationError("at least one server is required")
    if probes < 0:
        raise ConfigurationError(f"probes must be non-negative, got {probes}")
    total_jobs = int(job_counts.sum())
    max_jobs = int(job_counts.max())
    min_jobs = int(job_counts.min())
    work_p50, work_p99 = sorted_percentiles(work, (50.0, 99.0))
    return ScheduleMetrics(
        makespan=float(work.max()),
        avg_work=float(work.mean()),
        max_jobs=max_jobs,
        min_jobs=min_jobs,
        job_imbalance=max_jobs - min_jobs,
        probes_per_job=probes / total_jobs if total_jobs else 0.0,
        work_p50=work_p50,
        work_p99=work_p99,
    )
