"""Live-service soak: sustained jobs/sec and latency percentiles under load.

The service exists to keep one stateful dispatcher saturated from the
outside: clients pipeline job submissions over TCP, the micro-batcher
coalesces whatever is queued per event-loop tick, and the vectorised batch
engines do the work.  This benchmark soaks that whole path — framing,
batching, dispatch, telemetry — with a sustained stream of pipelined
submissions and reports **jobs per second** end-to-end plus the service's
own rolling p50/p99 job latency (queue admission → dispatched).

The full soak pushes >= 10^5 jobs through >= 100 micro-batches
(``max_batch_jobs`` caps coalescing so the batch count is guaranteed);
``--quick`` runs the same shape at the CI smoke scale recorded in the
``BENCH_service_soak.json`` regression baseline.

The latency floor is **report-only on single-vCPU runners**: the service
event loop and the client share one core there, so queueing latency
measures the scheduler, not the service.  The assertion arms only when
``os.cpu_count() >= 2``, following the cluster-throughput precedent.

The ``service_stats_read`` row times the other side of the service: the
``stats`` read (:meth:`DispatchService.stats`, the telemetry and gauge
snapshot) in-process, at 1,000 adaptive servers with every telemetry
window full, read between small dispatches.  Its ``ops_per_second`` is
reads per second.  The row is report-only: it has no entry in the
committed baseline, which is all ``check_regression.py`` gates.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.scheduler.dispatcher import Dispatcher
from repro.service import DispatchService, ServiceThread

from conftest import BENCH_SEED, write_bench_json

#: Full-soak scale: >= 10^5 jobs over >= 100 micro-batches.
SOAK_JOBS = 500_000
QUICK_JOBS = 100_000
GROUP_JOBS = 500
PIPELINE_DEPTH = 50
MAX_BATCH_JOBS = 1_000
N_SERVERS = 1_000

#: Report-only latency ceiling (armed on multi-core runners): the p99
#: queue-to-dispatched job latency of the soak must stay under this.
GATE_P99_SECONDS = 0.5

#: The stats-read row: small batches recorded before timing (enough to fill
#: the 4,096-sample latency windows and the rate's event ring), then reads.
STATS_FILL_BATCHES = 4_096
STATS_READS = 2_000


def run_soak(
    total_jobs: int,
    policy: str = "adaptive",
    group_jobs: int = GROUP_JOBS,
    **dispatcher_kwargs,
) -> dict:
    """Soak one service with pipelined submissions; return the measurements.

    Jobs are submitted as ``group_jobs``-sized groups, ``PIPELINE_DEPTH``
    groups in flight per wave, so the micro-batcher always has a queue to
    coalesce; ``max_batch_jobs`` bounds each dispatch call, guaranteeing the
    soak exercises many micro-batches rather than a few huge ones.
    """
    dispatcher = Dispatcher(
        N_SERVERS, policy=policy, seed=BENCH_SEED, **dispatcher_kwargs
    )
    service = DispatchService(dispatcher, max_batch_jobs=MAX_BATCH_JOBS)
    groups_total = total_jobs // group_jobs
    group = [1.0] * group_jobs
    dispatched = 0
    start = time.perf_counter()
    with ServiceThread(service) as thread:
        with thread.client() as client:
            remaining = groups_total
            while remaining > 0:
                wave = min(PIPELINE_DEPTH, remaining)
                outs = client.submit_pipelined([group] * wave)
                dispatched += sum(len(o) for o in outs)
                remaining -= wave
            client.drain()
            seconds = time.perf_counter() - start
            stats = client.stats()
    assert dispatched == groups_total * group_jobs
    assert stats["jobs_dispatched"] == dispatched
    return {
        "policy": policy,
        "jobs": dispatched,
        "batches": stats["batches_dispatched"],
        "seconds": seconds,
        "ops_per_second": dispatched / seconds,
        "job_latency_p50": stats["job_latency_p50"],
        "job_latency_p99": stats["job_latency_p99"],
        "batch_latency_p99": stats["batch_latency_p99"],
        "mean_batch_jobs": stats["mean_batch_jobs"],
    }


def run_stats_reads(n_reads: int = STATS_READS) -> dict:
    """Time ``DispatchService.stats()`` in-process against full windows.

    Every read follows one small (1-32 job) dispatch whose latencies are
    recorded, as on a live service taking small submits, so the rate's
    event ring turns over between reads; only the read is timed.
    """
    rng = np.random.default_rng(BENCH_SEED)
    service = DispatchService(
        Dispatcher(N_SERVERS, policy="adaptive", seed=BENCH_SEED)
    )

    def small_dispatch() -> None:
        sizes = np.ones(int(rng.integers(1, 33)))
        started = time.perf_counter()
        service.dispatcher.dispatch_batch(sizes)
        seconds = time.perf_counter() - started
        service.telemetry.record_batch(np.full(sizes.size, seconds), seconds)

    for _ in range(STATS_FILL_BATCHES):
        small_dispatch()
    reads = np.empty(n_reads)
    for i in range(n_reads):
        small_dispatch()
        started = time.perf_counter()
        service.stats()
        reads[i] = time.perf_counter() - started
    seconds = float(reads.sum())
    return {
        "servers": N_SERVERS,
        "reads": n_reads,
        "seconds": seconds,
        "ops_per_second": n_reads / seconds,
        "read_us_p50": float(np.median(reads)) * 1e6,
    }


def test_soak_smoke():
    """Cheap wiring check: the soak shape holds at smoke scale."""
    result = run_soak(total_jobs=20_000)
    assert result["jobs"] == 20_000
    assert result["batches"] >= 20  # max_batch_jobs bounds coalescing
    assert result["ops_per_second"] > 0
    assert result["job_latency_p99"] is not None


def test_stats_read_smoke():
    """Cheap wiring check for the report-only stats-read row."""
    result = run_stats_reads(n_reads=20)
    assert result["reads"] == 20
    assert result["ops_per_second"] > 0


@pytest.mark.slow
def test_gate_soak_latency():
    """The acceptance soak: >= 10^5 jobs, >= 100 micro-batches, p99 floor."""
    result = run_soak(total_jobs=QUICK_JOBS)
    cores = os.cpu_count() or 1
    print(
        f"\nsoak {result['jobs']} jobs / {result['batches']} batches: "
        f"{result['ops_per_second']:,.0f} jobs/s, "
        f"p50 {result['job_latency_p50'] * 1e3:.2f}ms, "
        f"p99 {result['job_latency_p99'] * 1e3:.2f}ms ({cores} cores)"
    )
    assert result["jobs"] >= 100_000
    assert result["batches"] >= 100
    if cores < 2:
        pytest.skip(
            f"single-vCPU runner ({cores} core): p99 "
            f"{result['job_latency_p99'] * 1e3:.1f}ms is report-only — the "
            "loop and the client time-share one core"
        )
    assert result["job_latency_p99"] <= GATE_P99_SECONDS, (
        f"soak p99 job latency {result['job_latency_p99'] * 1e3:.1f}ms "
        f"exceeds the {GATE_P99_SECONDS * 1e3:.0f}ms floor"
    )


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run at CI smoke scale")
    args = parser.parse_args()

    total = QUICK_JOBS if args.quick else SOAK_JOBS
    cores = os.cpu_count() or 1
    print(f"cores: {cores}")
    print(
        f"{'policy':<12} {'jobs':>9} {'batches':>8} {'jobs/s':>12} "
        f"{'p50 ms':>8} {'p99 ms':>8}"
    )
    entries = []
    for policy, extra in (("adaptive", {}), ("weighted", {"w_max": 1.0})):
        result = run_soak(total, policy=policy, **extra)
        entries.append(
            {
                "label": f"service_soak_{policy}",
                "cores": cores,
                **result,
            }
        )
        print(
            f"{policy:<12} {result['jobs']:>9} {result['batches']:>8} "
            f"{result['ops_per_second']:>12,.0f} "
            f"{result['job_latency_p50'] * 1e3:>8.2f} "
            f"{result['job_latency_p99'] * 1e3:>8.2f}"
        )
    reads = run_stats_reads()
    entries.append({"label": "service_stats_read", "cores": cores, **reads})
    print(
        f"\nstats reads at {reads['servers']} servers, full windows: "
        f"{reads['ops_per_second']:,.0f} reads/s, "
        f"p50 {reads['read_us_p50']:.0f} us (report-only)"
    )
    path = write_bench_json("service_soak", entries)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
