"""Run the dispatch service under benchmark in its own process.

Usage::

    python3 perfbench/service_main.py --seed 7 [--trace LEDGER]

Prints ``PORT <n>`` once the service accepts connections and serves until a
client sends ``shutdown``.  With ``--trace LEDGER`` it first installs the
benchmark's wrappers around the service's layers (a timing kernel backend,
a ledger telemetry, a timed request log, timed ``dispatch_batch``,
``stats``, ``handle`` and frame codec) and, on shutdown, writes the per-layer
ledger to ``LEDGER`` and the kept spans next to it.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import time
from pathlib import Path

from common import KERNELS, SERVERS, Tracer, percentile, timed_backend, use_source_tree


class StepTimed:
    """Await a coroutine, recording each resumption of it as one span.

    The time a coroutine spends suspended (waiting for its micro-batch) is
    not its own work; only the steps it runs on the event loop are.
    """

    def __init__(self, coro, tracer: Tracer, name: str, tag) -> None:
        self._coro = coro
        self._tracer = tracer
        self._name = name
        self._tag = tag

    def __await__(self):
        coro, tracer = self._coro, self._tracer
        value, error = None, None
        while True:
            frame = tracer.open(self._name, self._tag)
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.close(frame)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def new_ledger() -> dict:
    return {
        "jobs_per_call": [],
        "small_burst_calls": 0,
        "batch_jobs": [],
        "submits_per_batch": [],
        "queue_wait_ms": [],
        "errors": 0,
        "gc_calls": 0,
        "gc_ms": 0.0,
        "gc2_max_ms": 0.0,
    }


def ledger_telemetry(tracer: Tracer, ledger: dict):
    """A service telemetry that also keeps every batch in the ledger."""
    import numpy as np

    from repro.service.telemetry import ServiceTelemetry

    class LedgerTelemetry(ServiceTelemetry):
        def record_batch(self, job_latencies, batch_seconds):
            frame = tracer.open("service.telemetry.record")
            try:
                super().record_batch(job_latencies, batch_seconds)
                latencies = np.asarray(job_latencies, dtype=np.float64)
                ledger["batch_jobs"].append(int(latencies.size))
                # Jobs of one submission share its enqueue time, so distinct
                # latencies count the submissions fused into the batch.
                distinct = np.unique(latencies)
                ledger["submits_per_batch"].append(int(distinct.size))
                ledger["queue_wait_ms"].extend(
                    ((distinct - batch_seconds) * 1e3).tolist()
                )
            finally:
                tracer.close(frame)

    return LedgerTelemetry()


def install_tracing(service, tracer: Tracer, ledger: dict) -> None:
    """Wrap the service's other layers at their public boundaries."""
    from repro.service import framing
    from repro.service.requests import RequestLog

    class TimedRequestLog(RequestLog):
        def record(self, request_id, assignments):
            frame = tracer.open("service.request_log.record", request_id)
            try:
                super().record(request_id, assignments)
            finally:
                tracer.close(frame)

    log = TimedRequestLog(service.request_log.capacity)
    service.request_log = log
    service.batcher.request_log = log

    dispatcher = service.dispatcher
    dispatch = dispatcher.dispatch_batch

    def dispatch_batch(sizes, *, total_jobs=None):
        windows = tracer.calls.get("core.run_window", 0)
        frame = tracer.open("scheduler.dispatch_batch")
        try:
            return dispatch(sizes, total_jobs=total_jobs)
        finally:
            tracer.close(frame)
            ledger["jobs_per_call"].append(len(sizes))
            if tracer.calls.get("core.run_window", 0) == windows:
                ledger["small_burst_calls"] += 1

    dispatcher.dispatch_batch = dispatch_batch
    service.stats = tracer.wrap("service.stats", service.stats)

    handle = service.handle

    def traced_handle(message):
        tag = message.get("id") if isinstance(message, dict) else None
        return StepTimed(handle(message), tracer, "service.handle", tag)

    service.handle = traced_handle

    encode, decode = framing.encode_frame, framing.decode_frame

    def encode_frame(message):
        frame = tracer.open("service.encode", message.get("id"))
        try:
            data = encode(message)
        finally:
            tracer.close(frame)
        tracer.counts["service.encode.bytes"] += len(data)
        if message.get("type") == "error":
            ledger["errors"] += 1
        return data

    def decode_frame(line):
        frame = tracer.open("service.decode")
        try:
            message = decode(line)
            frame[5] = message.get("id")
        finally:
            tracer.close(frame)
        tracer.counts["service.decode.bytes"] += len(line)
        return message

    framing.encode_frame = encode_frame
    framing.decode_frame = decode_frame

    # Collector pauses are timed apart from the spans: a collection can
    # start inside any span, including the tracer's own bookkeeping.
    collecting = [0]

    def on_gc(phase, info):
        if phase == "start":
            collecting[0] = time.perf_counter_ns()
            return
        pause_ms = (time.perf_counter_ns() - collecting[0]) / 1e6
        ledger["gc_calls"] += 1
        ledger["gc_ms"] += pause_ms
        if info["generation"] == 2:
            ledger["gc2_max_ms"] = max(ledger["gc2_max_ms"], pause_ms)

    gc.callbacks.append(on_gc)


def summarize(tracer: Tracer, ledger: dict, service, cpu_s: float) -> dict:
    """The service's per-layer metrics, ready for the client to report."""
    top_s = tracer.top_ns / 1e9
    jobs = sum(ledger["jobs_per_call"])
    dispatch_s = tracer.seconds("scheduler.dispatch_batch")
    calls = len(ledger["jobs_per_call"])

    def p(values, q):
        return percentile(values, q) if values else 0.0

    return {
        "layers": tracer.summary(cpu_s),
        "metrics": {
            "scheduler.dispatch_batch.calls": calls,
            "scheduler.dispatch_batch.s": dispatch_s,
            "scheduler.jobs_per_call.p50": p(ledger["jobs_per_call"], 50),
            "scheduler.kernel_jobs_per_s": jobs / dispatch_s if dispatch_s else 0.0,
            "scheduler.small_burst_share": (
                ledger["small_burst_calls"] / calls if calls else 0.0
            ),
            "service.decode.calls": tracer.calls.get("service.decode", 0),
            "service.decode.s": tracer.seconds("service.decode"),
            "service.decode.bytes": tracer.counts.get("service.decode.bytes", 0),
            "service.encode.calls": tracer.calls.get("service.encode", 0),
            "service.encode.s": tracer.seconds("service.encode"),
            "service.encode.bytes": tracer.counts.get("service.encode.bytes", 0),
            "service.handle.self_s": tracer.self_seconds("service.handle"),
            "service.unattributed_share": (
                max(0.0, 1.0 - top_s / cpu_s) if cpu_s else 0.0
            ),
            "service.queue_wait_ms.p50": p(ledger["queue_wait_ms"], 50),
            "service.queue_wait_ms.p99": p(ledger["queue_wait_ms"], 99),
            "service.batches": len(ledger["batch_jobs"]),
            "service.batch_jobs.p50": p(ledger["batch_jobs"], 50),
            "service.submits_per_batch.p50": p(ledger["submits_per_batch"], 50),
            "service.request_log.record.calls": tracer.calls.get(
                "service.request_log.record", 0
            ),
            "service.request_log.record.s": tracer.seconds(
                "service.request_log.record"
            ),
            "service.stats.calls": tracer.calls.get("service.stats", 0),
            "service.stats.s": tracer.seconds("service.stats"),
            "service.errors": ledger["errors"],
            "service.shed": service.telemetry.jobs_shed,
            "service.gc.calls": ledger["gc_calls"],
            "service.gc.s": ledger["gc_ms"] / 1e3,
            "service.gc.gen2_max_ms": ledger["gc2_max_ms"],
            **tracer.layer_metrics(KERNELS.values()),
        },
        "cpu_s": cpu_s,
        "top_s": top_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="ledger path (enables tracing)")
    args = parser.parse_args()

    use_source_tree()
    from repro.scheduler.dispatcher import Dispatcher
    from repro.service.server import DispatchService

    tracer = Tracer() if args.trace else None
    backend = timed_backend(tracer) if tracer else None
    dispatcher = Dispatcher(SERVERS, policy="adaptive", seed=args.seed, backend=backend)
    ledger = new_ledger() if tracer else None
    telemetry = ledger_telemetry(tracer, ledger) if tracer else None
    service = DispatchService(dispatcher, telemetry=telemetry)
    if tracer:
        install_tracing(service, tracer, ledger)

    async def serve() -> float:
        _, port = await service.serve("127.0.0.1", 0)
        print(f"PORT {port}", flush=True)
        started = time.process_time()
        await service.wait_closed()
        return time.process_time() - started

    cpu_s = asyncio.run(serve())
    if tracer:
        path = Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summarize(tracer, ledger, service, cpu_s)))
        tracer.write(path.with_suffix(".spans.jsonl"))


if __name__ == "__main__":
    main()
