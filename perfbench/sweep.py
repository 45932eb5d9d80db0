"""The ``sweep`` workload: ``run_cluster_sweep`` with two workers.

Each operation is one call of ``run_cluster_sweep(shards, workers=2,
out=<tmp>.jsonl)`` over many cheap seeded shards of several protocols, so
per-shard fixed cost (worker spawn, JSON spec ship, row stream, JSONL
append) dominates and spawning stays inside the timed region, as users pay
it.  Throughput comes from the whole call; latency is the time from the
call to its first streamed row, which a user of ``repro sweep`` waits
before any output and which worker spawn dominates.  After the timed
passes, every call's JSONL rows must equal, as a multiset and shard by
shard, the in-process ``workers=0`` reference.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict

import numpy as np

from common import (
    MEASURED,
    SETUP_REPEATS,
    TMP,
    Pace,
    Tracer,
    median,
    now,
    percentile,
    timed_setup,
)

PROTOCOLS = ("adaptive", "threshold", "greedy", "memory")
BINS = (64, 128, 256)
RATIOS = (1, 4, 16)
#: Shards per cell of protocol x bins x ratio; every sweep holds the same
#: mix in the same order, so the seed changes the shard seeds, not the
#: work (the first shards set the first-row latency).
COPIES = 2
SHARDS = len(PROTOCOLS) * len(BINS) * len(RATIOS) * COPIES
WORKERS = 2
TRIALS = 5
#: Sweeps every run makes, however fast the program; the 90th percentile
#: of their first rows is the latency tail, a statistic that does not move
#: with run speed.  (Their slowest first row hangs on one slow fork and
#: spread 0.3 between runs.)
TAIL_SWEEPS = 20


def shards(seed: int):
    from repro.api import SimulationSpec

    rng = np.random.default_rng([seed, 6])
    cells = [
        (protocol, n_bins * ratio, n_bins)
        for protocol in PROTOCOLS
        for n_bins in BINS
        for ratio in RATIOS
    ] * COPIES
    return [
        SimulationSpec(*cell, seed=int(rng.integers(2**31)), trials=TRIALS)
        for cell in cells
    ]


def setup(workload: str, seed: int):
    """Imports, inputs and one in-process shard per protocol."""
    from repro.cluster.worker import run_shard

    specs = shards(seed)
    firsts = {spec.protocol: index for index, spec in reversed(list(enumerate(specs)))}
    for index in firsts.values():
        run_shard(specs[index], index)
    return specs


def shard_digests(rows) -> dict[int, str]:
    """A digest of each shard's row multiset, keyed by shard id."""
    by_shard = defaultdict(list)
    for row in rows:
        by_shard[int(row["shard"])].append(json.dumps(row, sort_keys=True))
    return {
        shard: hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
        for shard, lines in by_shard.items()
    }


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def measure(specs, seconds: float, transport=None) -> dict:
    """Whole sweeps until ``seconds`` have gone by; checks come after."""
    from repro.cluster import run_cluster_sweep

    TMP.mkdir(exist_ok=True)
    out = TMP / f"sweep-{os.getpid()}.jsonl"
    raw, first_rows, outputs = [], [], []
    stats = defaultdict(int)
    pace = Pace(os.sched_getaffinity(0))
    pace.mark()
    deadline = now() + seconds
    try:
        while now() < deadline or len(raw) < TAIL_SWEEPS:
            run_stats: dict = {}
            first: list[float] = []

            def on_record(record, first=first):
                if not first:
                    first.append(now())

            started = now()
            run_cluster_sweep(
                specs,
                workers=WORKERS,
                out=str(out),
                transport=transport,
                on_record=on_record,
                stats=run_stats,
            )
            raw.append(now() - started)
            first_rows.append(first[0] - started)
            pace.mark()
            outputs.append(shard_digests(read_rows(out)))
            for key, value in run_stats.items():
                stats[key] += value
    finally:
        out.unlink(missing_ok=True)
    sweeps = len(raw)
    return {
        **figures(specs, pace.paced(raw), pace.paced(first_rows)),
        "raw": figures(specs, raw, first_rows),
        "pace_ms": pace.median_ms(),
        "busy_s": sum(raw),
        "sweeps": sweeps,
        "outputs": outputs,
        "stats": dict(stats),
        "latency_samples": sweeps,
    }


def figures(specs, sweeps, first_rows) -> dict:
    """End-to-end figures from the sweep times and first-row times, in seconds.

    The median sweep keeps a stall out of the rate.  A run holds too few
    sweeps for a p99, so ``latency_p99_ms`` is the 90th percentile of the
    first rows of the first ``TAIL_SWEEPS`` sweeps.
    """
    return {
        "balls_per_s": sum(spec.n_balls * spec.trials for spec in specs) / median(sweeps),
        "latency_p50_ms": median(first_rows) * 1e3,
        "latency_p99_ms": percentile(first_rows[:TAIL_SWEEPS], 90) * 1e3,
    }


def failed_shards(result: dict, reference: dict[int, str]) -> int:
    return sum(
        digest.get(shard) != want
        for digest in result["outputs"]
        for shard, want in reference.items()
    )


# --------------------------------------------------------------------- #
# Cluster wrappers, installed from outside for the traced pass
# --------------------------------------------------------------------- #
class TimedHandle:
    """A worker handle whose sends and receives are spans."""

    def __init__(self, handle, tracer: Tracer) -> None:
        self._handle = handle
        self._tracer = tracer
        self.worker_id = handle.worker_id

    @property
    def pid(self):
        return self._handle.pid

    def send(self, message):
        frame = self._tracer.open("cluster.send", message.get("shard_id"))
        try:
            self._handle.send(message)
        finally:
            self._tracer.close(frame)
        self._tracer.counts["cluster.send.bytes"] += len(json.dumps(message))

    def recv(self):
        frame = self._tracer.open("cluster.recv_wait")
        try:
            reply = self._handle.recv()
            frame[5] = reply.get("shard_id")
        finally:
            self._tracer.close(frame)
        self._tracer.counts["cluster.recv.bytes"] += len(json.dumps(reply))
        return reply

    def close(self):
        self._handle.close()

    def kill(self):
        self._handle.kill()


class TimedTransport:
    """The default transport with every spawn a span and handles wrapped."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.cluster.transport import MultiprocessingTransport

        self._transport = MultiprocessingTransport()
        self._tracer = tracer

    def spawn(self, worker_id):
        frame = self._tracer.open("cluster.spawn", worker_id)
        try:
            handle = self._transport.spawn(worker_id)
        finally:
            self._tracer.close(frame)
        return TimedHandle(handle, self._tracer)

    def shutdown(self):
        self._transport.shutdown()


def timed_writer(tracer: Tracer):
    """The coordinator's JSONL writer with each append (write+flush) timed."""
    from repro.cluster.stream import JsonlWriter

    class TimedJsonlWriter(JsonlWriter):
        def write(self, record):
            frame = tracer.open("cluster.append", record.get("shard"))
            try:
                super().write(record)
            finally:
                tracer.close(frame)

        def flush(self):
            frame = tracer.open("cluster.append.flush")
            try:
                super().flush()
            finally:
                tracer.close(frame)

    return TimedJsonlWriter


def traced(specs, seconds: float) -> tuple[dict, Tracer]:
    from repro.cluster import coordinator

    tracer = Tracer()
    writer = coordinator.JsonlWriter
    coordinator.JsonlWriter = timed_writer(tracer)
    try:
        result = measure(specs, seconds, transport=TimedTransport(tracer))
    finally:
        coordinator.JsonlWriter = writer
    return result, tracer


def shard_compute_s(specs) -> float:
    """The shards' own compute, through ``run_shard`` in this process."""
    from repro.cluster.worker import run_shard

    started = now()
    for index, spec in enumerate(specs):
        run_shard(spec, index)
    return now() - started


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.cluster import run_cluster_sweep

    setup_s, raw_setup_s = timed_setup(workload, seed, SETUP_REPEATS)
    specs = setup(workload, seed)
    base = measure(specs, seconds)
    reference = shard_digests(run_cluster_sweep(specs, workers=0))
    wrong = failed_shards(base, reference)
    out = {
        "correct": wrong == 0,
        "attempted": SHARDS * base["sweeps"],
        # A shard retried after its worker died or hung failed once.
        "failed": wrong + base["stats"].get("retries", 0),
        "e2e": {
            "setup_s": setup_s,
            **{name: base[name] for name in MEASURED},
        },
        "samples": {
            "latency": base["latency_samples"],
            "latency_tail_of_first": TAIL_SWEEPS,
            "operations": SHARDS * base["sweeps"],
            "setup": SETUP_REPEATS,
        },
        "info": {
            "coordinator_stats": base["stats"],
            "raw": dict(base["raw"], setup_s=raw_setup_s),
            "pace_ms": base["pace_ms"],
        },
    }
    if not trace:
        return out
    again, tracer = traced(specs, seconds)
    compute = shard_compute_s(specs) * again["sweeps"]
    capacity = WORKERS * again["busy_s"]
    stats = again["stats"]
    layers = {
        "cluster.spawn.calls": tracer.calls.get("cluster.spawn", 0),
        "cluster.spawn.s": tracer.seconds("cluster.spawn"),
        "cluster.send.calls": tracer.calls.get("cluster.send", 0),
        "cluster.send.s": tracer.seconds("cluster.send"),
        "cluster.send.bytes": tracer.counts.get("cluster.send.bytes", 0),
        "cluster.recv_wait.s": tracer.seconds("cluster.recv_wait"),
        "cluster.recv.bytes": tracer.counts.get("cluster.recv.bytes", 0),
        "cluster.append.calls": tracer.calls.get("cluster.append", 0),
        "cluster.append.s": tracer.seconds("cluster.append")
        + tracer.seconds("cluster.append.flush"),
        "cluster.shard_compute.s": compute,
        "cluster.overhead_share": 1 - compute / capacity,
        "cluster.worker_busy_share": tracer.seconds("cluster.recv_wait") / capacity,
        "cluster.retries": stats.get("retries", 0),
        "cluster.worker_deaths": stats.get("worker_deaths", 0),
        "cluster.duplicate_results": stats.get("duplicate_results", 0),
        "latency.samples": again["latency_samples"],
        "trace_overhead": base["balls_per_s"] / again["balls_per_s"] - 1,
    }
    out["layers"] = layers
    again_wrong = failed_shards(again, reference)
    out["attempted"] += SHARDS * again["sweeps"]
    out["failed"] += again_wrong + stats.get("retries", 0)
    out["correct"] = out["correct"] and again_wrong == 0
    tracer.write(TMP / f"{workload}.spans.jsonl")
    out["info"]["layers"] = tracer.summary(again["busy_s"])
    return out
