"""Distributed sweep execution: shard fan-out with termination detection.

``repro.cluster`` shards a sweep's :class:`~repro.api.SimulationSpec`
stream over N worker processes and streams schema-v1 record rows back as
JSONL.  The moving parts:

* :mod:`~repro.cluster.coordinator` — the coordinator, one driver thread
  per worker calling its blocking handle directly: pipelined dispatch (two
  shards per worker once it has replied once), counter-based termination
  detection (``active``/``finished`` under one lock instead of joins),
  shard retry on worker death, a deadline watchdog for hung workers, dedup
  of double-completed shards, and the
  :func:`~repro.cluster.coordinator.run_cluster_sweep` facade
  (``workers=0`` = in-process reference path);
* :mod:`~repro.cluster.worker` — the shard executor (shared by the
  in-process path, so rows are bit-identical) and the one blocking worker
  loop both transports run;
* :mod:`~repro.cluster.transport` — the :class:`Transport` seam (JSON
  bytes, not pickles) and its two transports, which share one worker
  handle and one codec: :class:`MultiprocessingTransport` (a pipe per
  worker, the default) and :class:`TcpTransport` (workers dial back over
  TCP);
* :mod:`~repro.cluster.stream` — JSONL streaming plus the ``--resume``
  scan that keeps complete shards and re-runs partial ones.

Entry points: ``repro sweep --workers N --out results.jsonl [--resume]``
on the command line, :func:`run_cluster_sweep` from Python, or
``run_sweep(sweep, workers=N)`` for summary rows.  This coordinator is the
package's only multi-process fan-out.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    Shard,
    WorkCounters,
    run_cluster_sweep,
)
from repro.cluster.stream import JsonlWriter, iter_jsonl, resume_scan
from repro.cluster.transport import (
    MultiprocessingTransport,
    TcpTransport,
    Transport,
    WorkerHandle,
    WorkerLost,
)
from repro.cluster.worker import run_shard

__all__ = [
    "ClusterCoordinator",
    "Shard",
    "WorkCounters",
    "run_cluster_sweep",
    "run_shard",
    "JsonlWriter",
    "iter_jsonl",
    "resume_scan",
    "Transport",
    "WorkerHandle",
    "WorkerLost",
    "MultiprocessingTransport",
    "TcpTransport",
]
