"""Cluster worker: run shards of a sweep and stream records back.

A shard is one :class:`~repro.api.SimulationSpec` of a sweep — a (protocol,
problem-size) cell whose ``trials`` independent runs the worker executes
through the ordinary :func:`repro.experiments.runner.run_trials` machinery.
Because the spec travels losslessly as JSON and the per-trial seed table is
single-homed in :mod:`repro.runtime.rng`, a shard computes *bit-identical*
rows no matter which process (or how many retries) it runs on; the PR-7
``backend=`` spec field rides along unchanged, so per-shard backend
selection needs no extra wiring.

Wire protocol (one JSON dict per frame of a
:class:`multiprocessing.connection.Connection`, coded at both ends by
:mod:`repro.cluster.transport`; :func:`worker_main` serves the pipe and
the TCP transport alike):

* coordinator → worker: ``{"type": "shard", "shard_id": int, "spec": {...}}``
  (optionally carrying ``"heartbeat": seconds``) or ``{"type": "stop"}``;
* worker → coordinator: ``{"type": "result", "shard_id": int,
  "records": [...]}`` on success, ``{"type": "error", "shard_id": int,
  "error": "..."}`` when the spec itself fails deterministically (the
  coordinator aborts instead of retrying — rerunning the same spec would
  fail the same way), and — while a shard with a ``heartbeat`` interval is
  computing — periodic ``{"type": "heartbeat", "shard_id": int}`` frames
  from a background thread, proving liveness to the coordinator's shard
  deadline (see :class:`~repro.cluster.coordinator.ClusterCoordinator`).

Each record row is the full schema-v1 document of
:meth:`~repro.core.result.RunResult.as_record` plus two provenance keys:
``shard`` (the shard id) and ``trial`` (the trial index within the shard),
which ``--resume`` uses to tell complete shards from truncated ones.
"""

from __future__ import annotations

import multiprocessing.connection
import socket
import threading
import time
from typing import Any, Callable

from repro.api.spec import SimulationSpec
from repro.cluster.transport import _decode, _encode
from repro.errors import ReproError

__all__ = [
    "run_shard",
    "handle_shard_message",
    "worker_main",
    "tcp_worker_main",
    "connect_with_retry",
]


def run_shard(spec: SimulationSpec, shard_id: int) -> list[dict[str, Any]]:
    """Run one shard in-process and return its provenance-tagged rows.

    The single home of shard execution: the in-process (``workers=0``)
    sweep path and every cluster worker call exactly this function, which
    is why the distributed row multiset is bit-identical to the
    single-process sweep.
    """
    from repro.experiments.runner import run_trials

    records = run_trials(spec, as_records=True)
    for trial_index, record in enumerate(records):
        record["shard"] = int(shard_id)
        record["trial"] = int(trial_index)
    return records


def handle_shard_message(
    message: dict[str, Any],
    worker_id: int,
    send: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any] | None:
    """Process one coordinator message; ``None`` means "stop the loop".

    The shard half of the worker: :func:`worker_main` feeds every decoded
    message through here, so shard semantics (run, tag, report
    deterministic failures as ``"error"`` replies) have one home, apart
    from the loop that moves the frames.

    When the message carries a ``"heartbeat"`` interval *and* a thread-safe
    ``send`` callable is provided, a daemon thread emits
    ``{"type": "heartbeat", ...}`` frames every interval seconds while the
    shard computes, so the coordinator's inactivity deadline distinguishes
    a long shard from a hung worker.  Without either, heartbeating is
    skipped and the wire behaviour is exactly the pre-resilience one.
    """
    if message.get("type") == "stop":
        return None
    shard_id = int(message["shard_id"])
    interval = message.get("heartbeat")
    stop_beat: threading.Event | None = None
    beat_thread: threading.Thread | None = None
    if send is not None and interval:
        stop_beat = threading.Event()

        def _beat() -> None:
            while not stop_beat.wait(float(interval)):
                try:
                    send(
                        {
                            "type": "heartbeat",
                            "shard_id": shard_id,
                            "worker_id": worker_id,
                        }
                    )
                except Exception:
                    return  # coordinator gone; the main loop will notice

        beat_thread = threading.Thread(
            target=_beat, name=f"repro-heartbeat-{worker_id}", daemon=True
        )
        beat_thread.start()
    try:
        try:
            spec = SimulationSpec.from_dict(message["spec"])
            return {
                "type": "result",
                "shard_id": shard_id,
                "worker_id": worker_id,
                "records": run_shard(spec, shard_id),
            }
        except ReproError as exc:
            return {
                "type": "error",
                "shard_id": shard_id,
                "worker_id": worker_id,
                "error": f"{type(exc).__name__}: {exc}",
            }
    finally:
        if stop_beat is not None:
            stop_beat.set()
            beat_thread.join(timeout=5.0)


def worker_main(conn: multiprocessing.connection.Connection, worker_id: int) -> None:
    """Blocking worker loop: receive shard messages, reply with records.

    Runs in the worker process of either transport (see
    :mod:`repro.cluster.transport`), over a pipe or a TCP socket.  A
    deterministic failure inside a shard is caught and reported as an
    ``"error"`` message rather than killing the worker, so the coordinator
    can distinguish "this spec cannot run" (abort) from "this worker died"
    (retry the shard elsewhere).  All sends — result replies and the
    heartbeat thread's frames — share one lock so frames never interleave
    on the connection.
    """
    send_lock = threading.Lock()

    def send(reply: dict[str, Any]) -> None:
        with send_lock:
            conn.send_bytes(_encode(reply))

    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return  # coordinator went away; nothing useful left to do
        reply = handle_shard_message(_decode(data), worker_id, send=send)
        if reply is None:
            return
        try:
            send(reply)
        except OSError:
            return


def connect_with_retry(
    host: str,
    port: int,
    *,
    timeout: float = 30.0,
    attempts: int = 5,
    backoff: float = 0.05,
) -> socket.socket | None:
    """Dial ``(host, port)`` with bounded exponential-backoff retries.

    A TCP worker can race a coordinator whose listener is not accepting
    yet (or momentarily backlogged); a single hard-coded attempt would die
    on the spot and burn one of the shard's retry lives for nothing.
    Retries ``attempts`` times, sleeping ``backoff * 2**i`` between tries,
    and returns ``None`` when every attempt failed — callers treat that as
    "the coordinator is gone".
    """
    if attempts < 1:
        attempts = 1
    for attempt in range(attempts):
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError:
            if attempt + 1 == attempts:
                return None
            time.sleep(backoff * (2**attempt))
    return None  # pragma: no cover - loop always returns


def tcp_worker_main(
    host: str,
    port: int,
    worker_id: int,
    connect_timeout: float = 30.0,
    connect_attempts: int = 5,
    connect_backoff: float = 0.05,
) -> None:
    """Dial the coordinator over TCP, then serve shards by :func:`worker_main`.

    Spawned by :class:`~repro.cluster.transport.TcpTransport`: connects to
    the transport's listening socket (with bounded
    :func:`connect_with_retry` backoff, so racing a not-yet-listening
    coordinator doesn't kill the worker), wraps the socket in the
    connection the pipe transport uses, and identifies itself with a
    ``hello`` frame before the shared loop takes over.
    """
    sock = connect_with_retry(
        host,
        port,
        timeout=connect_timeout,
        attempts=connect_attempts,
        backoff=connect_backoff,
    )
    if sock is None:
        return  # coordinator's listener is gone; nothing to serve
    # The dial timeout must not outlive the dial: the connection needs a
    # blocking socket, and an idle worker waits for its next shard unbounded.
    sock.setblocking(True)
    with multiprocessing.connection.Connection(sock.detach()) as conn:
        conn.send_bytes(_encode({"type": "hello", "worker_id": int(worker_id)}))
        worker_main(conn, worker_id)
