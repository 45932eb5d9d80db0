"""Chaos wrappers: inject scheduled faults into transports and connections.

:class:`ChaosTransport` wraps any cluster
:class:`~repro.cluster.transport.Transport`; every spawned worker handle is
wrapped in a :class:`ChaosWorkerHandle` that consults its own deterministic
:class:`~repro.resilience.faults.FaultSchedule` stream before each send and
receive.  The injected faults map onto the real failure modes the
coordinator must absorb:

===============  ==========================================================
fault            observable effect
===============  ==========================================================
``drop``         the frame is silently lost — no reply, no EOF; only the
                 coordinator's shard deadline can recover
``delay``        the frame is delivered late (exercises reordering windows)
``duplicate``    a send is delivered twice / a received reply is delivered
                 again (exercises shard-id dedup)
``truncate``     the stream tears mid-frame: the worker is killed so the
                 next read sees a torn/absent frame → ``WorkerLost``
``hang``         the link blocks for ``hang_seconds`` delivering nothing —
                 a *hung* worker, invisible to EOF-based detection
``kill``         the worker process is hard-killed (the PR-8 fault, now
                 schedulable)
===============  ==========================================================

A chaos sweep therefore **requires** a ``shard_deadline`` on the
coordinator whenever ``drop``/``hang`` probabilities are non-zero: those
faults produce no EOF, and only the deadline converts them into
:class:`~repro.cluster.transport.WorkerLost`.  A ``delay`` or ``hang`` is
waited out on an event that :meth:`ChaosWorkerHandle.kill` sets, so the
deadline's kill frees the blocked ``send`` or ``recv`` at once, as the
handle contract requires.

:class:`ChaosConnection` applies the same scheduled faults to the service's
blocking client framing (drop/truncate sever the connection, duplicate
resends the frame), which is what the retrying
:class:`~repro.service.ServiceClient` is certified against.

Every injected fault is appended to the owning wrapper's ``fault_log`` as
``(scope, incarnation, operation, kind)`` so tests can assert that a given
seed really exercised (say) at least one hang and one duplication.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.cluster.transport import WorkerLost, check_transport
from repro.errors import ConfigurationError
from repro.resilience.faults import FaultSchedule
from repro.service.framing import FrameConnection

__all__ = ["ChaosTransport", "ChaosWorkerHandle", "ChaosConnection"]


class ChaosWorkerHandle:
    """A worker handle that injects scheduled faults around a real one.

    The ``stop`` sentinel is exempt from injection — teardown is not part
    of the failure model, and faulting it would only slow test shutdown.
    """

    def __init__(
        self,
        inner: Any,
        stream,
        log: list[tuple[int, int, str, str]],
        incarnation: int,
    ) -> None:
        self._inner = inner
        self._stream = stream
        self._log = log
        self._incarnation = incarnation
        self._log_lock = threading.Lock()
        self._dup_pending: list[dict[str, Any]] = []
        self._killed = threading.Event()

    # ------------------------------------------------------------------ #
    @property
    def worker_id(self) -> int:
        return self._inner.worker_id

    @property
    def pid(self) -> int | None:
        return self._inner.pid

    def _record(self, operation: str, kind: str) -> None:
        with self._log_lock:
            self._log.append(
                (self._inner.worker_id, self._incarnation, operation, kind)
            )

    def _wait(self, operation: str, kind: str, seconds: float) -> None:
        """Sleep out an injected delay or hang, cut short by :meth:`kill`."""
        if self._killed.wait(seconds):
            raise WorkerLost(
                f"worker {self.worker_id} killed during an injected {kind} "
                f"of its {operation}"
            )

    def _sever(self) -> None:
        """Kill the inner worker so the stream ends without a valid frame."""
        try:
            self._inner.kill()
        except Exception:  # pragma: no cover - already dead
            pass

    # ------------------------------------------------------------------ #
    def send(self, message: dict[str, Any]) -> None:
        if message.get("type") == "stop":
            self._inner.send(message)
            return
        fault = self._stream.next_fault()
        if fault is None:
            self._inner.send(message)
            return
        self._record("send", fault.kind)
        if fault.kind == "drop":
            return  # the frame evaporates: no delivery, no error, no EOF
        if fault.kind in ("delay", "hang"):
            self._wait("send", fault.kind, fault.seconds)
            self._inner.send(message)
            return
        if fault.kind == "duplicate":
            self._inner.send(message)
            try:
                self._inner.send(message)
            except WorkerLost:  # pragma: no cover - died between the two
                pass
            return
        if fault.kind in ("truncate", "kill"):
            # Torn frame ≡ hard kill from the coordinator's point of view:
            # the stream ends before a complete frame, so the *next read*
            # raises WorkerLost (a pipe send to a fresh corpse may still
            # succeed into the buffer — that asymmetry is real).
            self._sever()
            try:
                self._inner.send(message)
            except WorkerLost:
                pass
            return
        raise ConfigurationError(  # pragma: no cover - FAULT_KINDS is closed
            f"unknown fault kind {fault.kind!r}"
        )

    def recv(self) -> dict[str, Any]:
        if self._dup_pending:
            return dict(self._dup_pending.pop(0))
        fault = self._stream.next_fault()
        if fault is not None:
            self._record("recv", fault.kind)
            if fault.kind == "drop":
                self._inner.recv()  # the delivered frame evaporates
                return self._inner.recv()
            if fault.kind in ("delay", "hang"):
                # A hang is the worker (or the link) wedging: nothing is
                # delivered for hang_seconds, unless the coordinator's
                # deadline kills the handle first.
                self._wait("recv", fault.kind, fault.seconds)
            elif fault.kind in ("truncate", "kill"):
                self._sever()
            elif fault.kind == "duplicate":
                reply = self._inner.recv()
                if reply.get("type") == "result":
                    self._dup_pending.append(dict(reply))
                return reply
        return self._inner.recv()

    def close(self) -> None:
        self._inner.close()

    def kill(self) -> None:
        self._killed.set()
        self._inner.kill()


class ChaosTransport:
    """Wrap a cluster transport so every handle injects scheduled faults.

    Parameters
    ----------
    inner:
        The real :class:`~repro.cluster.transport.Transport` (defaults to a
        fresh :class:`~repro.cluster.transport.MultiprocessingTransport`).
    schedule:
        The seeded :class:`~repro.resilience.faults.FaultSchedule`.  Each
        ``(worker_id, incarnation)`` gets its own child decision stream, so
        the run is replayable from the schedule's seed alone.

    Attributes
    ----------
    fault_log:
        Every injected fault, as ``(worker_id, incarnation, op, kind)``.
    """

    def __init__(self, schedule: FaultSchedule, inner: Any | None = None) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ConfigurationError(
                f"schedule must be a FaultSchedule, got {type(schedule).__name__}"
            )
        if inner is None:
            from repro.cluster.transport import MultiprocessingTransport

            inner = MultiprocessingTransport()
        self._inner = check_transport(inner)
        self.schedule = schedule
        self.fault_log: list[tuple[int, int, str, str]] = []
        self._incarnations: dict[int, int] = {}
        self._spawn_lock = threading.Lock()

    def spawn(self, worker_id: int) -> ChaosWorkerHandle:
        handle = self._inner.spawn(worker_id)
        with self._spawn_lock:
            incarnation = self._incarnations.get(worker_id, 0)
            self._incarnations[worker_id] = incarnation + 1
        return ChaosWorkerHandle(
            handle,
            self.schedule.stream(worker_id, incarnation),
            self.fault_log,
            incarnation,
        )

    def shutdown(self) -> None:
        self._inner.shutdown()

    # ------------------------------------------------------------------ #
    def fault_counts(self) -> dict[str, int]:
        """Injected faults tallied by kind (assertion/reporting helper)."""
        counts: dict[str, int] = {}
        for _, _, _, kind in self.fault_log:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


class ChaosConnection(FrameConnection):
    """A service frame connection that injects scheduled faults on send.

    The client-side mirror of :class:`ChaosWorkerHandle`, used to certify
    the retrying :class:`~repro.service.ServiceClient`: a dropped or torn
    frame severs the connection (the client must reconnect and replay its
    unacknowledged submits by request id), a duplicated frame reaches the
    server twice (the server must dedup by request id), a delayed frame is
    just late.  ``hang`` and ``kill`` degrade to ``drop`` here — there is
    no separate process to kill on a client socket.

    Every injected fault lands in ``fault_log`` as ``(op, kind)``.
    """

    def __init__(self, sock, stream) -> None:
        super().__init__(sock)
        self._stream = stream
        self.fault_log: list[tuple[str, str]] = []

    def send(self, message: dict[str, Any]) -> None:
        fault = self._stream.next_fault()
        if fault is None:
            super().send(message)
            return
        self.fault_log.append(("send", fault.kind))
        if fault.kind == "delay":
            time.sleep(fault.seconds)
            super().send(message)
            return
        if fault.kind == "duplicate":
            super().send(message)
            super().send(message)
            return
        if fault.kind == "truncate":
            # Write a torn prefix so the server sees a mid-frame EOF, then
            # sever: neither side can use this connection again.
            from repro.service.framing import encode_frame

            data = encode_frame(message)
            try:
                self._sock.sendall(data[: max(1, len(data) // 2)])
            except OSError:  # pragma: no cover - already severed
                pass
            self.close()
            raise ConnectionError("chaos: connection torn mid-frame")
        # drop / hang / kill: the frame never leaves — sever the connection
        # so the client's recv fails fast instead of waiting on a timeout.
        self.close()
        raise ConnectionError(f"chaos: frame dropped ({fault.kind})")
