"""Worker transports for the cluster coordinator.

The coordinator talks to workers through a deliberately small seam — a
:class:`Transport` spawns :class:`WorkerHandle`\\ s, and a handle exchanges
JSON-serialisable dict messages with one worker — so how a frame crosses
never reaches the coordinator, and the wire format is JSON bytes, not
pickles.

Loss semantics are part of the contract: :meth:`WorkerHandle.send` and
:meth:`WorkerHandle.recv` raise :class:`WorkerLost` when the worker is gone
(killed, crashed, connection severed) or its reply arrives torn or corrupt.
The coordinator treats that as "the in-flight shard is lost, requeue it
and respawn the worker" — it is a signal, not a user-facing error, so it
derives from plain ``Exception`` rather than the :mod:`repro.errors`
hierarchy.

Threading is part of it too.  The coordinator drives each handle from one
thread of its own, which calls ``send`` and ``recv`` directly and may block
in them.  :meth:`WorkerHandle.kill` may be called from another thread (the
coordinator's deadline watchdog, or an aborting sweep) while that ``send``
or ``recv`` blocks, and it must make the blocked call raise
:class:`WorkerLost` promptly.  Rows reach the coordinator's ``on_record``
on its driver threads, one call at a time.

Both transports here share one wire: a worker process behind a
:class:`multiprocessing.connection.Connection`, whose length-prefixed
frames each carry one message as UTF-8 JSON (:func:`_encode` and
:func:`_decode`, the codec of both ends), with the
:func:`repro.cluster.worker.worker_main` loop on the far side.
:class:`MultiprocessingTransport`, the default, connects each worker by a
duplex pipe.  :class:`TcpTransport` has each worker dial back to a
listening socket and wraps both ends of it in the same connection,
exercising the socket path end-to-end on one machine, ready to split
across machines when the spawn step grows a remote launcher.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import socket
import threading
from typing import Any, Protocol, runtime_checkable

from repro.errors import ClusterError, ConfigurationError

__all__ = [
    "WorkerLost",
    "WorkerHandle",
    "Transport",
    "MultiprocessingTransport",
    "TcpTransport",
    "check_transport",
]


class WorkerLost(Exception):
    """The worker died (or its connection broke) before replying.

    Raised by :meth:`WorkerHandle.send` / :meth:`WorkerHandle.recv`; the
    coordinator converts it into a shard retry.  Not part of the public
    error hierarchy — it never escapes the cluster layer (exhausted retries
    surface as :class:`~repro.errors.ClusterError`).
    """


@runtime_checkable
class WorkerHandle(Protocol):
    """One live worker: send dict messages, receive dict replies."""

    worker_id: int

    def send(self, message: dict[str, Any]) -> None:
        """Deliver ``message``; raises :class:`WorkerLost` if the worker died."""
        ...

    def recv(self) -> dict[str, Any]:
        """Block for the next reply; raises :class:`WorkerLost` on death."""
        ...

    def close(self) -> None:
        """Stop the worker gracefully and release its resources."""
        ...

    def kill(self) -> None:
        """Hard-kill the worker (fault injection / deadline / abort paths).

        May run on another thread while ``send`` or ``recv`` blocks; that
        call must then raise :class:`WorkerLost`.
        """
        ...

    @property
    def pid(self) -> int | None:
        """OS pid when the transport is process-backed, else ``None``."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Factory of :class:`WorkerHandle`\\ s."""

    def spawn(self, worker_id: int) -> WorkerHandle:
        """Start worker ``worker_id`` and return its handle."""
        ...

    def shutdown(self) -> None:
        """Release any transport-wide resources (idempotent)."""
        ...


def check_transport(transport: Any) -> Any:
    """Validate a user-supplied transport object (duck-typed).

    Raises :class:`~repro.errors.ConfigurationError` naming the missing
    method, so a mis-wired transport fails before any worker is spawned.
    """
    for method in ("spawn", "shutdown"):
        if not callable(getattr(transport, method, None)):
            raise ConfigurationError(
                f"transport: {type(transport).__name__} has no callable "
                f"{method}() — expected a repro.cluster.Transport"
            )
    return transport


def _context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """The ``multiprocessing`` context both transports start workers in."""
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in available else "spawn"
    if start_method not in available:
        raise ConfigurationError(
            f"start_method: {start_method!r} not supported here "
            f"(available: {available})"
        )
    return multiprocessing.get_context(start_method)


def _encode(message: dict[str, Any]) -> bytes:
    """One frame's payload: the message as UTF-8 JSON."""
    return json.dumps(message).encode("utf-8")


def _decode(data: bytes) -> dict[str, Any]:
    """Parse one frame's payload; ``ValueError`` unless it is a JSON object.

    Bad UTF-8 and bad JSON raise ``ValueError`` too, and a payload nested
    too deep to parse raises ``RecursionError``.
    """
    message = json.loads(data.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError(f"frame must decode to a dict, got {type(message).__name__}")
    return message


class _WorkerHandle:
    """A worker process behind a :class:`multiprocessing.connection.Connection`.

    Both transports hand out this class: the connection wraps a duplex pipe
    (:class:`MultiprocessingTransport`) or a TCP socket
    (:class:`TcpTransport`), and either way carries the same
    length-prefixed frames of :func:`_encode` payloads.
    """

    def __init__(
        self,
        worker_id: int,
        process: multiprocessing.process.BaseProcess,
        conn: multiprocessing.connection.Connection,
    ) -> None:
        self.worker_id = worker_id
        self._process = process
        self._conn = conn

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def send(self, message: dict[str, Any]) -> None:
        try:
            self._conn.send_bytes(_encode(message))
        except (EOFError, OSError) as exc:
            raise WorkerLost(
                f"worker {self.worker_id} (pid {self.pid}) is gone: {exc}"
            ) from exc

    def recv(self) -> dict[str, Any]:
        try:
            return _decode(self._conn.recv_bytes())
        except (EOFError, OSError, ValueError, RecursionError) as exc:
            # A torn or corrupt frame means the worker died mid-write; the
            # coordinator's answer is the same either way: retry the shard.
            raise WorkerLost(
                f"worker {self.worker_id} (pid {self.pid}) died mid-shard: {exc}"
            ) from exc

    def close(self) -> None:
        try:
            self._conn.send_bytes(_encode({"type": "stop"}))
        except (EOFError, OSError):
            pass  # already dead — nothing to stop
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()

    def kill(self) -> None:
        self._process.kill()
        self._process.join(timeout=5.0)
        self._conn.close()


class MultiprocessingTransport:
    """Default transport: one OS process per worker, JSON over a pipe.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (workers inherit the already-imported NumPy stack, so
        respawning a dead worker costs milliseconds) and ``"spawn"``
        elsewhere.
    """

    def __init__(self, start_method: str | None = None) -> None:
        self._ctx = _context(start_method)
        self._spawn_lock = threading.Lock()

    def spawn(self, worker_id: int) -> _WorkerHandle:
        from repro.cluster.worker import worker_main

        # The lock serialises the Pipe()..child_conn.close() window across
        # the coordinator's concurrent spawn calls.  Without it, a fork for
        # worker B can land while worker A's child-end fd is still open in
        # this process; B then holds a copy of A's write end forever, and
        # if A dies the coordinator's recv never sees EOF — the lost-shard
        # retry would hang instead of firing.
        with self._spawn_lock:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, worker_id),
                name=f"repro-cluster-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
        return _WorkerHandle(worker_id, process, parent_conn)

    def shutdown(self) -> None:
        """Nothing transport-wide to release (handles own their processes)."""


#: Size cap of the ``hello`` frame, the one frame :meth:`TcpTransport.spawn`
#: reads before it knows which process is on the other end of a socket.
_HELLO_MAX_BYTES = 1024


class TcpTransport:
    """Socket-backed transport: workers connect back over TCP.

    The transport owns one listening socket.  :meth:`spawn` starts a worker
    process running :func:`repro.cluster.worker.tcp_worker_main`, accepts
    its connection, and matches it by the worker's ``hello`` frame — all
    under a lock, so concurrent spawns cannot cross their connections.
    Both ends then wrap the socket in a
    :class:`multiprocessing.connection.Connection`, so the frames and the
    handle are those of :class:`MultiprocessingTransport`; running the
    workers on another machine is a matter of replacing the local process
    launch.

    Parameters
    ----------
    host:
        Interface to listen on (and the address workers dial back to).
    start_method:
        ``multiprocessing`` start method for the local worker processes;
        same default as :class:`MultiprocessingTransport`.
    accept_timeout:
        Seconds to wait for a spawned worker to dial back before declaring
        the spawn failed.
    connect_timeout, connect_attempts, connect_backoff:
        Forwarded to :func:`repro.cluster.worker.connect_with_retry` in
        each spawned worker: per-attempt dial timeout, bounded retry
        count, and the exponential-backoff base between attempts — so a
        worker racing a not-yet-accepting listener retries instead of
        dying on the spot.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        start_method: str | None = None,
        accept_timeout: float = 30.0,
        connect_timeout: float = 30.0,
        connect_attempts: int = 5,
        connect_backoff: float = 0.05,
    ) -> None:
        self._ctx = _context(start_method)
        if connect_attempts < 1:
            raise ConfigurationError(
                f"connect_attempts: must be at least 1, got {connect_attempts}"
            )
        if connect_timeout <= 0 or connect_backoff < 0:
            raise ConfigurationError(
                "connect_timeout must be positive and connect_backoff "
                f"non-negative, got {connect_timeout!r} / {connect_backoff!r}"
            )
        self._spawn_lock = threading.Lock()
        self._listener = socket.create_server((host, 0))
        self._listener.settimeout(accept_timeout)
        self._host = host
        self._connect_timeout = float(connect_timeout)
        self._connect_attempts = int(connect_attempts)
        self._connect_backoff = float(connect_backoff)

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` workers dial back to."""
        bound = self._listener.getsockname()
        return (self._host, bound[1])

    def spawn(self, worker_id: int) -> _WorkerHandle:
        from repro.cluster.worker import tcp_worker_main

        host, port = self.address
        # The lock serialises start()..accept(): each spawned worker has
        # connected (and said hello) before the next spawn begins, so an
        # accepted connection always belongs to the worker just started.
        with self._spawn_lock:
            process = self._ctx.Process(
                target=tcp_worker_main,
                args=(
                    host,
                    port,
                    worker_id,
                    self._connect_timeout,
                    self._connect_attempts,
                    self._connect_backoff,
                ),
                name=f"repro-tcp-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            conn = None
            try:
                sock, _ = self._listener.accept()
                # A socket with a timeout is non-blocking underneath, and the
                # connection's reads would then fail instead of waiting.
                sock.setblocking(True)
                conn = multiprocessing.connection.Connection(sock.detach())
                hello = _decode(conn.recv_bytes(_HELLO_MAX_BYTES))
                if hello != {"type": "hello", "worker_id": worker_id}:
                    raise ValueError(f"unexpected hello frame {hello!r}")
            except (EOFError, OSError, ValueError, RecursionError) as exc:
                if conn is not None:
                    conn.close()
                process.kill()
                process.join(timeout=5.0)
                raise ClusterError(
                    f"worker {worker_id} never said hello on {host}:{port}: {exc}"
                ) from exc
        return _WorkerHandle(worker_id, process, conn)

    def shutdown(self) -> None:
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
