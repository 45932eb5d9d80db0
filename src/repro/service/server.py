"""The live dispatcher service: asyncio TCP server + clients.

:class:`DispatchService` wraps a :class:`~repro.scheduler.Dispatcher` in a
long-running asyncio loop: job submissions arrive asynchronously (over TCP
or in-process), are micro-batched per event-loop pass by the
:class:`~repro.service.batcher.MicroBatcher`, and liveness is a matter of
counters and callbacks — there is no join anywhere.  A TCP frame costs no
task: the connection loop admits each ``submit`` and ``stats`` frame
synchronously, and the flush that dispatches a micro-batch writes the
replies of its submissions itself.

Wire protocol — one newline-delimited JSON frame per message (see
:mod:`repro.service.framing`), requests carrying a client-chosen ``id``
that the reply echoes (so clients may pipeline):

=============  =====================================  =========================
request        fields                                 reply
=============  =====================================  =========================
``submit``     ``sizes`` (list of positive floats)    ``result`` with
                                                      ``assignments``
``stats``      —                                      ``stats`` with the
                                                      telemetry snapshot
``checkpoint`` —                                      ``checkpoint`` with the
                                                      dispatcher ``state`` (and
                                                      ``path`` when configured)
``drain``      —                                      ``drained`` with
                                                      ``jobs_dispatched``
``shutdown``   —                                      ``stopped`` (then the
                                                      server closes)
=============  =====================================  =========================

Failures (shed submissions under ``overflow="shed"``, malformed requests,
bad job sizes) come back as ``{"type": "error", "error": "...", "id": ...}``
— the connection stays usable.

A ``submit`` may additionally carry a client-chosen ``request_id`` string,
which makes it idempotent: replaying the same id (the retrying client does
this after a reconnect, because a lost *reply* does not mean a lost
*dispatch*) returns the originally recorded assignments with
``"replayed": true`` instead of dispatching the jobs again.  See
:mod:`repro.service.requests` for the crash-consistency story.

A ``checkpoint`` quiesces the batcher (takes its flush lock, so the
dispatcher sits exactly between two micro-batches), snapshots
:meth:`Dispatcher.state_dict`, and optionally writes it atomically to
``checkpoint_path``.  A killed service restarted via
:meth:`DispatchService.from_checkpoint` resumes the stream bit-identically
(certified policy-by-policy in the test-suite).

Synchronous peers use :class:`ServiceClient` (blocking socket, pipelining
support) or :class:`ServiceThread`, which runs a whole service on a
background thread and hands out connected clients — the test-suite,
examples and the soak benchmark all drive it.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
import uuid
from functools import partial
from typing import Any, Callable, Coroutine

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.scheduler.dispatcher import Dispatcher
from repro.service import framing
from repro.service.batcher import MicroBatcher, _settle
from repro.service.requests import RequestLog
from repro.service.framing import (
    FrameConnection,
    FramingError,
    FrameTooLargeError,
    read_frame,
)
from repro.service.telemetry import ServiceTelemetry

__all__ = ["ServiceError", "DispatchService", "ServiceClient", "ServiceThread"]


class ServiceError(ReproError):
    """The service replied with an error frame (shed, bad request, …)."""


class DispatchService:
    """Long-running async dispatch service around one stateful dispatcher.

    Parameters
    ----------
    dispatcher:
        The :class:`~repro.scheduler.Dispatcher` to serve.  The service owns
        it while running: all dispatch goes through the micro-batcher.
    max_queue_jobs, overflow, max_batch_jobs, total_jobs:
        Micro-batcher knobs; see :class:`~repro.service.batcher.MicroBatcher`.
    checkpoint_path:
        Where ``checkpoint`` requests persist the dispatcher state (written
        atomically: temp file + rename, with the previous snapshot rotated
        to ``<path>.prev`` as a fallback against torn files).  ``None``
        keeps checkpoints reply-only.
    checkpoint_interval:
        Seconds between automatic checkpoints (requires
        ``checkpoint_path``).  ``None`` (default) checkpoints only on
        request.  The auto-checkpoint rides the same quiesce-between-
        micro-batches path as explicit ``checkpoint`` requests.
    telemetry:
        Optional :class:`~repro.service.telemetry.ServiceTelemetry` override.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        *,
        max_queue_jobs: int = 100_000,
        overflow: str = "block",
        max_batch_jobs: int | None = None,
        total_jobs: int | None = None,
        checkpoint_path: str | None = None,
        checkpoint_interval: float | None = None,
        telemetry: ServiceTelemetry | None = None,
    ) -> None:
        if not isinstance(dispatcher, Dispatcher):
            raise ConfigurationError(
                f"dispatcher must be a repro.scheduler.Dispatcher, "
                f"got {type(dispatcher).__name__}"
            )
        if checkpoint_interval is not None:
            if checkpoint_interval <= 0:
                raise ConfigurationError(
                    f"checkpoint_interval must be positive when given, "
                    f"got {checkpoint_interval}"
                )
            if checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_interval needs a checkpoint_path to write to"
                )
        self.dispatcher = dispatcher
        self.telemetry = telemetry if telemetry is not None else ServiceTelemetry()
        self.request_log = RequestLog()
        self.batcher = MicroBatcher(
            dispatcher,
            max_queue_jobs=max_queue_jobs,
            overflow=overflow,
            max_batch_jobs=max_batch_jobs,
            total_jobs=total_jobs,
            telemetry=self.telemetry,
            request_log=self.request_log,
        )
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self._server: asyncio.AbstractServer | None = None
        self._closed: asyncio.Event | None = None
        self._autosave: asyncio.Task | None = None
        self._stopper: asyncio.Task | None = None
        self.address: tuple[str, int] | None = None

    @classmethod
    def from_checkpoint(cls, checkpoint: "str | dict", **kwargs: Any) -> "DispatchService":
        """Rebuild a service from a checkpoint file path (or state dict).

        The restored dispatcher resumes the interrupted stream
        bit-identically; service-level knobs (queue bound, overflow policy,
        ``checkpoint_path``) are taken from ``kwargs`` as on a fresh start.
        A ``checkpoint_path`` defaults to the file the checkpoint was read
        from, so the resumed service keeps checkpointing to the same place.

        A file that cannot be read back as a snapshot — missing, torn
        mid-write (truncated / invalid JSON), or valid JSON that is not a
        dispatcher state or holds an impossible counter or request-log
        entry — raises :class:`~repro.errors.CheckpointError`
        naming the file, so callers (the CLI's ``--restore``, the
        supervisor's previous-snapshot fallback) can react without pattern
        matching on JSON internals.
        """
        if isinstance(checkpoint, str):
            try:
                with open(checkpoint, "r", encoding="utf-8") as fh:
                    state = json.load(fh)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot read checkpoint {checkpoint!r}: {exc}"
                ) from exc
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise CheckpointError(
                    f"checkpoint {checkpoint!r} is torn or corrupt "
                    f"(not valid JSON): {exc}"
                ) from exc
            kwargs.setdefault("checkpoint_path", checkpoint)
            origin = checkpoint
        else:
            state = checkpoint
            origin = None
        if not isinstance(state, dict):
            raise CheckpointError(
                f"checkpoint {origin or '<dict>'!r} does not contain a "
                f"state document (got {type(state).__name__})"
            )
        # The service envelope rides under a key the dispatcher loader
        # ignores; pop it so this method owns the whole document.
        service_state = state.pop("service", None) if origin is not None else (
            state.get("service")
        )
        try:
            service = cls(Dispatcher.from_state(state), **kwargs)
            if isinstance(service_state, dict) and "requests" in service_state:
                log = RequestLog.from_state(service_state["requests"])
                service.request_log = log
                service.batcher.request_log = log
        except ConfigurationError as exc:
            if origin is not None:
                raise CheckpointError(
                    f"checkpoint {origin!r} is not a usable service "
                    f"snapshot: {exc}"
                ) from exc
            raise
        return service

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the micro-batcher (required before any submit)."""
        self._closed = asyncio.Event()
        self.batcher.start()
        if self.checkpoint_interval is not None:
            self._autosave = asyncio.get_running_loop().create_task(
                self._autosave_loop()
            )

    async def _autosave_loop(self) -> None:
        """Checkpoint on a timer until cancelled (the supervisor's food)."""
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            try:
                await self.checkpoint()
            except OSError:  # pragma: no cover - disk trouble
                # A failed write must not kill the service; the next tick
                # (or an explicit checkpoint request) will try again.
                continue

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Open the TCP endpoint; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the test-suite's default).
        """
        if self._closed is None:
            await self.start()
        # limit= raises each connection's StreamReader buffer cap from the
        # asyncio default of 64 KiB to the protocol's frame bound, so large
        # (e.g. 10^6-job) submits are readable; read via the module so tests
        # can shrink the bound.
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=framing.MAX_FRAME_BYTES
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        return self.address

    async def stop(self) -> None:
        """Flush the queue, close the TCP endpoint, stop the batcher."""
        if self._autosave is not None:
            self._autosave.cancel()
            try:
                await self._autosave
            except asyncio.CancelledError:
                pass
            self._autosave = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()
        if self._closed is not None:
            self._closed.set()

    async def graceful_shutdown(self) -> None:
        """Drain, write a final checkpoint, then stop (the SIGTERM path).

        Every job accepted before the drain is dispatched and captured in
        the final snapshot, so a service stopped this way restarts exactly
        where it left off — nothing is lost, nothing replays twice.
        """
        await self.batcher.drain()
        if self.checkpoint_path is not None:
            await self.checkpoint()
        await self.stop()

    async def wait_closed(self) -> None:
        """Block until the service is stopped (a ``shutdown`` or :meth:`stop`)."""
        if self._closed is not None:
            await self._closed.wait()

    # ------------------------------------------------------------------ #
    # In-process API (shared by the TCP handler)
    # ------------------------------------------------------------------ #
    async def submit(self, sizes, request_id: str | None = None) -> np.ndarray:
        """Submit jobs in-process; resolves with their server assignments."""
        return await self.batcher.submit(sizes, request_id)

    def stats(self) -> dict[str, Any]:
        """The live telemetry + gauge snapshot (the ``stats`` reply body)."""
        return self.telemetry.snapshot(
            self.dispatcher, queue_depth=self.batcher.queue_depth
        )

    async def checkpoint(self) -> dict[str, Any]:
        """Quiesce the batcher and snapshot the dispatcher state.

        Holding the batcher's flush lock guarantees the snapshot sits
        exactly between two micro-batches: jobs still queued are *not* part
        of the checkpoint and will be dispatched by whichever service
        (this one, or a restored one re-fed by its clients) runs next.
        The request log is captured under the same lock, so the snapshot's
        dispatcher state and dedup memory are mutually consistent.

        On disk, the previous snapshot is rotated to ``<path>.prev`` before
        the new one lands, so a reader always has a fallback even if the
        latest file is torn.
        """
        async with self.batcher.flush_lock:
            state = self.dispatcher.state_dict()
            state["service"] = {"requests": self.request_log.state_dict()}
        if self.checkpoint_path is not None:
            tmp = f"{self.checkpoint_path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(state, fh)
            if os.path.exists(self.checkpoint_path):
                os.replace(self.checkpoint_path, f"{self.checkpoint_path}.prev")
            os.replace(tmp, self.checkpoint_path)
        return state

    async def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Process one protocol message and return the reply frame.

        The awaitable face of the service's single admission function,
        which the TCP connection loop calls directly: frames get the same
        checks and replies whichever transport brings them, so the protocol
        cannot fork between transports.  Tests and
        :meth:`ServiceThread.request` drive the protocol through here.
        """
        future = asyncio.get_running_loop().create_future()
        waiting = self._admit(message, partial(_settle, future))
        if waiting is not None:
            await waiting
        return await future

    def _admit(
        self, message: Any, reply: Callable[[dict[str, Any]], None]
    ) -> Coroutine[Any, Any, None] | None:
        """Admit one protocol message; ``reply`` gets its reply frame once.

        ``submit``, ``stats`` and ``shutdown`` are admitted synchronously.
        The reply goes out now — errors, ``stats``, a replay answered from
        the request log, an empty submit — or, for queued jobs, from the
        micro-batch flush that dispatches them.  Every submit check lives
        here: the ``request_id`` type, replays of committed ids, the sizes
        parse and the finite check (the batcher adds in-flight dedup, size
        validation and backpressure).  ``checkpoint`` and ``drain`` must
        wait for the batcher: for them the caller gets a coroutine that
        sends the reply when run.
        """
        reply_id = message.get("id") if isinstance(message, dict) else None
        try:
            if not isinstance(message, dict) or "type" not in message:
                raise ServiceError("message must be a dict with a 'type' field")
            kind = message["type"]
            if kind == "submit":
                frame = self._admit_submit(message, reply_id, reply)
            elif kind == "stats":
                frame = {"type": "stats", "id": reply_id, "stats": self.stats()}
            elif kind in ("checkpoint", "drain"):
                return self._reply_when_quiesced(kind, reply_id, reply)
            elif kind == "shutdown":
                # Reply first; the stop closes the endpoint after.
                self._stopper = asyncio.get_running_loop().create_task(self.stop())
                frame = {"type": "stopped", "id": reply_id}
            else:
                raise ServiceError(f"unknown message type {kind!r}")
        except ReproError as exc:
            frame = _error_frame(reply_id, exc)
        if frame is not None:
            reply(frame)
        return None

    def _admit_submit(
        self, message: dict[str, Any], reply_id: Any, reply
    ) -> dict[str, Any] | None:
        """Check and enqueue one ``submit``: its reply frame, or ``None`` if queued."""
        request_id = message.get("request_id")
        if request_id is not None:
            if not isinstance(request_id, str):
                raise ServiceError("request_id must be a string when given")
            recorded = self.request_log.get(request_id)
            if recorded is not None:
                # Replay of a committed submit: answer from the log,
                # dispatch nothing (exactly-once application).
                return {
                    "type": "result",
                    "id": reply_id,
                    "assignments": recorded.tolist(),
                    "replayed": True,
                }
        sizes = message.get("sizes")
        if not isinstance(sizes, list):
            raise ServiceError("submit needs a 'sizes' list")
        try:
            sizes_array = np.asarray(sizes, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"sizes must be a flat list of numbers: {exc}") from exc
        if sizes_array.ndim != 1:
            raise ServiceError(
                f"sizes must be a flat list of numbers, got a "
                f"{sizes_array.ndim}-dimensional nested list"
            )
        if sizes_array.size and not np.isfinite(sizes_array).all():
            # NaN/inf cannot round-trip the JSON wire format
            # (allow_nan=False) and would poison the work gauges.
            raise ServiceError("sizes must be finite numbers")
        self.batcher.admit(sizes_array, partial(_result_frame, reply, reply_id), request_id)
        return None

    async def _reply_when_quiesced(self, kind: str, reply_id: Any, reply) -> None:
        """Send a ``checkpoint`` or ``drain`` reply once the batcher allows it."""
        try:
            if kind == "checkpoint":
                frame = {
                    "type": "checkpoint",
                    "id": reply_id,
                    "state": await self.checkpoint(),
                    "path": self.checkpoint_path,
                }
            else:
                await self.batcher.drain()
                frame = {
                    "type": "drained",
                    "id": reply_id,
                    "jobs_dispatched": int(self.dispatcher.jobs_dispatched),
                }
        except (ReproError, OSError) as exc:
            frame = _error_frame(reply_id, exc)
        reply(frame)

    # ------------------------------------------------------------------ #
    # TCP handler
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: frames admitted inline, replies written as they resolve.

        A ``submit`` or ``stats`` frame costs no task: it is admitted
        synchronously, and a submit's reply is written by the micro-batch
        flush that dispatches it.  Only ``checkpoint`` and ``drain`` run as
        tasks.  Frames are admitted in arrival order, so pipelined submits
        keep their job order and share micro-batches.  The loop awaits
        ``writer.drain()`` before each read: a client that stops reading
        its replies stops being read once the transport buffer is full,
        while other connections keep getting theirs.  At EOF the loop waits
        for the batcher to drain and for its own tasks, so every reply
        still owed is written before the connection closes.
        """

        def send(frame: dict[str, Any]) -> None:
            if writer.is_closing():
                return  # client gone; nothing to deliver to
            try:
                data = framing.encode_frame(frame)
            except FramingError as exc:
                # An echoed id strict JSON cannot carry (a number past the
                # float range decodes to inf) still gets a reply.
                data = framing.encode_frame(
                    {"type": "error", "id": None, "error": str(exc)}
                )
            writer.write(data)

        tasks: set[asyncio.Task] = set()
        try:
            while True:
                await writer.drain()
                try:
                    message = await read_frame(reader)
                except FramingError as exc:
                    send({"type": "error", "id": None, "error": str(exc)})
                    if isinstance(exc, FrameTooLargeError):
                        # The overrun consumed part of the oversized line:
                        # the stream is desynchronised mid-frame, so after
                        # the error reply the connection cannot be reused.
                        break
                    continue
                if message is None:
                    break
                waiting = self._admit(message, send)
                if waiting is not None:
                    task = asyncio.get_running_loop().create_task(waiting)
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
            await self.batcher.drain()
            await asyncio.gather(*tasks)
        except (ConnectionError, OSError, asyncio.CancelledError):
            # Client gone, or service stopping.  A cancellation ends here:
            # re-raised, Python 3.11's stream protocol would log it as an
            # error from its done callback.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # hard stop mid-cleanup; the loop closes the transport


def _error_frame(reply_id: Any, exc: BaseException) -> dict[str, Any]:
    return {"type": "error", "id": reply_id, "error": f"{type(exc).__name__}: {exc}"}


def _result_frame(reply, reply_id: Any, outcome) -> None:
    """Batcher reply callback: a submission's assignments (or failure) as its frame."""
    if isinstance(outcome, BaseException):
        reply(_error_frame(reply_id, outcome))
    else:
        reply({"type": "result", "id": reply_id, "assignments": outcome.tolist()})


# --------------------------------------------------------------------- #
# Synchronous peers
# --------------------------------------------------------------------- #
class ServiceClient:
    """Blocking TCP client for the dispatch service.

    One request/one reply by default; :meth:`submit_pipelined` writes a
    burst of submit frames before reading any reply, which is how a single
    client produces multi-submission micro-batches.  Error frames raise
    :class:`ServiceError`.

    With ``retries > 0`` the client survives connection loss: it reconnects
    with exponential backoff (re-resolving the address through
    ``address_provider``, so a supervisor-restarted service on a fresh
    ephemeral port is found) and **replays unacknowledged submits** under
    their original idempotency ``request_id``.  The server's request log
    answers replays of already-applied submits from memory, so a retried
    stream applies every job exactly once and stays bit-identical to the
    fault-free run.

    Parameters
    ----------
    host, port, timeout:
        Where to connect and the per-socket timeout, as before.
    retries:
        Extra attempts per request after a connection failure (``0``, the
        default, preserves the historical fail-fast behaviour: the original
        ``ConnectionError``/``OSError`` propagates).
    backoff:
        Base reconnect delay; attempt *i* sleeps ``backoff * 2**i``.
    client_id:
        Namespace for generated request ids.  Defaults to a random token
        when ``retries > 0``; when ``None`` and ``retries == 0`` submits
        carry no request id at all (the historical wire format).
    address_provider:
        Optional zero-argument callable returning the current ``(host,
        port)``; consulted on every (re)connect.
    connection_factory:
        Optional ``(host, port, timeout) -> FrameConnection`` hook — the
        chaos tests inject fault-wrapped connections through this.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        client_id: str | None = None,
        address_provider=None,
        connection_factory=None,
    ) -> None:
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {backoff}")
        self._timeout = timeout
        self._retries = int(retries)
        self._backoff = float(backoff)
        if client_id is None and retries > 0:
            client_id = f"client-{uuid.uuid4().hex[:12]}"
        self._client_id = client_id
        self._address_provider = (
            address_provider if address_provider is not None else lambda: (host, port)
        )
        self._connection_factory = (
            connection_factory
            if connection_factory is not None
            else lambda h, p, t: FrameConnection(
                socket.create_connection((h, p), timeout=t)
            )
        )
        self._conn = None
        self._next_id = 0
        self._request_seq = 0
        self._connect()

    def _connect(self) -> None:
        host, port = self._address_provider()
        self._conn = self._connection_factory(host, port, self._timeout)

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._conn = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _take_request_id(self) -> str | None:
        if self._client_id is None:
            return None
        self._request_seq += 1
        return f"{self._client_id}-{self._request_seq}"

    def _check(self, reply: dict[str, Any]) -> dict[str, Any]:
        if reply.get("type") == "error":
            raise ServiceError(reply.get("error", "unknown service error"))
        return reply

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one frame and block for its reply (matched by ``id``).

        Under ``retries > 0`` a connection failure reconnects (with
        backoff) and resends the same frame — request-id-carrying submits
        are therefore applied exactly once regardless of where the
        connection died.
        """
        message = dict(message)
        message.setdefault("id", self._take_id())
        for attempt in range(self._retries + 1):
            try:
                if self._conn is None:
                    self._connect()
                self._conn.send(message)
                while True:
                    reply = self._conn.recv()
                    if reply.get("id") == message["id"]:
                        return self._check(reply)
            except (ConnectionError, OSError):
                self._drop_connection()
                if attempt >= self._retries:
                    raise
                time.sleep(self._backoff * (2**attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    def submit(self, sizes) -> np.ndarray:
        """Dispatch one group of jobs; returns their server assignments."""
        sizes = np.asarray(sizes, dtype=np.float64).ravel()
        message: dict[str, Any] = {"type": "submit", "sizes": sizes.tolist()}
        request_id = self._take_request_id()
        if request_id is not None:
            message["request_id"] = request_id
        reply = self.request(message)
        return np.asarray(reply["assignments"], dtype=np.int64)

    def submit_pipelined(self, batches) -> list[np.ndarray]:
        """Submit many groups without waiting between them.

        All frames are written before any reply is read, so the groups land
        in the service queue together and the batcher can fuse them into
        real micro-batches.  Returns the per-group assignments in
        submission order.

        Under ``retries > 0`` a mid-burst connection loss reconnects and
        replays only the **unacknowledged** frames (same request ids) — the
        server's dedup log keeps the double-sent prefix from dispatching
        twice.
        """
        prepared: list[dict[str, Any]] = []
        for sizes in batches:
            sizes = np.asarray(sizes, dtype=np.float64).ravel()
            message: dict[str, Any] = {
                "type": "submit",
                "sizes": sizes.tolist(),
                "id": self._take_id(),
            }
            request_id = self._take_request_id()
            if request_id is not None:
                message["request_id"] = request_id
            prepared.append(message)
        pending = {message["id"]: message for message in prepared}
        replies: dict[int, dict[str, Any]] = {}
        attempt = 0
        while pending:
            try:
                if self._conn is None:
                    self._connect()
                for message in pending.values():
                    self._conn.send(message)
                while pending:
                    reply = self._conn.recv()
                    frame_id = reply.get("id")
                    if frame_id in pending:
                        replies[frame_id] = reply
                        del pending[frame_id]
            except (ConnectionError, OSError):
                self._drop_connection()
                if attempt >= self._retries:
                    raise
                time.sleep(self._backoff * (2**attempt))
                attempt += 1
        return [
            np.asarray(
                self._check(replies[message["id"]])["assignments"], dtype=np.int64
            )
            for message in prepared
        ]

    def stats(self) -> dict[str, Any]:
        return self.request({"type": "stats"})["stats"]

    def checkpoint(self) -> dict[str, Any]:
        """Ask the service to checkpoint; returns the state document."""
        return self.request({"type": "checkpoint"})["state"]

    def drain(self) -> int:
        """Block until the service queue is empty; returns jobs dispatched."""
        return int(self.request({"type": "drain"})["jobs_dispatched"])

    def shutdown(self) -> None:
        self.request({"type": "shutdown"})


class ServiceThread:
    """Run a :class:`DispatchService` on a dedicated event-loop thread.

    The synchronous world's handle on a live service: the test-suite, the
    examples and the soak benchmark start one, connect
    :class:`ServiceClient`\\ s to ``thread.address``, and stop it (or kill
    it hard, for the checkpoint/restore drills) when done.

    Use as a context manager::

        with ServiceThread(service) as thread:
            client = thread.client()
            assignments = client.submit([1.0, 2.0])
    """

    def __init__(
        self,
        service: DispatchService,
        host: str = "127.0.0.1",
        port: int = 0,
        start_timeout: float = 10.0,
    ) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.address: tuple[str, int] | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(start_timeout):  # pragma: no cover - defensive
            raise ConfigurationError("service thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.address = await self.service.serve(self._host, self._port)
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # pragma: no cover - startup failure
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.service.wait_closed()

        try:
            asyncio.run(main())
        except Exception:
            if not self._ready.is_set():  # pragma: no cover - startup failure
                self._ready.set()

    # ------------------------------------------------------------------ #
    def client(self, timeout: float | None = 30.0) -> ServiceClient:
        """A new blocking client connected to this service."""
        host, port = self.address
        return ServiceClient(host, port, timeout=timeout)

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """In-process request: run one protocol message on the service loop.

        Bypasses TCP entirely (the framing tests cover the wire); useful
        for driving the protocol handler directly from synchronous tests.
        """
        future = asyncio.run_coroutine_threadsafe(
            self.service.handle(dict(message)), self._loop
        )
        return future.result()

    def is_alive(self) -> bool:
        """Is the service's event-loop thread still running?"""
        return self._thread.is_alive()

    def join(self, timeout: float | None = None) -> None:
        """Wait (up to ``timeout``) for the event-loop thread to end."""
        self._thread.join(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop: flush the queue, close the endpoint, join."""
        if self._thread.is_alive() and self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(), self._loop
            ).result(timeout)
        self._thread.join(timeout)

    def graceful_stop(self, timeout: float = 30.0) -> None:
        """Drain, final checkpoint, stop, join (the supervised-exit path)."""
        if self._thread.is_alive() and self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.service.graceful_shutdown(), self._loop
            ).result(timeout)
        self._thread.join(timeout)

    def kill(self, timeout: float = 30.0) -> None:
        """Hard stop: drop the queue on the floor (crash simulation).

        Unlike :meth:`stop` this does **not** drain — queued-but-undispatched
        jobs are lost, exactly as in a process kill.  The checkpoint/restore
        tests use this to simulate a mid-stream crash.
        """
        if self._thread.is_alive() and self._loop is not None:

            def hard_stop() -> None:
                # Close the endpoint and mark closed without flushing.
                if self.service._server is not None:
                    self.service._server.close()
                self.service._closed.set()

            self._loop.call_soon_threadsafe(hard_stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
