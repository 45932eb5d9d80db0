"""Backpressure-aware micro-batching between submitters and the dispatcher.

The live service accepts jobs asynchronously but dispatches them through
:meth:`~repro.scheduler.Dispatcher.dispatch_batch`, whose vectorised engines
want *bulk*.  The :class:`MicroBatcher` reconciles the two: a submission is
admitted synchronously with a reply callback, and the first enqueue of an
event-loop pass schedules one flush with ``loop.call_soon``.  The flush is a
plain method: it drains **everything queued at that moment** into one
``dispatch_batch`` call and hands each submission's assignments to its reply
callback, so submissions that arrive while it runs form the next pass's
batch.  Under light traffic a batch is a few jobs and the dispatcher's
measured ``small_burst`` crossover runs it under the scalar backend, whose
kernels cost what they touch; under heavy traffic batches grow to thousands
of jobs and ride the vectorised numpy kernels — the same engines either
way, the backend picked per batch by its size, with bit-identical
assignments.  The awaitable :meth:`MicroBatcher.submit` is the same
admission with a future as its callback.

Backpressure is a bounded job count: when producers outrun the engine the
queue refuses to grow past ``max_queue_jobs`` and either **parks** the
submission (``overflow="block"``, the lossless default) until a flush frees
room, or **sheds** it (``overflow="shed"``, raising :class:`QueueOverflow`,
which the server reports as an error reply so the client can retry).

Ordering is strict FIFO over submissions — including under backpressure:
once any submission is parked on a full queue, later submissions park
behind it in arrival order rather than slipping into freed space, so a
stream of submits always produces exactly the job order (and therefore the
bit-identical assignments) of feeding the same groups to a bare dispatcher.

A submission the dispatcher would reject (a non-positive or over-``w_max``
job size under the weighted policy) is refused at admission, alone, via
:meth:`~repro.scheduler.Dispatcher.validate_sizes` — it never poisons the
micro-batch it would have been coalesced into.  Should a fused batch fail
anyway, the flush falls back to dispatching its submissions one by one so
only the offender errors (batch splits never change assignments).

Submissions may carry an idempotency ``request_id`` (the retrying client's
reconnect-replay key).  The batcher is the single arbiter of "has this id
been applied": a replayed id whose original is still *queued* or parked
joins the original's replies instead of enqueueing twice, and a committed
id is recorded into the service's :class:`~repro.service.requests.RequestLog`
**inside the flush**, so a snapshot can never contain a dispatch without
its log entry.  A checkpoint quiesces on ``flush_lock``: a flush that finds
it held waits for its release in a one-off task.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.service.telemetry import ServiceTelemetry

__all__ = ["QueueOverflow", "MicroBatcher"]

#: Default bound on queued (not yet dispatched) jobs.
DEFAULT_MAX_QUEUE_JOBS = 100_000

_OVERFLOW_POLICIES = ("block", "shed")

#: A reply callback: handed the submission's assignments, or the exception
#: that failed it, exactly once.
Reply = Callable[[Any], None]


class QueueOverflow(ReproError):
    """A submission was shed because the bounded queue is full.

    Raised only under ``overflow="shed"``; the ``"block"`` policy parks the
    submission instead.  Carries no partial state — none of the shed
    submission's jobs were enqueued.
    """


@dataclass(slots=True)
class _Submission:
    """One admitted submit: its job sizes, reply callbacks, and enqueue time."""

    sizes: np.ndarray
    replies: list[Reply]
    request_id: str | None
    enqueued_at: float = 0.0


def _settle(future: asyncio.Future, outcome: Any) -> None:
    """A reply callback that resolves ``future`` (unless its waiter left)."""
    if future.done():  # the submitter was cancelled
        return
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


class MicroBatcher:
    """Queue + flush callback turning submissions into dispatch batches.

    Parameters
    ----------
    dispatcher:
        The :class:`~repro.scheduler.Dispatcher` to drive.  The batcher is
        its only writer while running.
    max_queue_jobs:
        Bound on jobs queued and not yet dispatched (backpressure knob).
    overflow:
        ``"block"`` (default) parks submissions until the queue drains;
        ``"shed"`` fails the submission with :class:`QueueOverflow`.
    max_batch_jobs:
        Optional cap on jobs per ``dispatch_batch`` call; a longer queue is
        flushed as several consecutive batches, one per loop pass
        (bit-identical — batch splits never change assignments).  ``None``
        flushes the whole queue at once.
    total_jobs:
        Forwarded to ``dispatch_batch`` (the ``"threshold"`` policy needs
        the stream length up front; other policies ignore it).
    telemetry:
        A :class:`~repro.service.telemetry.ServiceTelemetry`; one is created
        when omitted.
    request_log:
        Optional :class:`~repro.service.requests.RequestLog`.  When given,
        submissions carrying a ``request_id`` are recorded into it as their
        micro-batch commits, and :meth:`submit` answers replayed ids from it.
        Replays of still-pending ids are deduplicated against the queue.
    """

    def __init__(
        self,
        dispatcher: Any,
        *,
        max_queue_jobs: int = DEFAULT_MAX_QUEUE_JOBS,
        overflow: str = "block",
        max_batch_jobs: int | None = None,
        total_jobs: int | None = None,
        telemetry: ServiceTelemetry | None = None,
        request_log: Any | None = None,
        clock=time.monotonic,
    ) -> None:
        if max_queue_jobs < 1:
            raise ConfigurationError(
                f"max_queue_jobs must be at least 1, got {max_queue_jobs}"
            )
        if overflow not in _OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"overflow must be one of {_OVERFLOW_POLICIES}, got {overflow!r}"
            )
        if max_batch_jobs is not None and max_batch_jobs < 1:
            raise ConfigurationError(
                f"max_batch_jobs must be positive when given, got {max_batch_jobs}"
            )
        self.dispatcher = dispatcher
        self.max_queue_jobs = int(max_queue_jobs)
        self.overflow = overflow
        self.max_batch_jobs = None if max_batch_jobs is None else int(max_batch_jobs)
        self.total_jobs = total_jobs
        self.telemetry = telemetry if telemetry is not None else ServiceTelemetry()
        self.request_log = request_log
        self._clock = clock
        self._queue: deque[_Submission] = deque()
        self._queued_jobs = 0
        # Queued-or-parked, uncommitted submissions by request id: the
        # replay of a still-pending submit joins its replies instead of
        # enqueueing again.
        self._inflight: dict[str, _Submission] = {}
        # Submissions parked on backpressure, in arrival order: a flush
        # moves them into the queue head first as room frees, so parked
        # submissions keep strict FIFO instead of being overtaken.
        self._parked: deque[_Submission] = deque()
        # Futures of drain()/stop() callers, resolved by the next flush.
        self._listeners: list[asyncio.Future] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._flush_scheduled = False
        self._unlock_task: asyncio.Task | None = None
        self._running = False
        self._stopping = False
        # Quiesces flushes for checkpoints: whoever holds this lock sees the
        # dispatcher exactly between two batches.
        self.flush_lock: asyncio.Lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Jobs queued and not yet handed to the dispatcher."""
        return self._queued_jobs

    def start(self) -> None:
        """Bind the batcher to the running event loop."""
        if self._running:
            raise ConfigurationError("batcher is already running")
        self._loop = asyncio.get_running_loop()
        self._running = True
        self._stopping = False

    async def stop(self) -> None:
        """Fail parked submissions, flush whatever is queued, then stop."""
        if not self._running:
            return
        self._stopping = True
        # Parked submissions fail cleanly instead of waiting for room that
        # will never be made.
        error = ConfigurationError("batcher stopped while blocked on backpressure")
        while self._parked:
            self._fail(self._parked.popleft(), error)
        await self.drain()
        self._running = False

    async def drain(self) -> None:
        """Wait until every queued or parked job has been dispatched."""
        if not self._running:
            return
        while self._queue or self._parked:
            listener = self._loop.create_future()
            self._listeners.append(listener)
            await listener

    # ------------------------------------------------------------------ #
    async def submit(self, sizes, request_id: str | None = None) -> np.ndarray:
        """Queue one submission and wait for its server assignments.

        Returns the per-job server indices, in the submission's job order —
        exactly the array ``dispatch_batch`` would have returned for this
        group given the stream position at dispatch time.  Sizes the
        dispatcher would reject are refused here, before enqueueing, so a
        bad submission fails alone and never taints a coalesced batch.

        A ``request_id`` makes the submission idempotent: a replay of an
        already-committed id returns the recorded assignments without
        dispatching anything, and a replay of a still-pending id resolves
        with the original — either way the jobs are applied exactly once.
        """
        if not self._running or self._stopping:
            raise ConfigurationError("batcher is not accepting submissions")
        if request_id is not None and self.request_log is not None:
            recorded = self.request_log.get(request_id)
            if recorded is not None:
                return recorded
        future = self._loop.create_future()
        self.admit(sizes, partial(_settle, future), request_id)
        return await future

    def admit(self, sizes, reply: Reply, request_id: str | None = None) -> None:
        """Admit one submission now; ``reply`` gets its outcome exactly once.

        ``reply`` is called with the assignments — at once for an empty
        submission, otherwise from the flush that dispatches it — or with
        the exception that failed the dispatch.  A submission refused at
        admission (batcher stopped, sizes the dispatcher rejects, a full
        queue under ``overflow="shed"``) raises instead, and ``reply`` is
        never called.  A replay of a pending ``request_id`` shares the
        original's outcome.
        """
        if not self._running or self._stopping:
            raise ConfigurationError("batcher is not accepting submissions")
        sizes = np.asarray(sizes, dtype=np.float64).ravel()
        if request_id is not None:
            pending = self._inflight.get(request_id)
            if pending is not None:
                pending.replies.append(reply)
                return
        if sizes.size == 0:
            reply(np.empty(0, dtype=np.int64))
            return
        validate = getattr(self.dispatcher, "validate_sizes", None)
        if validate is not None:
            validate(sizes)
        submission = _Submission(sizes, [reply], request_id)
        if not self._parked and self._has_room(sizes.size):
            self._enqueue(submission)
        elif self.overflow == "shed":
            self.telemetry.record_shed(sizes.size)
            raise QueueOverflow(
                f"queue full ({self._queued_jobs}/{self.max_queue_jobs} "
                f"jobs): shed a {sizes.size}-job submission"
            )
        else:
            self._parked.append(submission)
            if request_id is not None:
                self._inflight[request_id] = submission

    def _has_room(self, n_jobs: int) -> bool:
        """Can an ``n_jobs`` submission be enqueued right now?

        An oversized submission is admitted alone on an empty queue rather
        than deadlocking on room that can never exist.
        """
        return self._queued_jobs + n_jobs <= self.max_queue_jobs or (
            self._queued_jobs == 0 and n_jobs > self.max_queue_jobs
        )

    def _enqueue(self, submission: _Submission) -> None:
        """Append one admitted submission and schedule the pass's flush."""
        submission.enqueued_at = self._clock()
        self._queue.append(submission)
        self._queued_jobs += int(submission.sizes.size)
        if submission.request_id is not None:
            self._inflight[submission.request_id] = submission
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _commit_request(self, submission: _Submission, assignments) -> None:
        """Record a committed idempotent submission.

        Recording inside the flush — not when the submitter observes the
        reply — is what keeps the request log checkpoint-consistent with
        the dispatcher state a quiesced checkpoint captures.
        """
        if submission.request_id is None:
            return
        if self.request_log is not None:
            self.request_log.record(submission.request_id, assignments)
        self._inflight.pop(submission.request_id, None)

    def _fail(self, submission: _Submission, exc: BaseException) -> None:
        """Hand one submission's failure to every reply waiting on it."""
        if submission.request_id is not None:
            self._inflight.pop(submission.request_id, None)
        for reply in submission.replies:
            reply(exc)

    # ------------------------------------------------------------------ #
    def _flush(self) -> None:
        """The pass's flush: dispatch one micro-batch unless quiesced."""
        if self.flush_lock.locked():
            # A checkpoint holds the dispatcher still; flush once it lets go.
            self._unlock_task = self._loop.create_task(self._flush_when_unlocked())
            return
        self._flush_scheduled = False
        self._flush_once()

    async def _flush_when_unlocked(self) -> None:
        async with self.flush_lock:
            self._flush_scheduled = False
            self._flush_once()

    def _flush_once(self) -> None:
        """Dispatch one micro-batch: everything queued, up to the batch cap."""
        batch: list[_Submission] = []
        jobs = 0
        while self._queue:
            if (
                self.max_batch_jobs is not None
                and batch
                and jobs + self._queue[0].sizes.size > self.max_batch_jobs
            ):
                break
            submission = self._queue.popleft()
            batch.append(submission)
            jobs += submission.sizes.size
        if not batch:
            return
        sizes = (
            batch[0].sizes
            if len(batch) == 1
            else np.concatenate([s.sizes for s in batch])
        )
        started = self._clock()
        try:
            assignments = self.dispatcher.dispatch_batch(
                sizes, total_jobs=self.total_jobs
            )
        except Exception as exc:
            # The admission checks should have caught any bad submission at
            # submit time; if one slipped through anyway, don't fail the
            # innocent submissions fused into the same batch — re-dispatch
            # them one by one so only the offender errors (batch splits
            # never change assignments, and a rejected dispatch leaves the
            # dispatcher untouched).
            self._release(jobs)
            if len(batch) == 1:
                self._fail(batch[0], exc)
            else:
                self._dispatch_individually(batch)
            return
        finished = self._clock()
        self._release(jobs)
        offset = 0
        for submission in batch:
            end = offset + submission.sizes.size
            self._commit_request(submission, assignments[offset:end])
            for reply in submission.replies:
                reply(assignments[offset:end])
            offset = end
        self.telemetry.record_batch(
            finished - np.array([s.enqueued_at for s in batch]).repeat(
                [s.sizes.size for s in batch]
            ),
            finished - started,
        )

    def _release(self, jobs: int) -> None:
        """Free a flushed batch's room: unpark, reschedule, wake listeners."""
        self._queued_jobs -= jobs
        while self._parked and self._has_room(self._parked[0].sizes.size):
            self._enqueue(self._parked.popleft())
        if self._queue and not self._flush_scheduled:
            # The rest (past the batch cap, or just unparked) goes next pass.
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)
        if self._listeners:
            listeners, self._listeners = self._listeners, []
            for listener in listeners:
                if not listener.done():
                    listener.set_result(None)

    def _dispatch_individually(self, batch: list[_Submission]) -> None:
        """Fallback after a failed fused batch: one dispatch per submission.

        Each surviving submission gets exactly the assignments its group
        would have received in the fused call; a failing one carries its
        own exception to its own submitter and nobody else.
        """
        for submission in batch:
            started = self._clock()
            try:
                assignments = self.dispatcher.dispatch_batch(
                    submission.sizes, total_jobs=self.total_jobs
                )
            except Exception as exc:
                self._fail(submission, exc)
                continue
            finished = self._clock()
            self._commit_request(submission, assignments)
            for reply in submission.replies:
                reply(assignments)
            self.telemetry.record_batch(
                np.full(submission.sizes.size, finished - submission.enqueued_at),
                finished - started,
            )
