"""Backpressure-aware micro-batching between submitters and the dispatcher.

The live service accepts jobs asynchronously but dispatches them through
:meth:`~repro.scheduler.Dispatcher.dispatch_batch`, whose vectorised engines
want *bulk*.  The :class:`MicroBatcher` reconciles the two: submissions
enqueue jobs and park on a future; a single flush task drains **everything
queued at that moment** into one ``dispatch_batch`` call per event-loop
tick, then yields so new submissions (including those that arrived while
the engine ran) form the next tick's batch.  Under light traffic a batch is
a few jobs and the dispatcher's measured ``small_burst`` crossover runs it
under the scalar backend, whose kernels cost what they touch; under heavy
traffic batches grow to thousands of jobs and ride the vectorised numpy
kernels — the same engines either way, the backend picked per tick by batch
size, with bit-identical assignments.

Backpressure is a bounded job count: when producers outrun the engine the
queue refuses to grow past ``max_queue_jobs`` and either **blocks** the
submitter (``overflow="block"``, the lossless default) or **sheds** the
submission (``overflow="shed"``, raising :class:`QueueOverflow`, which the
server reports as an error reply so the client can retry).

Ordering is strict FIFO over submissions — including under backpressure:
once any producer is parked on a full queue, later submissions park behind
it in arrival order rather than slipping into freed space, so a stream of
submits always produces exactly the job order (and therefore the
bit-identical assignments) of feeding the same groups to a bare dispatcher.

A submission the dispatcher would reject (a non-positive or over-``w_max``
job size under the weighted policy) is refused at submit time, alone, via
:meth:`~repro.scheduler.Dispatcher.validate_sizes` — it never poisons the
micro-batch it would have been coalesced into.  Should a fused batch fail
anyway, the flush falls back to dispatching its submissions one by one so
only the offender errors (batch splits never change assignments).

Submissions may carry an idempotency ``request_id`` (the retrying client's
reconnect-replay key).  The batcher is the single arbiter of "has this id
been applied": a replayed id whose original is still *queued* shares the
original's future instead of enqueueing twice, and a committed id is
recorded into the service's :class:`~repro.service.requests.RequestLog`
**inside the flush** — under the same ``flush_lock`` checkpoints quiesce
on — so a snapshot can never contain a dispatch without its log entry.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.service.telemetry import ServiceTelemetry

__all__ = ["QueueOverflow", "MicroBatcher"]

#: Default bound on queued (not yet dispatched) jobs.
DEFAULT_MAX_QUEUE_JOBS = 100_000

_OVERFLOW_POLICIES = ("block", "shed")


class QueueOverflow(ReproError):
    """A submission was shed because the bounded queue is full.

    Raised only under ``overflow="shed"``; the ``"block"`` policy suspends
    the submitter instead.  Carries no partial state — none of the shed
    submission's jobs were enqueued.
    """


@dataclass
class _Submission:
    """One queued submit call: its job sizes, arrival time, and reply future."""

    sizes: np.ndarray
    enqueued_at: float
    future: asyncio.Future
    request_id: str | None = None


class MicroBatcher:
    """Queue + flush loop turning async submissions into dispatch batches.

    Parameters
    ----------
    dispatcher:
        The :class:`~repro.scheduler.Dispatcher` to drive.  The batcher is
        its only writer while running.
    max_queue_jobs:
        Bound on jobs queued and not yet dispatched (backpressure knob).
    overflow:
        ``"block"`` (default) suspends submitters until the queue drains;
        ``"shed"`` fails the submission with :class:`QueueOverflow`.
    max_batch_jobs:
        Optional cap on jobs per ``dispatch_batch`` call; a longer queue is
        flushed as several consecutive batches (bit-identical — batch splits
        never change assignments).  ``None`` flushes the whole queue per
        tick.
    total_jobs:
        Forwarded to ``dispatch_batch`` (the ``"threshold"`` policy needs
        the stream length up front; other policies ignore it).
    telemetry:
        A :class:`~repro.service.telemetry.ServiceTelemetry`; one is created
        when omitted.
    request_log:
        Optional :class:`~repro.service.requests.RequestLog`.  When given,
        submissions carrying a ``request_id`` are recorded into it as their
        micro-batch commits (under ``flush_lock``), and replayed ids are
        deduplicated — against the log for committed submits and against
        the in-flight queue for still-pending ones.
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
        # Queued-but-uncommitted submissions by request id: the replay of a
        # still-pending submit must share its future, not enqueue again.
        self._inflight: dict[str, _Submission] = {}
        # Producers parked on backpressure, in arrival order: the head is
        # the only one allowed to enqueue when room frees, so blocked
        # submissions keep strict FIFO instead of being overtaken.
        self._waiters: deque[object] = deque()
        self._running = False
        self._stopping = False
        self._task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._changed: asyncio.Condition | None = None
        # Serialises flush ticks against checkpoint quiescing: whoever holds
        # this lock sees the dispatcher exactly between two batches.
        self.flush_lock: asyncio.Lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Jobs queued and not yet handed to the dispatcher."""
        return self._queued_jobs

    def start(self) -> None:
        """Start the flush task on the running event loop."""
        if self._running:
            raise ConfigurationError("batcher is already running")
        self._wake = asyncio.Event()
        self._changed = asyncio.Condition()
        self._running = True
        self._stopping = False
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Flush whatever is queued, then stop the flush task."""
        if not self._running:
            return
        self._stopping = True
        self._wake.set()
        async with self._changed:
            # Wake producers parked on backpressure so they fail cleanly
            # instead of waiting for room that will never be made.
            self._changed.notify_all()
        await self._task
        self._running = False
        self._task = None

    async def drain(self) -> None:
        """Wait until every queued job has been dispatched and replied to."""
        if not self._running:
            return
        async with self._changed:
            await self._changed.wait_for(lambda: self._queued_jobs == 0)
        # One lock round ensures an in-flight flush (which already popped
        # the queue) has also resolved its futures.
        async with self.flush_lock:
            pass

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
        dispatching anything, and a replay of a still-queued id awaits the
        original's future — either way the jobs are applied exactly once.
        """
        if not self._running or self._stopping:
            raise ConfigurationError("batcher is not accepting submissions")
        sizes = np.asarray(sizes, dtype=np.float64).ravel()
        if request_id is not None:
            if self.request_log is not None:
                recorded = self.request_log.get(request_id)
                if recorded is not None:
                    return recorded
            pending = self._inflight.get(request_id)
            if pending is not None:
                return await pending.future
        if sizes.size == 0:
            return np.empty(0, dtype=np.int64)
        validate = getattr(self.dispatcher, "validate_sizes", None)
        if validate is not None:
            validate(sizes)
        if not self._waiters and self._has_room(sizes.size):
            submission = self._enqueue(sizes, request_id)
        elif self.overflow == "shed":
            self.telemetry.record_shed(sizes.size)
            raise QueueOverflow(
                f"queue full ({self._queued_jobs}/{self.max_queue_jobs} "
                f"jobs): shed a {sizes.size}-job submission"
            )
        else:
            submission = await self._submit_blocking(sizes, request_id)
        return await submission.future

    def _has_room(self, n_jobs: int) -> bool:
        """Can an ``n_jobs`` submission be enqueued right now?

        An oversized submission is admitted alone on an empty queue rather
        than deadlocking on room that can never exist.
        """
        return self._queued_jobs + n_jobs <= self.max_queue_jobs or (
            self._queued_jobs == 0 and n_jobs > self.max_queue_jobs
        )

    async def _submit_blocking(
        self, sizes: np.ndarray, request_id: str | None = None
    ) -> _Submission:
        """Park until this producer is head of the waiter line *and* fits.

        The queue-count reservation happens under the condition lock, so
        concurrently parked producers cannot all wake on the same slot and
        overfill the bound; the head-of-line predicate keeps dispatch order
        equal to submission order even when later submissions would fit the
        freed space immediately.
        """
        token = object()
        self._waiters.append(token)
        async with self._changed:
            try:
                await self._changed.wait_for(
                    lambda: self._stopping
                    or (self._waiters[0] is token and self._has_room(sizes.size))
                )
                if self._stopping:
                    raise ConfigurationError(
                        "batcher stopped while blocked on backpressure"
                    )
                return self._enqueue(sizes, request_id)
            finally:
                # On success, error, or cancellation alike: leave the line
                # and let the next parked producer re-check its turn.
                self._waiters.remove(token)
                self._changed.notify_all()

    def _enqueue(self, sizes: np.ndarray, request_id: str | None = None) -> _Submission:
        """Append one reserved submission and wake the flush task (no awaits)."""
        if request_id is not None:
            # A replay can race past submit()'s dedup check while the
            # original is parked on backpressure; re-check at the enqueue
            # point, which is the single place submissions become real.
            duplicate = self._inflight.get(request_id)
            if duplicate is not None:
                return duplicate
        submission = _Submission(
            sizes=sizes,
            enqueued_at=self._clock(),
            future=asyncio.get_running_loop().create_future(),
            request_id=request_id,
        )
        self._queue.append(submission)
        self._queued_jobs += int(sizes.size)
        if request_id is not None:
            self._inflight[request_id] = submission
        self._wake.set()
        return submission

    def _commit_request(self, submission: _Submission, assignments) -> None:
        """Record a committed idempotent submission (runs under flush_lock).

        Recording inside the flush — not when the submitter observes the
        reply — is what keeps the request log checkpoint-consistent with
        the dispatcher state a quiesced checkpoint captures.
        """
        if submission.request_id is None:
            return
        if self.request_log is not None:
            self.request_log.record(submission.request_id, assignments)
        self._inflight.pop(submission.request_id, None)

    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._queue:
                async with self.flush_lock:
                    await self._flush_once()
                # Yield one loop tick so submissions that arrived while the
                # engine ran (readers, parked producers) join the next batch.
                await asyncio.sleep(0)
            if self._stopping:
                return

    async def _flush_once(self) -> None:
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
            if len(batch) == 1:
                if batch[0].request_id is not None:
                    self._inflight.pop(batch[0].request_id, None)
                if not batch[0].future.done():
                    batch[0].future.set_exception(exc)
            else:
                self._dispatch_individually(batch)
            return
        finally:
            self._queued_jobs -= jobs
            async with self._changed:
                self._changed.notify_all()
        finished = self._clock()
        offset = 0
        for submission in batch:
            end = offset + submission.sizes.size
            self._commit_request(submission, assignments[offset:end])
            if not submission.future.cancelled():
                submission.future.set_result(assignments[offset:end])
            offset = end
        self.telemetry.record_batch(
            finished - np.array([s.enqueued_at for s in batch]).repeat(
                [s.sizes.size for s in batch]
            ),
            finished - started,
        )

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
                if submission.request_id is not None:
                    self._inflight.pop(submission.request_id, None)
                if not submission.future.done():
                    submission.future.set_exception(exc)
                continue
            finished = self._clock()
            self._commit_request(submission, assignments)
            if not submission.future.cancelled():
                submission.future.set_result(assignments)
            self.telemetry.record_batch(
                np.full(submission.sizes.size, finished - submission.enqueued_at),
                finished - started,
            )
