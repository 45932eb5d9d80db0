"""Async shard coordinator with counter-based termination detection.

The coordinator turns a sweep — a list of :class:`~repro.api.SimulationSpec`
shards — into a fan-out over N workers: every worker streams each shard's
schema-v1 record rows back and takes the next pending shard as soon as it
can, so a slow cell never staples the fast ones to a barrier.

Dispatch is pipelined, not stop-and-wait.  A worker's first shard goes
alone (so the sweep's first streamed row waits on nothing else); once its
first reply is in, the worker's driver keeps a window of
:data:`_WINDOW` (two) shards on it: the one it is computing and one queued
in its pipe, so it starts the next shard without waiting for the
coordinator's round trip (a thread-pool hop to receive, the JSONL append,
a hop to send).  Only an idle driver waits on the shard queue; with a
shard in flight it tops its window up only from shards already queued,
because waiting there would never read that shard's reply and the sweep's
tail would deadlock.

Termination is detected the way the chaotic-relaxation SSSP engines do it —
two monotone counters instead of joins:

* ``active`` — shards currently in flight (incremented at dispatch,
  decremented when the dispatch *resolves*: a reply arrived or the worker
  was lost);
* ``finished`` — distinct shards completed.

The sweep is done exactly when ``finished == total`` and ``active == 0``;
whichever worker-driver observes that state broadcasts stop sentinels to
the rest.  A ``join()`` would hang on a killed worker; the counters instead
convert worker loss into "the in-flight shards are lost": every one of
them is requeued, the worker is respawned, and because shards are
deterministic functions of their spec the retry regenerates bit-identical
rows.  Only the oldest in-flight shard — the one the worker was running —
is charged a retry (``stats["retries"]``, bounded per shard by
``max_shard_retries``, then :class:`~repro.errors.ClusterError`); the one
still queued in the dead worker's pipe goes back to the queue uncharged.
Completions are deduplicated by shard id, so a transport that redelivers
(or a retry racing a slow original) can never emit a shard's rows twice.

Death is not the only failure mode: a merely *hung* worker (wedged process,
stalled link, dropped frame) produces no EOF, so EOF-based loss detection
alone would stall the sweep forever.  ``shard_deadline`` closes that hole:
while a shard is in flight the coordinator requires *some* frame — the
result, or a worker heartbeat sent every ``heartbeat_interval`` seconds
while the shard computes — within every ``shard_deadline`` window, and
every send must return within one window too (a send can block on a full
or stalled link as surely as a receive).  A window that expires means the
worker is hung; it is hard-killed and its shards go down the exact
:class:`~repro.cluster.transport.WorkerLost` path (requeue, respawn,
bit-identical retry), counted separately in ``stats["worker_hangs"]``.
Heartbeats keep long-but-healthy shards from tripping the deadline, so the
deadline can be set from acceptable *detection latency* rather than
worst-case shard runtime.

Inside the single-threaded asyncio loop the counters need no atomics — the
fetch-and-add of the HPX exemplar degenerates to plain increments — but the
protocol is the same, which is what lets a future TCP transport (or several
coordinators sharing a work queue) keep the termination argument.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.api.spec import SimulationSpec
from repro.cluster.stream import JsonlWriter, resume_scan, rewrite_jsonl
from repro.cluster.transport import (
    MultiprocessingTransport,
    WorkerLost,
    check_transport,
)
from repro.cluster.worker import run_shard
from repro.errors import ClusterError, ConfigurationError
from repro.experiments.config import SweepConfig

__all__ = ["Shard", "WorkCounters", "ClusterCoordinator", "run_cluster_sweep"]

#: Default retry budget per shard (worker deaths only; deterministic shard
#: failures abort immediately).
DEFAULT_MAX_SHARD_RETRIES = 3

#: Shards a worker holds at once after its first reply: the one it computes
#: and one queued in its pipe.  A window of 3 measured no better than 2.
_WINDOW = 2

#: Queue sentinel telling a worker driver to shut down.
_STOP = object()


class _ShardHung(WorkerLost):
    """Internal: a deadline window expired in a send or without any frame.

    A :class:`~repro.cluster.transport.WorkerLost` subtype so the driver's
    loss handling applies unchanged; the extra type only routes the handle
    teardown (hard kill — the worker may be alive but wedged, and killing
    it is also what unblocks the abandoned executor ``send`` or ``recv``)
    and the ``worker_hangs`` stat.
    """


@dataclass(frozen=True)
class Shard:
    """One unit of distributable work: a spec plus its stable id.

    The id doubles as the dedup/retry/resume key, and equals the spec's
    index in the sweep's ``specs()`` stream, so it is reproducible across
    runs of the same sweep.
    """

    shard_id: int
    spec: SimulationSpec

    @property
    def expected_rows(self) -> int:
        return self.spec.trials

    def payload(self) -> dict[str, Any]:
        return {
            "type": "shard",
            "shard_id": self.shard_id,
            "spec": self.spec.to_dict(),
        }


@dataclass
class WorkCounters:
    """The ``active`` / ``finished`` pair driving termination detection."""

    active: int = 0
    finished: int = 0

    def dispatched(self) -> None:
        self.active += 1

    def resolved(self) -> None:
        if self.active <= 0:  # pragma: no cover - invariant guard
            raise ClusterError("termination counters corrupt: active < 0")
        self.active -= 1

    def completed(self) -> None:
        self.finished += 1

    def quiescent(self, total: int) -> bool:
        """True exactly when the sweep is done: no flight, nothing missing."""
        return self.finished >= total and self.active == 0


class ClusterCoordinator:
    """Fan a shard stream over N workers and collect every row exactly once.

    Parameters
    ----------
    specs:
        The shard stream — one :class:`~repro.api.SimulationSpec` per shard.
    workers:
        Number of workers to spawn (>= 1; the in-process ``workers=0`` path
        lives in :func:`run_cluster_sweep`).
    transport:
        A :class:`~repro.cluster.transport.Transport`; defaults to
        :class:`~repro.cluster.transport.MultiprocessingTransport`.
    max_shard_retries:
        How many times a shard may be lost to worker death before the sweep
        aborts with :class:`~repro.errors.ClusterError`.  A lost worker
        charges a try only to the shard it was running, not to the one
        queued behind it.
    on_record:
        Optional callback invoked with every row as its shard completes
        (the JSONL streaming hook).
    completed_shards:
        Shard ids already done (the ``--resume`` prefix); they are skipped
        entirely and their rows are *not* re-emitted.
    shard_deadline:
        Inactivity deadline in seconds for an in-flight shard: if no frame
        (result or heartbeat) arrives within this window, or a send does not
        return within it, the worker is declared *hung*, hard-killed, and
        its shards retried exactly like a worker death.  ``None`` (default)
        disables hang detection — the pre-resilience behaviour, where only
        EOF signals loss.
    heartbeat_interval:
        How often (seconds) a worker running a shard emits heartbeat frames
        so long shards don't trip the deadline.  Defaults to a quarter of
        ``shard_deadline`` when a deadline is set; ignored without one.
    """

    def __init__(
        self,
        specs: Sequence[SimulationSpec],
        *,
        workers: int,
        transport: Any | None = None,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        on_record: Callable[[dict[str, Any]], None] | None = None,
        completed_shards: Iterable[int] = (),
        shard_deadline: float | None = None,
        heartbeat_interval: float | None = None,
    ) -> None:
        specs = list(specs)
        for index, spec in enumerate(specs):
            if not isinstance(spec, SimulationSpec):
                raise ConfigurationError(
                    f"specs[{index}]: expected a SimulationSpec, "
                    f"got {type(spec).__name__}"
                )
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ConfigurationError(
                f"workers: must be an int >= 1, got {workers!r}"
            )
        if max_shard_retries < 0:
            raise ConfigurationError(
                f"max_shard_retries: must be non-negative, got {max_shard_retries}"
            )
        if shard_deadline is not None and not shard_deadline > 0:
            raise ConfigurationError(
                f"shard_deadline: must be positive seconds, got {shard_deadline!r}"
            )
        if heartbeat_interval is not None and not heartbeat_interval > 0:
            raise ConfigurationError(
                f"heartbeat_interval: must be positive seconds, "
                f"got {heartbeat_interval!r}"
            )
        self.shard_deadline = None if shard_deadline is None else float(shard_deadline)
        if self.shard_deadline is not None and heartbeat_interval is None:
            # A quarter of the window: three missed beats before the trip.
            heartbeat_interval = self.shard_deadline / 4.0
        self.heartbeat_interval = (
            None if heartbeat_interval is None else float(heartbeat_interval)
        )
        self.shards = [Shard(i, spec) for i, spec in enumerate(specs)]
        self.workers = workers
        self.transport = check_transport(
            transport if transport is not None else MultiprocessingTransport()
        )
        self.max_shard_retries = max_shard_retries
        self.on_record = on_record
        self.counters = WorkCounters()
        self.stats: dict[str, int] = {
            "shards_run": 0,
            "worker_deaths": 0,
            "worker_hangs": 0,
            "retries": 0,
            "duplicate_results": 0,
        }
        self._resumed = set(int(s) for s in completed_shards)
        unknown = self._resumed - {shard.shard_id for shard in self.shards}
        if unknown:
            raise ConfigurationError(
                f"completed_shards: unknown shard id {sorted(unknown)[0]}"
            )
        self._completed: set[int] = set(self._resumed)
        # Resumed shards count as finished from the start — quiescence
        # compares ``finished`` against the *total* shard count.
        self.counters.finished = len(self._resumed)
        self._attempts: dict[int, int] = {}
        self._records: list[dict[str, Any]] = []
        self._handles: dict[int, Any] = {}
        self._error: BaseException | None = None
        self._stopped = False

    # ------------------------------------------------------------------ #
    def worker_pids(self) -> dict[int, int | None]:
        """Live worker ids → OS pids (fault-injection/test hook)."""
        return {wid: handle.pid for wid, handle in self._handles.items()}

    # ------------------------------------------------------------------ #
    async def run(self) -> list[dict[str, Any]]:
        """Execute every pending shard; return the newly computed rows."""
        pending = [s for s in self.shards if s.shard_id not in self._resumed]
        self._total = len(self.shards)
        if not pending:
            return []
        self._queue: asyncio.Queue = asyncio.Queue()
        for shard in pending:
            self._queue.put_nowait(shard)
        loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers + 1, thread_name_prefix="repro-cluster"
        )
        try:
            drivers = [
                loop.create_task(self._drive(wid)) for wid in range(self.workers)
            ]
            results = await asyncio.gather(*drivers, return_exceptions=True)
            for outcome in results:
                if isinstance(outcome, BaseException) and self._error is None:
                    self._error = outcome
            if self._error is not None:
                raise self._error
            if not self.counters.quiescent(self._total):  # pragma: no cover
                raise ClusterError(
                    "coordinator stopped non-quiescent: "
                    f"finished={self.counters.finished}/{self._total}, "
                    f"active={self.counters.active}"
                )
            return self._records
        finally:
            for handle in list(self._handles.values()):
                try:
                    handle.kill() if self._error is not None else handle.close()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
            self._handles.clear()
            self.transport.shutdown()
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    def _call(self, fn, *args) -> asyncio.Future:
        # A bare executor future, so ``wait_for`` wraps no task around it:
        # fewer event-loop turns per send and recv, each of which waits for
        # the GIL while forks and executor threads hold it.
        return asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)

    def _abort(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        self._broadcast_stop()

    def _broadcast_stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            for _ in range(self.workers):
                self._queue.put_nowait(_STOP)

    def _check_done(self) -> None:
        if self.counters.quiescent(self._total):
            self._broadcast_stop()

    def _complete(self, shard_id: int, records: list[dict[str, Any]]) -> None:
        """Record a shard completion; duplicates are counted and dropped."""
        if shard_id in self._completed:
            self.stats["duplicate_results"] += 1
            return
        self._completed.add(shard_id)
        self.counters.completed()
        self.stats["shards_run"] += 1
        for record in records:
            self._records.append(record)
            if self.on_record is not None:
                self.on_record(record)

    def _lose(self, in_flight: list[Shard]) -> None:
        """Requeue a lost worker's in-flight shards, charging only the oldest.

        The worker runs its shards in order, so the oldest one is the one it
        was computing; the one behind it was still queued in its pipe and
        has not cost a try.  Only the charged shard counts against
        ``max_shard_retries``.
        """
        for index, shard in enumerate(in_flight):
            self.counters.resolved()
            if shard.shard_id in self._completed:
                continue  # a stale completion beat the retry; nothing to redo
            if index == 0:
                attempts = self._attempts.get(shard.shard_id, 0) + 1
                self._attempts[shard.shard_id] = attempts
                self.stats["retries"] += 1
                if attempts > self.max_shard_retries:
                    raise ClusterError(
                        f"shard {shard.shard_id} ({shard.spec.protocol}, "
                        f"m={shard.spec.n_balls}, n={shard.spec.n_bins}) lost "
                        f"to worker death {attempts} times "
                        f"(max_shard_retries={self.max_shard_retries})"
                    )
            self._queue.put_nowait(shard)

    async def _within_deadline(self, handle, operation: str, *args) -> Any:
        """Run ``handle.<operation>`` off the loop, bounded by the deadline.

        Sends run in the executor too: a send can block (a full pipe, a
        stalled link, a chaos delay or hang), and the event loop drives
        every worker.  The executor thread stays blocked past a timeout (a
        thread cannot be cancelled); the caller's hang handling hard-kills
        the worker, which severs the pipe/socket and unblocks that thread
        with :class:`WorkerLost` — whose result is then discarded with the
        abandoned future.
        """
        future = self._call(getattr(handle, operation), *args)
        if self.shard_deadline is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout=self.shard_deadline)
        except asyncio.TimeoutError:
            raise _ShardHung(
                f"worker {handle.worker_id}: {operation} made no progress for "
                f"{self.shard_deadline:g}s (shard deadline exceeded)"
            ) from None

    async def _next_shard(self, busy: bool) -> Any:
        """The next shard to dispatch, ``_STOP``, or ``None`` for "none now".

        An idle driver waits for work; a busy one only takes what is
        already queued (see the module docstring).  Shards completed while
        they sat in the queue are skipped.
        """
        while True:
            if busy:
                if self._queue.empty():
                    return None
                shard = self._queue.get_nowait()
            else:
                shard = await self._queue.get()
            if shard is _STOP or self._error is not None:
                return _STOP
            if shard.shard_id not in self._completed:
                return shard
            self._check_done()

    async def _drive(self, worker_id: int) -> None:
        """One worker's driver: spawn it, keep its window full, absorb loss."""
        handle = await self._call(self.transport.spawn, worker_id)
        self._handles[worker_id] = handle
        in_flight: list[Shard] = []  # oldest first: the one the worker runs
        window = 1  # opens to _WINDOW once this handle's first reply is in
        while True:
            try:
                while len(in_flight) < window:
                    shard = await self._next_shard(busy=bool(in_flight))
                    if shard is _STOP:
                        return
                    if shard is None:
                        break
                    payload = shard.payload()
                    if self.heartbeat_interval is not None:
                        payload["heartbeat"] = self.heartbeat_interval
                    self.counters.dispatched()
                    in_flight.append(shard)
                    await self._within_deadline(handle, "send", payload)
                reply = await self._within_deadline(handle, "recv")
            except WorkerLost as lost:
                if isinstance(lost, _ShardHung):
                    # The worker may be alive but wedged: hard-kill it so
                    # its shards can't complete twice and the executor
                    # thread blocked in send or recv gets its EOF.
                    self.stats["worker_hangs"] += 1
                    try:
                        await self._call(handle.kill)
                    except Exception:  # pragma: no cover - already dead
                        pass
                self.stats["worker_deaths"] += 1
                try:
                    self._lose(in_flight)
                except ClusterError as exc:
                    self._abort(exc)
                    raise
                in_flight, window = [], 1
                self._check_done()
                try:
                    handle.close()
                except Exception:  # pragma: no cover - already dead
                    pass
                handle = await self._call(self.transport.spawn, worker_id)
                self._handles[worker_id] = handle
                continue
            if reply.get("type") == "heartbeat":
                # Liveness proof from a long-running shard: the deadline
                # window restarts with the next recv.
                continue
            if reply.get("type") == "error":
                self.counters.resolved()
                exc = ClusterError(
                    f"shard {reply.get('shard_id')} failed "
                    f"deterministically on worker {worker_id}: "
                    f"{reply.get('error')} (not retried — the same "
                    "spec would fail the same way)"
                )
                self._abort(exc)
                raise exc
            shard_id = int(reply["shard_id"])
            self._complete(shard_id, list(reply.get("records", [])))
            # A reply for no shard in flight here is a stale or duplicate
            # delivery, already absorbed by _complete: keep waiting.
            for index, shard in enumerate(in_flight):
                if shard.shard_id == shard_id:
                    del in_flight[index]
                    self.counters.resolved()
                    window = _WINDOW
                    self._check_done()
                    break


# --------------------------------------------------------------------- #
# Synchronous facade
# --------------------------------------------------------------------- #
def _as_specs(sweep: SweepConfig | Sequence[SimulationSpec]) -> list[SimulationSpec]:
    if isinstance(sweep, SweepConfig):
        return sweep.specs()
    return list(sweep)


def run_cluster_sweep(
    sweep: SweepConfig | Sequence[SimulationSpec],
    *,
    workers: int = 0,
    out: str | None = None,
    resume: bool = False,
    transport: Any | None = None,
    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
    on_record: Callable[[dict[str, Any]], None] | None = None,
    stats: dict[str, int] | None = None,
    shard_deadline: float | None = None,
    heartbeat_interval: float | None = None,
) -> list[dict[str, Any]]:
    """Run a sweep's shard stream, optionally fanned out over workers.

    Parameters
    ----------
    sweep:
        A :class:`~repro.experiments.config.SweepConfig` or an explicit
        list of :class:`~repro.api.SimulationSpec` shards.
    workers:
        ``0`` (default) runs every shard in-process — the single-process
        reference the distributed row multiset is certified against;
        ``N >= 1`` spawns N transport workers behind the async coordinator.
    out:
        Optional JSONL path; rows stream to it as shards complete.
    resume:
        Scan an existing ``out`` file first: shards whose full row set is
        already present are skipped (their rows are kept verbatim), partial
        tail shards are discarded and re-run.  Requires ``out``.
    transport, max_shard_retries, on_record, shard_deadline, heartbeat_interval:
        Forwarded to :class:`ClusterCoordinator` (``shard_deadline`` arms
        hung-worker detection; required for chaos schedules that can drop
        frames or hang workers).
    stats:
        Optional dict that receives the coordinator's counters
        (``shards_run``, ``worker_deaths``, ``worker_hangs``, ``retries``,
        ``duplicate_results``, plus ``shards_resumed``).

    Returns
    -------
    list of dict
        Every row of the sweep (resumed rows first, then new rows in shard
        completion order).  The row *multiset* is bit-identical for any
        ``workers`` count and any interleaving of retries; only the order
        varies.
    """
    specs = _as_specs(sweep)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 0:
        raise ConfigurationError(f"workers: must be an int >= 0, got {workers!r}")
    if resume and out is None:
        raise ConfigurationError("resume: requires an output file (out=...)")
    shards = [Shard(i, spec) for i, spec in enumerate(specs)]

    completed: set[int] = set()
    kept: list[dict[str, Any]] = []
    import os

    if resume and out is not None and os.path.exists(out):
        state = resume_scan(out, shards)
        completed, kept = state.completed, state.records
        # Drop partial-shard rows so the re-run cannot duplicate them.
        rewrite_jsonl(out, kept)

    with JsonlWriter(out, append=bool(completed or kept)) as writer:

        def emit(record: dict[str, Any]) -> None:
            writer.write(record)
            writer.flush()
            if on_record is not None:
                on_record(record)

        if workers == 0:
            run_stats = {
                "shards_run": 0,
                "worker_deaths": 0,
                "worker_hangs": 0,
                "retries": 0,
                "duplicate_results": 0,
            }
            new_records: list[dict[str, Any]] = []
            for shard in shards:
                if shard.shard_id in completed:
                    continue
                for record in run_shard(shard.spec, shard.shard_id):
                    new_records.append(record)
                    emit(record)
                run_stats["shards_run"] += 1
        else:
            coordinator = ClusterCoordinator(
                specs,
                workers=workers,
                transport=transport,
                max_shard_retries=max_shard_retries,
                on_record=emit,
                completed_shards=completed,
                shard_deadline=shard_deadline,
                heartbeat_interval=heartbeat_interval,
            )
            new_records = asyncio.run(coordinator.run())
            run_stats = coordinator.stats

    if stats is not None:
        stats.update(run_stats)
        stats["shards_resumed"] = len(completed)
    return kept + new_records
