"""Threaded shard coordinator with counter-based termination detection.

The coordinator turns a sweep — a list of :class:`~repro.api.SimulationSpec`
shards — into a fan-out over N workers: every worker streams each shard's
schema-v1 record rows back and takes the next pending shard as soon as it
can, so a slow cell never staples the fast ones to a barrier.

Each worker has one driver thread, which calls its handle's blocking
``spawn``, ``send`` and ``recv`` directly: no event loop, and no thread
pool between the driver and the pipe.

Dispatch is pipelined, not stop-and-wait.  A worker's first shard goes
alone (so the sweep's first streamed row waits on nothing else); once its
first reply is in, the worker's driver keeps a window of
:data:`_WINDOW` (two) shards on it: the one it is computing and one queued
in its pipe, so it starts the next shard without waiting for the
coordinator's round trip (the receive, the JSONL append, the next send).
Only an idle driver waits on the shard queue; with a shard in flight it
tops its window up only from shards already queued, because waiting there
would never read that shard's reply and the sweep's tail would deadlock.

Termination is detected the way the chaotic-relaxation SSSP engines do it —
two monotone counters instead of joins:

* ``active`` — shards currently in flight (incremented at dispatch,
  decremented when the dispatch *resolves*: a reply arrived or the worker
  was lost);
* ``finished`` — distinct shards completed.

The sweep is done exactly when ``finished == total`` and ``active == 0``;
whichever driver observes that state wakes the rest to stop.  A ``join()``
on a worker would hang on a killed one; the counters instead convert
worker loss into "the in-flight shards are lost": every one of them is
requeued, the worker is respawned, and because shards are deterministic
functions of their spec the retry regenerates bit-identical rows.  Only the
oldest in-flight shard — the one the worker was running — is charged a
retry (``stats["retries"]``, bounded per shard by ``max_shard_retries``,
then :class:`~repro.errors.ClusterError`); the one still queued in the dead
worker's pipe goes back to the queue uncharged.  Completions are
deduplicated by shard id, so a transport that redelivers (or a retry racing
a slow original) can never emit a shard's rows twice.

Death is not the only failure mode: a merely *hung* worker (wedged process,
stalled link, dropped frame) produces no EOF, so EOF-based loss detection
alone would stall the sweep forever.  ``shard_deadline`` closes that hole:
while a shard is in flight the coordinator requires *some* frame — the
result, or a worker heartbeat sent every ``heartbeat_interval`` seconds
while the shard computes — within every ``shard_deadline`` window, and
every send must return within one window too (a send can block on a full
or stalled link as surely as a receive).  One watchdog thread, started
only when a deadline is set, hard-kills the handle of any send or receive
that outlives its window; the kill makes the blocked call raise
:class:`~repro.cluster.transport.WorkerLost`, and its driver takes the
exact loss path (requeue, respawn, bit-identical retry), counted
separately in ``stats["worker_hangs"]``.  Heartbeats keep long-but-healthy
shards from tripping the deadline, so the deadline can be set from
acceptable *detection latency* rather than worst-case shard runtime.

The drivers share the shard queue, the counters, the dedup set, the stats
and the row sink under one lock: the fetch-and-add of the HPX exemplar
(``sync_fadd``) becomes an increment under that lock, and the termination
argument is unchanged.  ``on_record`` and the JSONL append therefore run
one call at a time, on the driver thread that received the rows.  Any
exception in a driver aborts the sweep: the other drivers are woken, every
blocked send or receive is killed, and :meth:`ClusterCoordinator.run`
re-raises the exception once every worker is gone.
"""

from __future__ import annotations

import threading
import time
from collections import deque
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

#: :meth:`ClusterCoordinator._next_shard`'s answer telling a driver to stop.
_STOP = object()


class _ShardHung(WorkerLost):
    """Internal: a send or receive was killed by the coordinator.

    The watchdog kills a call that outlived its deadline window (an abort
    kills every blocked call the same way).  A
    :class:`~repro.cluster.transport.WorkerLost` subtype, so the driver's
    loss handling applies unchanged; the extra type only routes the
    ``worker_hangs`` stat and leaves the handle's teardown to the killer.
    """


class _Call:
    """A driver's blocking send or receive, open to the watchdog and aborts.

    ``killed`` is set under the coordinator's lock by the one thread that
    claims the kill; that thread then kills the handle and owns its
    teardown, so the driver neither waits for nor repeats it.
    """

    __slots__ = ("handle", "expires", "killed")

    def __init__(self, handle: Any, expires: float) -> None:
        self.handle = handle
        self.expires = expires
        self.killed = False


def _kill(calls: list[_Call]) -> None:
    for call in calls:
        try:
            call.handle.kill()
        except Exception:  # pragma: no cover - already dead
            pass


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
        (the JSONL streaming hook).  It runs on the driver thread that
        received the rows, under the coordinator's lock, one call at a
        time; an exception it raises aborts the sweep.
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
        # What the drivers share (the state above, the queue and the calls
        # below) is read and written under this one lock; idle drivers and
        # the watchdog wait on its condition.
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: deque[Shard] = deque()
        self._calls: dict[int, _Call] = {}  # worker id -> its blocked call

    # ------------------------------------------------------------------ #
    def worker_pids(self) -> dict[int, int | None]:
        """Live worker ids → OS pids (fault-injection/test hook).

        Lock-free, so ``on_record`` (which runs under the lock) may call it.
        """
        return {wid: handle.pid for wid, handle in list(self._handles.items())}

    # ------------------------------------------------------------------ #
    def run(self) -> list[dict[str, Any]]:
        """Execute every pending shard; return the newly computed rows.

        Blocks until the sweep is done or aborted; re-raises the first
        exception of any driver (or of the calling thread, such as a
        ``KeyboardInterrupt``) after every worker has been killed.
        """
        self._total = len(self.shards)
        self._queue.extend(s for s in self.shards if s.shard_id not in self._resumed)
        if not self._queue:
            return []
        threads = [
            threading.Thread(
                target=self._drive,
                args=(wid,),
                name=f"repro-cluster-driver-{wid}",
                daemon=True,
            )
            for wid in range(self.workers)
        ]
        if self.shard_deadline is not None:
            threads.append(
                threading.Thread(
                    target=self._watch, name="repro-cluster-watchdog", daemon=True
                )
            )
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        except BaseException as exc:  # the calling thread was interrupted
            self._abort(exc)
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
            raise
        finally:
            for handle in list(self._handles.values()):
                try:
                    handle.kill() if self._error is not None else handle.close()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
            self._handles.clear()
            self.transport.shutdown()
        if self._error is not None:
            raise self._error
        if not self.counters.quiescent(self._total):  # pragma: no cover
            raise ClusterError(
                "coordinator stopped non-quiescent: "
                f"finished={self.counters.finished}/{self._total}, "
                f"active={self.counters.active}"
            )
        return self._records

    # ------------------------------------------------------------------ #
    # Shared state: every method below that takes no lock runs under it.
    # ------------------------------------------------------------------ #
    def _abort(self, exc: BaseException) -> None:
        """Stop the sweep on ``exc``: wake every driver, kill every call."""
        with self._lock:
            if self._error is None:
                self._error = exc
            self._stop()
            calls = self._claim(self._calls.values())
        _kill(calls)

    def _stop(self) -> None:
        self._stopped = True
        self._wake.notify_all()

    def _claim(self, calls: Iterable[_Call]) -> list[_Call]:
        """Take the kill of each call not already claimed by another thread."""
        claimed = [call for call in calls if not call.killed]
        for call in claimed:
            call.killed = True
        return claimed

    def _check_done(self) -> None:
        if self.counters.quiescent(self._total):
            self._stop()

    def _complete(self, shard_id: int, records: list[dict[str, Any]]) -> None:
        """Record a shard completion; duplicates are counted and dropped."""
        if shard_id in self._completed:
            self.stats["duplicate_results"] += 1
            return
        self._completed.add(shard_id)
        self.counters.completed()
        self.stats["shards_run"] += 1
        self._records.extend(records)
        if self.on_record is not None:
            for record in records:
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
            self._queue.append(shard)
        self._wake.notify_all()

    def _next_shard(self, busy: bool) -> Any:
        """The next shard to dispatch, ``_STOP``, or ``None`` for "none now".

        An idle driver waits for work; a busy one only takes what is
        already queued (see the module docstring).  Shards completed while
        they sat in the queue are skipped.
        """
        while not self._stopped:
            if self._queue:
                shard = self._queue.popleft()
                if shard.shard_id not in self._completed:
                    return shard
                self._check_done()
            elif busy:
                return None
            else:
                self._wake.wait()
        return _STOP

    # ------------------------------------------------------------------ #
    # Driver and watchdog threads
    # ------------------------------------------------------------------ #
    def _blocking(self, worker_id: int, handle: Any, operation: str, *args) -> Any:
        """``handle.<operation>(*args)``, killable by the watchdog or an abort.

        A killed call raises :class:`_ShardHung` whatever the handle did:
        its reply, if one raced the kill, is discarded with the worker,
        whose teardown belongs to the killing thread.
        """
        window = self.shard_deadline
        call = _Call(handle, time.monotonic() + window if window else 0.0)
        with self._lock:
            if self._error is not None:
                raise WorkerLost("sweep aborted")
            self._calls[worker_id] = call
        try:
            return getattr(handle, operation)(*args)
        finally:
            with self._lock:
                del self._calls[worker_id]
            if call.killed:
                raise _ShardHung(
                    f"worker {worker_id}: {operation} made no progress "
                    "within the shard deadline"
                )

    def _spawn(self, worker_id: int) -> Any:
        """Spawn worker ``worker_id``; ``None`` if the sweep stopped meanwhile."""
        handle = self.transport.spawn(worker_id)
        with self._lock:
            self._handles[worker_id] = handle
            return None if self._error is not None else handle

    def _drive(self, worker_id: int) -> None:
        """A driver thread: any exception aborts the sweep; ``run`` re-raises it."""
        try:
            self._run_worker(worker_id)
        except BaseException as exc:
            self._abort(exc)

    def _run_worker(self, worker_id: int) -> None:
        """Spawn worker ``worker_id``, keep its window full, absorb its loss."""
        handle = self._spawn(worker_id)
        in_flight: list[Shard] = []  # oldest first: the one the worker runs
        window = 1  # opens to _WINDOW once this handle's first reply is in
        while handle is not None:
            try:
                while len(in_flight) < window:
                    with self._lock:
                        shard = self._next_shard(busy=bool(in_flight))
                        if shard is _STOP:
                            return
                        if shard is None:
                            break
                        self.counters.dispatched()
                        in_flight.append(shard)
                    payload = shard.payload()
                    if self.heartbeat_interval is not None:
                        payload["heartbeat"] = self.heartbeat_interval
                    self._blocking(worker_id, handle, "send", payload)
                reply = self._blocking(worker_id, handle, "recv")
            except WorkerLost as lost:
                with self._lock:
                    if self._error is not None:
                        return  # the abort's kill, not a loss to retry
                    hung = isinstance(lost, _ShardHung)
                    if hung:
                        self.stats["worker_hangs"] += 1
                    self.stats["worker_deaths"] += 1
                    self._lose(in_flight)
                    self._check_done()
                in_flight, window = [], 1
                if not hung:  # a hung handle is the watchdog's to tear down
                    try:
                        handle.close()
                    except Exception:  # pragma: no cover - already dead
                        pass
                handle = self._spawn(worker_id)
                continue
            if reply.get("type") == "heartbeat":
                # Liveness proof from a long-running shard: the deadline
                # window restarts with the next recv.
                continue
            if reply.get("type") == "error":
                raise ClusterError(
                    f"shard {reply.get('shard_id')} failed "
                    f"deterministically on worker {worker_id}: "
                    f"{reply.get('error')} (not retried — the same "
                    "spec would fail the same way)"
                )
            shard_id = int(reply["shard_id"])
            records = list(reply.get("records", []))
            with self._lock:
                if self._error is not None:
                    return  # an aborted sweep emits no more rows
                self._complete(shard_id, records)
                # A reply for no shard in flight here is a stale or duplicate
                # delivery, already absorbed by _complete: keep waiting.
                for index, shard in enumerate(in_flight):
                    if shard.shard_id == shard_id:
                        del in_flight[index]
                        self.counters.resolved()
                        window = _WINDOW
                        self._check_done()
                        break

    def _watch(self) -> None:
        """The watchdog thread: kill each call that outlives its window."""
        while True:
            with self._lock:
                if self._stopped:
                    return
                now = time.monotonic()
                live = [call for call in self._calls.values() if not call.killed]
                expired = self._claim(call for call in live if call.expires <= now)
                if not expired:
                    wake = min(
                        (call.expires for call in live),
                        default=now + self.shard_deadline,
                    )
                    self._wake.wait(wake - now)
                    continue
            _kill(expired)


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
        ``N >= 1`` spawns N transport workers, each driven by one coordinator
        thread.
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
            new_records = coordinator.run()
            run_stats = coordinator.stats

    if stats is not None:
        stats.update(run_stats)
        stats["shards_resumed"] = len(completed)
    return kept + new_records
