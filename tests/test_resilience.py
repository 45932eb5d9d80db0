"""Tests for repro.resilience: fault schedules, chaos sweeps, deadlines.

The contract under test extends the cluster/service robustness story:

* a seeded :class:`FaultSchedule` is a pure function of its seed — the
  decision stream any handle incarnation sees is replayable;
* a cluster sweep driven through a :class:`ChaosTransport` — frames
  dropped, delayed, duplicated, torn, workers hung and killed — still
  emits **exactly** the fault-free row multiset, with hung workers
  recovered by the coordinator's shard deadline;
* the retrying :class:`ServiceClient` survives chaos on its connection and
  produces the bit-identical assignment stream, with the server's request
  log preventing any double dispatch;
* torn checkpoints fail loudly (:class:`CheckpointError` naming the file),
  including through ``repro serve --restore``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.cluster import run_cluster_sweep
from repro.cluster.transport import WorkerLost
from repro.cluster.worker import connect_with_retry, handle_shard_message, run_shard
from repro.errors import CheckpointError, ClusterError, ConfigurationError
from repro.experiments.cli import main
from repro.experiments.config import SweepConfig
from repro.resilience import (
    ChaosConnection,
    ChaosTransport,
    Fault,
    FaultPlan,
    FaultSchedule,
)
from repro.scheduler.dispatcher import Dispatcher
from repro.service import DispatchService, ServiceClient, ServiceThread

#: Small but multi-shard sweep: 2 protocols x 2 sizes = 4 shards, 3 trials.
SWEEP = SweepConfig(
    protocols=("adaptive", "threshold"),
    n_bins=50,
    ball_grid=(100, 200),
    trials=3,
    seed=7,
)


def row_key(row):
    return (row["shard"], row["trial"])


def assert_same_rows(actual, expected):
    """Exact multiset equality of record rows (order-independent)."""
    assert sorted(actual, key=row_key) == sorted(expected, key=row_key)


@pytest.fixture(scope="module")
def reference_rows():
    """The fault-free reference row set every chaos run must reproduce."""
    return run_cluster_sweep(SWEEP, workers=0)


# --------------------------------------------------------------------- #
# Fault schedules
# --------------------------------------------------------------------- #
class TestFaultSchedule:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(drop=0.1, delay=0.1, duplicate=0.1, hang=0.1)
        schedule = FaultSchedule(plan, seed=123)
        a = schedule.stream(3, 1)
        b = schedule.stream(3, 1)
        seq_a = [a.next_fault() for _ in range(200)]
        seq_b = [b.next_fault() for _ in range(200)]
        assert seq_a == seq_b
        assert any(fault is not None for fault in seq_a)

    def test_scopes_and_incarnations_are_independent(self):
        plan = FaultPlan(drop=0.5)
        schedule = FaultSchedule(plan, seed=9)
        seqs = [
            tuple(
                fault.kind if fault else "ok"
                for fault in (stream.next_fault() for _ in range(64))
            )
            for stream in (
                schedule.stream(0, 0),
                schedule.stream(1, 0),
                schedule.stream(0, 1),
            )
        ]
        assert len(set(seqs)) == 3  # distinct streams, not one shared one

    def test_rates_match_plan(self):
        plan = FaultPlan(drop=0.25, duplicate=0.25)
        stream = FaultSchedule(plan, seed=77).stream(0)
        kinds = [f.kind for f in (stream.next_fault() for _ in range(4000)) if f]
        drops = kinds.count("drop")
        dups = kinds.count("duplicate")
        assert 800 < drops < 1200 and 800 < dups < 1200
        assert stream.rolls == 4000

    def test_delay_magnitude_from_range(self):
        plan = FaultPlan(delay=1.0, delay_range=(0.25, 0.5))
        stream = FaultSchedule(plan, seed=5).stream(0)
        for _ in range(32):
            fault = stream.next_fault()
            assert fault.kind == "delay" and 0.25 <= fault.seconds <= 0.5
        hang = FaultSchedule(FaultPlan(hang=1.0, hang_seconds=0.75), seed=1) \
            .stream(0).next_fault()
        assert hang == Fault("hang", 0.75)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(drop=0.6, kill=0.6)  # sum > 1
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_range=(0.5, 0.1))
        with pytest.raises(ConfigurationError):
            FaultPlan(hang_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule(FaultPlan(), seed="nope")
        with pytest.raises(ConfigurationError):
            FaultSchedule("not a plan", seed=0)
        with pytest.raises(ConfigurationError):
            ChaosTransport("not a schedule")


# --------------------------------------------------------------------- #
# Deterministic hang handling (no chaos randomness)
# --------------------------------------------------------------------- #
class _HangingHandle:
    """A fake worker handle that never replies until killed.

    ``recv`` blocks until :meth:`kill` severs it — exactly how a real pipe
    recv behaves when the coordinator hard-kills a wedged worker — so the
    abandoned executor thread always unblocks and the test can't leak a
    live thread past interpreter shutdown.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.pid = None
        self._severed = threading.Event()

    def send(self, message) -> None:
        pass  # swallow the shard; never reply

    def recv(self):
        self._severed.wait()
        raise WorkerLost(f"worker {self.worker_id} killed while hung")

    def kill(self) -> None:
        self._severed.set()

    def close(self) -> None:
        self._severed.set()


class _HangingTransport:
    """Every spawned worker hangs forever: only deadlines can make progress."""

    def __init__(self) -> None:
        self.spawned = 0

    def spawn(self, worker_id: int) -> _HangingHandle:
        self.spawned += 1
        return _HangingHandle(worker_id)

    def shutdown(self) -> None:
        pass


class _BeatingHandle:
    """A fake in-process worker whose shard outlives the deadline.

    Replies with correct rows (via :func:`run_shard`, so they are
    bit-identical) but only after ``compute_seconds`` — far past the shard
    deadline — while emitting heartbeat frames every ``beat_seconds``.
    Proves the deadline measures *silence*, not shard duration.
    """

    def __init__(self, worker_id: int, compute_seconds: float, beat_seconds: float):
        self.worker_id = worker_id
        self.pid = None
        self._compute = compute_seconds
        self._beat = beat_seconds
        self._frames: list[tuple[float, dict]] = []  # (due_at, frame)
        self._severed = threading.Event()

    def send(self, message) -> None:
        if message.get("type") == "stop":
            return
        now = time.monotonic()
        shard_id = int(message["shard_id"])
        beats = int(self._compute / self._beat)
        for i in range(1, beats + 1):
            self._frames.append(
                (now + i * self._beat, {"type": "heartbeat", "shard_id": shard_id})
            )
        from repro.api.spec import SimulationSpec

        records = run_shard(SimulationSpec.from_dict(message["spec"]), shard_id)
        self._frames.append(
            (
                now + self._compute,
                {"type": "result", "shard_id": shard_id, "records": records},
            )
        )

    def recv(self):
        while not self._frames:
            if self._severed.wait(0.01):
                raise WorkerLost("killed")
        due, frame = self._frames.pop(0)
        while True:
            remaining = due - time.monotonic()
            if remaining <= 0:
                return frame
            if self._severed.wait(min(remaining, 0.01)):
                raise WorkerLost("killed")

    def kill(self) -> None:
        self._severed.set()

    def close(self) -> None:
        self._severed.set()


class _BeatingTransport:
    def __init__(self, compute_seconds: float, beat_seconds: float) -> None:
        self._compute = compute_seconds
        self._beat = beat_seconds

    def spawn(self, worker_id: int) -> _BeatingHandle:
        return _BeatingHandle(worker_id, self._compute, self._beat)

    def shutdown(self) -> None:
        pass


class _StuckSendHandle:
    """A fake in-process worker whose send may block until killed."""

    def __init__(self, worker_id: int, transport: "_StuckSendTransport") -> None:
        self.worker_id = worker_id
        self.pid = None
        self._transport = transport
        self._replies: list[dict] = []
        self._severed = threading.Event()

    def send(self, message) -> None:
        if self._transport.first_send.acquire(blocking=False):
            # The sweep's first shard send blocks for 3 s, or until killed.
            if self._severed.wait(self._transport.block_seconds):
                raise WorkerLost("killed while its send was blocked")
        from repro.api.spec import SimulationSpec

        shard_id = int(message["shard_id"])
        records = run_shard(SimulationSpec.from_dict(message["spec"]), shard_id)
        self._replies.append({"type": "result", "shard_id": shard_id, "records": records})

    def recv(self):
        if self._severed.is_set():
            raise WorkerLost("killed")
        return self._replies.pop(0)

    def kill(self) -> None:
        self._severed.set()

    def close(self) -> None:
        self._severed.set()


class _StuckSendTransport:
    def __init__(self, block_seconds: float = 3.0) -> None:
        self.block_seconds = block_seconds
        self.first_send = threading.Lock()

    def spawn(self, worker_id: int) -> _StuckSendHandle:
        return _StuckSendHandle(worker_id, self)

    def shutdown(self) -> None:
        pass


class TestShardDeadline:
    def test_blocked_send_trips_the_deadline(self, reference_rows):
        # A send that never returns used to hang the sweep: only receives
        # were bounded, so this sweep took the full 3 s block and counted
        # no hang.  Sends share the deadline now.
        stats: dict[str, int] = {}
        started = time.monotonic()
        rows = run_cluster_sweep(
            SWEEP,
            workers=2,
            transport=_StuckSendTransport(block_seconds=3.0),
            shard_deadline=0.3,
            stats=stats,
        )
        assert time.monotonic() - started < 2.5
        assert_same_rows(rows, reference_rows)
        assert stats["worker_hangs"] == 1 and stats["retries"] == 1

    def test_always_hanging_worker_exhausts_retries(self):
        import asyncio

        from repro.cluster import ClusterCoordinator

        transport = _HangingTransport()
        coordinator = ClusterCoordinator(
            SWEEP.specs(),
            workers=2,
            transport=transport,
            shard_deadline=0.15,
            max_shard_retries=2,
        )
        with pytest.raises(ClusterError, match="max_shard_retries"):
            asyncio.run(coordinator.run())
        assert coordinator.stats["worker_hangs"] >= 3  # try + 2 retries
        assert transport.spawned > 2  # hung workers were respawned

    def test_heartbeats_keep_slow_shard_alive(self, reference_rows):
        # Shard takes 0.7s against a 0.25s deadline: without heartbeats it
        # would be declared hung; with 0.1s beats it must complete cleanly.
        stats: dict[str, int] = {}
        rows = run_cluster_sweep(
            SWEEP,
            workers=2,
            transport=_BeatingTransport(compute_seconds=0.7, beat_seconds=0.1),
            shard_deadline=0.25,
            stats=stats,
        )
        assert_same_rows(rows, reference_rows)
        assert stats["worker_hangs"] == 0 and stats["worker_deaths"] == 0

    def test_deadline_requires_positive_values(self):
        with pytest.raises(ConfigurationError):
            run_cluster_sweep(SWEEP, workers=1, shard_deadline=0.0)
        with pytest.raises(ConfigurationError):
            run_cluster_sweep(
                SWEEP, workers=1, shard_deadline=1.0, heartbeat_interval=-1.0
            )

    def test_worker_emits_heartbeats_while_computing(self, monkeypatch):
        # Worker side of the liveness protocol, in isolation: a shard
        # message carrying a heartbeat interval starts a beat thread that
        # frames liveness until the (artificially slow) shard returns.
        import repro.cluster.worker as worker_mod

        def slow_shard(spec, shard_id):
            time.sleep(0.15)
            return []

        monkeypatch.setattr(worker_mod, "run_shard", slow_shard)
        frames: list[dict] = []
        message = {
            "type": "shard",
            "shard_id": 3,
            "spec": SWEEP.specs()[0].to_dict(),
            "heartbeat": 0.03,
        }
        reply = handle_shard_message(message, worker_id=4, send=frames.append)
        assert reply["type"] == "result"
        beat = {"type": "heartbeat", "shard_id": 3, "worker_id": 4}
        assert len(frames) >= 2 and all(frame == beat for frame in frames)
        # Without a send callable the beat thread is skipped entirely and
        # the reply is unchanged (the pre-resilience wire behaviour).
        assert handle_shard_message(dict(message), worker_id=4)["type"] == "result"


# --------------------------------------------------------------------- #
# Chaos sweeps: the tentpole acceptance criterion
# --------------------------------------------------------------------- #
#: The frozen seed of the 3-worker chaos sweep — chosen once, then frozen.
#: Which scheduled faults its handles meet depends on which worker takes
#: which shard, so it does not alone guarantee a hang.
CHAOS_SEED = 2015
#: The seed of the 1-worker companion sweep.  One worker receives every
#: shard in order, so its operations are fixed: this seed hangs incarnation
#: 0's first operation (the first shard's send) past the deadline and
#: duplicates incarnation 1's first, on every interleaving.
COMPANION_SEED = 2574


class TestChaosSweep:
    def test_chaos_sweep_rows_bit_identical(self, reference_rows):
        plan = FaultPlan(
            drop=0.03,
            delay=0.05,
            duplicate=0.18,
            truncate=0.04,
            hang=0.06,
            kill=0.04,
            delay_range=(0.001, 0.005),
            hang_seconds=0.8,
        )
        counts: dict[str, int] = {}
        stats = {"worker_hangs": 0}
        for workers, seed in ((3, CHAOS_SEED), (1, COMPANION_SEED)):
            transport = ChaosTransport(FaultSchedule(plan, seed=seed))
            sweep_stats: dict[str, int] = {}
            rows = run_cluster_sweep(
                SWEEP,
                workers=workers,
                transport=transport,
                shard_deadline=0.3,
                max_shard_retries=25,
                stats=sweep_stats,
            )
            assert_same_rows(rows, reference_rows)
            for kind, count in transport.fault_counts().items():
                counts[kind] = counts.get(kind, 0) + count
            stats["worker_hangs"] += sweep_stats["worker_hangs"]
        # The acceptance bar: the two sweeps must really have exercised a
        # hung worker past its deadline and a duplicated delivery.
        assert counts.get("hang", 0) >= 1, counts
        assert counts.get("duplicate", 0) >= 1, counts
        assert stats["worker_hangs"] >= 1, (stats, counts)

    def test_chaos_run_is_replayable(self):
        # Same seed, same per-incarnation decision streams — the property
        # that lets a red CI chaos run be reproduced locally.
        plan = FaultPlan(drop=0.2, duplicate=0.2, kill=0.1)
        one = FaultSchedule(plan, seed=99)
        two = FaultSchedule(plan, seed=99)
        for scope in range(4):
            for incarnation in range(3):
                s1 = one.stream(scope, incarnation)
                s2 = two.stream(scope, incarnation)
                assert [s1.next_fault() for _ in range(64)] == [
                    s2.next_fault() for _ in range(64)
                ]


@pytest.mark.slow
class TestChaosSoak:
    """Randomized chaos soak: any seed must leave the rows bit-identical.

    The seed comes from ``REPRO_CHAOS_SEED`` when set (replaying a red CI
    run) and from fresh OS entropy otherwise; either way it is written to
    ``chaos-seed.json`` (or ``$REPRO_CHAOS_SEED_FILE``) *before* the sweep
    so a failing run always leaves its seed behind for the CI artifact.
    """

    def test_randomized_chaos_sweep(self, reference_rows):
        env_seed = os.environ.get("REPRO_CHAOS_SEED")
        if env_seed is not None:
            seeds = [int(env_seed)]
        else:
            entropy = np.random.SeedSequence()
            seeds = [int(s) for s in entropy.generate_state(3)]
        seed_file = os.environ.get("REPRO_CHAOS_SEED_FILE", "chaos-seed.json")
        with open(seed_file, "w", encoding="utf-8") as fh:
            json.dump({"seeds": seeds, "sweep_seed": SWEEP.seed}, fh)
        plan = FaultPlan(
            drop=0.04,
            delay=0.05,
            duplicate=0.12,
            truncate=0.05,
            hang=0.05,
            kill=0.05,
            delay_range=(0.001, 0.01),
            hang_seconds=0.8,
        )
        for seed in seeds:
            transport = ChaosTransport(FaultSchedule(plan, seed=seed))
            rows = run_cluster_sweep(
                SWEEP,
                workers=3,
                transport=transport,
                shard_deadline=0.3,
                max_shard_retries=50,
            )
            assert_same_rows(rows, reference_rows), f"divergence at seed {seed}"
        os.remove(seed_file)  # clean pass: no artifact to keep


# --------------------------------------------------------------------- #
# Worker connect retries (satellite)
# --------------------------------------------------------------------- #
class TestConnectWithRetry:
    def test_gives_up_after_attempts(self):
        # Grab a port that is definitely closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        assert connect_with_retry(
            "127.0.0.1", port, attempts=3, backoff=0.01, timeout=1.0
        ) is None
        assert time.monotonic() - started < 5.0

    def test_survives_late_listener(self):
        # The listener appears 0.2s after the first dial: a single-attempt
        # connect would die; bounded retries must reach it.
        ready = threading.Event()
        accepted = threading.Event()
        holder: dict[str, socket.socket] = {}

        reserve = socket.socket()
        reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        reserve.bind(("127.0.0.1", 0))
        port = reserve.getsockname()[1]

        def listen_late():
            time.sleep(0.2)
            reserve.listen(1)
            ready.set()
            conn, _ = reserve.accept()
            holder["conn"] = conn
            accepted.set()

        thread = threading.Thread(target=listen_late, daemon=True)
        thread.start()
        sock = connect_with_retry(
            "127.0.0.1", port, attempts=10, backoff=0.05, timeout=5.0
        )
        try:
            assert sock is not None
            assert accepted.wait(5.0)
        finally:
            if sock is not None:
                sock.close()
            holder.get("conn") and holder["conn"].close()
            reserve.close()
            thread.join(5.0)

    def test_zero_or_negative_attempts_still_tries_once(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            sock = connect_with_retry("127.0.0.1", port, attempts=0)
            assert sock is not None
            sock.close()
        finally:
            listener.close()


# --------------------------------------------------------------------- #
# Retrying service client under connection chaos
# --------------------------------------------------------------------- #
class TestRetryingClient:
    N_SERVERS = 100
    SEED = 11

    def _service(self, **kwargs):
        return DispatchService(
            Dispatcher(self.N_SERVERS, policy="adaptive", seed=self.SEED), **kwargs
        )

    def test_request_id_dedup_is_exactly_once(self):
        with ServiceThread(self._service()) as thread:
            first = thread.request(
                {"type": "submit", "sizes": [1.0, 2.0], "request_id": "r-1"}
            )
            replay = thread.request(
                {"type": "submit", "sizes": [1.0, 2.0], "request_id": "r-1"}
            )
            assert first["type"] == "result" and "replayed" not in first
            assert replay["type"] == "result" and replay["replayed"] is True
            assert replay["assignments"] == first["assignments"]
            # Exactly once: the replay dispatched nothing.
            assert thread.service.dispatcher.jobs_dispatched == 2
            fresh = thread.request(
                {"type": "submit", "sizes": [1.0], "request_id": "r-2"}
            )
            assert fresh["type"] == "result" and "replayed" not in fresh
            assert thread.service.dispatcher.jobs_dispatched == 3

    def test_bad_request_id_rejected(self):
        with ServiceThread(self._service()) as thread:
            reply = thread.request(
                {"type": "submit", "sizes": [1.0], "request_id": 7}
            )
            assert reply["type"] == "error" and "request_id" in reply["error"]

    def test_chaotic_connection_stream_bit_identical(self):
        # The certification: a client whose every connection injects
        # scheduled faults (torn frames, dropped frames, duplicated frames)
        # still produces the fault-free assignment stream, because
        # reconnect + request-id replay is exactly-once end to end.
        reference = Dispatcher(self.N_SERVERS, policy="adaptive", seed=self.SEED)
        groups = [[float(1 + (i * 7 + j) % 5) for j in range(1 + i % 4)]
                  for i in range(60)]
        expected = [reference.dispatch_batch(np.asarray(g)) for g in groups]

        plan = FaultPlan(duplicate=0.08, truncate=0.05, drop=0.05)
        schedule = FaultSchedule(plan, seed=424)
        connections: list[ChaosConnection] = []
        counter = {"n": 0}

        def chaotic_factory(host, port, timeout):
            stream = schedule.stream(0, counter["n"])
            counter["n"] += 1
            conn = ChaosConnection(
                socket.create_connection((host, port), timeout=timeout), stream
            )
            connections.append(conn)
            return conn

        with ServiceThread(self._service()) as thread:
            host, port = thread.address
            client = ServiceClient(
                host,
                port,
                retries=40,
                backoff=0.005,
                connection_factory=chaotic_factory,
            )
            got = [client.submit(g) for g in groups]
            client.close()
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)
        faults = [fault for conn in connections for fault in conn.fault_log]
        assert faults, "chaos seed injected nothing — pick a better seed"
        assert counter["n"] > 1, "no reconnect ever happened"

    def test_pipelined_replay_after_mid_burst_cut(self):
        # Cut the connection after the burst is sent but before all replies
        # are read: the client must reconnect and replay only the
        # unacknowledged tail, and the request log must keep the replayed
        # prefix from dispatching twice.
        reference = Dispatcher(self.N_SERVERS, policy="adaptive", seed=self.SEED)
        groups = [[1.0, 2.0], [3.0], [1.5, 2.5, 3.5], [2.0]]
        expected = [reference.dispatch_batch(np.asarray(g)) for g in groups]

        class CutOnceConnection:
            """Forwards frames, then severs after reading two replies."""

            def __init__(self, inner):
                self._inner = inner
                self.reads = 0

            def send(self, message):
                self._inner.send(message)

            def recv(self):
                if self.reads == 2:
                    self.reads += 1
                    self._inner.close()
                    raise ConnectionError("synthetic mid-burst cut")
                self.reads += 1
                return self._inner.recv()

            def close(self):
                self._inner.close()

        from repro.service.framing import FrameConnection

        made: list[object] = []

        def factory(host, port, timeout):
            inner = FrameConnection(
                socket.create_connection((host, port), timeout=timeout)
            )
            conn = CutOnceConnection(inner) if not made else inner
            made.append(conn)
            return conn

        with ServiceThread(self._service()) as thread:
            host, port = thread.address
            client = ServiceClient(
                host, port, retries=5, backoff=0.01, connection_factory=factory
            )
            got = client.submit_pipelined(groups)
            client.close()
            dispatched = thread.service.dispatcher.jobs_dispatched
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)
        assert len(made) == 2  # the cut forced exactly one reconnect
        assert dispatched == sum(len(g) for g in groups)  # nothing doubled

    def test_zero_retries_keeps_failfast_contract(self):
        # The historical contract: a retry-less client propagates the raw
        # connection failure instead of silently reconnecting.
        with ServiceThread(self._service()) as thread:
            client = thread.client()
            thread.kill()
            with pytest.raises((ConnectionError, OSError)):
                for _ in range(50):
                    client.submit([1.0])
                    time.sleep(0.02)


# --------------------------------------------------------------------- #
# Torn checkpoints (satellite)
# --------------------------------------------------------------------- #
class TestCheckpointErrors:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "nowhere.json"
        with pytest.raises(CheckpointError, match="nowhere.json"):
            DispatchService.from_checkpoint(str(path))

    def test_torn_json(self, tmp_path):
        path = tmp_path / "torn.json"
        full = json.dumps(
            Dispatcher(10, policy="adaptive", seed=1).state_dict()
        )
        path.write_text(full[: len(full) // 2])
        with pytest.raises(CheckpointError, match="torn.json"):
            DispatchService.from_checkpoint(str(path))

    def test_wrong_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="list.json"):
            DispatchService.from_checkpoint(str(path))
        path2 = tmp_path / "notastate.json"
        path2.write_text('{"kind": "something-else"}')
        with pytest.raises(CheckpointError, match="notastate.json"):
            DispatchService.from_checkpoint(str(path2))

    def test_cli_restore_surfaces_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"truncated": ')
        code = main(["serve", "--restore", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.json" in captured.err and "error:" in captured.err

    def test_cli_flag_dependencies(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--checkpoint-interval", "1"])
        with pytest.raises(SystemExit):
            main(["serve", "--supervise"])
        with pytest.raises(SystemExit):
            main(
                [
                    "serve",
                    "--supervise",
                    "--checkpoint",
                    str(tmp_path / "c.json"),
                    "--restore",
                    str(tmp_path / "r.json"),
                ]
            )

    def test_dict_checkpoint_untouched_by_service_key(self):
        # A state dict carrying the service envelope restores the request
        # log and leaves the caller's dict intact.
        service = DispatchService(Dispatcher(10, policy="adaptive", seed=3))
        service.request_log.record("x-1", [4, 2])
        state = service.dispatcher.state_dict()
        state["service"] = {"requests": service.request_log.state_dict()}
        restored = DispatchService.from_checkpoint(dict(state))
        assert restored.request_log.get("x-1").tolist() == [4, 2]
        assert "service" in state  # caller's document not mutated
