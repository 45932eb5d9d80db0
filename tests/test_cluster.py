"""Tests for repro.cluster: coordinator, transports, fault tolerance, resume.

The contract under test: for any worker count, any transport interleaving,
and any number of injected worker deaths or duplicate deliveries, a cluster
sweep emits exactly the row multiset of the single-process sweep — every
shard exactly once, bit-identical rows, termination guaranteed by the
active/finished counters rather than process joins.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterCoordinator,
    MultiprocessingTransport,
    Shard,
    WorkCounters,
    iter_jsonl,
    run_cluster_sweep,
    run_shard,
)
from repro.cluster.stream import resume_scan, rewrite_jsonl
from repro.cluster.transport import WorkerLost, _WorkerHandle, check_transport
from repro.cluster.worker import handle_shard_message
from repro.errors import ClusterError, ConfigurationError
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep, run_trials

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
    """The single-process reference row set every mode must reproduce."""
    return run_cluster_sweep(SWEEP, workers=0)


# --------------------------------------------------------------------- #
# Termination counters
# --------------------------------------------------------------------- #
class TestWorkCounters:
    def test_lifecycle(self):
        counters = WorkCounters()
        assert not counters.quiescent(1)
        counters.dispatched()
        assert counters.active == 1 and not counters.quiescent(1)
        counters.completed()
        # Finished but still in flight: not quiescent yet.
        assert not counters.quiescent(1)
        counters.resolved()
        assert counters.quiescent(1)

    def test_lost_shard_keeps_sweep_live(self):
        counters = WorkCounters()
        counters.dispatched()
        counters.resolved()  # WorkerLost: resolved without completing
        assert counters.active == 0 and counters.finished == 0
        assert not counters.quiescent(1)

    def test_resolve_underflow_is_an_invariant_violation(self):
        with pytest.raises(ClusterError, match="counters corrupt"):
            WorkCounters().resolved()


# --------------------------------------------------------------------- #
# Shard execution (shared by in-process and worker paths)
# --------------------------------------------------------------------- #
class TestRunShard:
    def test_rows_match_run_trials_and_carry_provenance(self):
        spec = SWEEP.specs()[0]
        rows = run_shard(spec, 5)
        plain = run_trials(spec, as_records=True)
        assert [r["trial"] for r in rows] == list(range(spec.trials))
        assert all(r["shard"] == 5 for r in rows)
        stripped = [
            {k: v for k, v in r.items() if k not in ("shard", "trial")}
            for r in rows
        ]
        assert stripped == plain


# --------------------------------------------------------------------- #
# Equivalence: cluster rows == single-process rows, bit-identical
# --------------------------------------------------------------------- #
class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cluster_matches_in_process(self, workers, reference_rows, tmp_path):
        out = tmp_path / "rows.jsonl"
        stats = {}
        rows = run_cluster_sweep(SWEEP, workers=workers, out=str(out), stats=stats)
        assert_same_rows(rows, reference_rows)
        # The streamed JSONL holds the same multiset, JSON-round-tripped.
        assert_same_rows(list(iter_jsonl(out)), reference_rows)
        assert stats["shards_run"] == len(SWEEP.specs())
        assert stats["worker_deaths"] == 0

    def test_rows_are_full_schema_records(self, reference_rows):
        from repro.core.result import RunResult

        result = RunResult.from_record(reference_rows[0])
        assert result.protocol == SWEEP.protocols[0]
        assert result.loads.sum() == reference_rows[0]["n_balls"]

    def test_per_shard_backend_rides_the_spec(self, tmp_path):
        # A sweep pinned to the scalar backend produces the same rows
        # (backends are bit-identical) while exercising per-shard selection.
        import dataclasses

        scalar = dataclasses.replace(SWEEP, backend="scalar")
        assert all(s.backend == "scalar" for s in scalar.specs())
        rows = run_cluster_sweep(scalar, workers=2)
        assert_same_rows(rows, run_cluster_sweep(SWEEP, workers=0))

    def test_run_sweep_cluster_summaries_match(self):
        direct = run_sweep(SWEEP)
        clustered = run_sweep(SWEEP, workers=2)
        assert clustered == direct

    def test_table1_fans_out_through_the_cluster(self):
        from repro.experiments.table1 import table1_measured

        kwargs = dict(n_balls=600, n_bins=60, trials=3, seed=5)
        assert table1_measured(**kwargs, workers=2) == table1_measured(**kwargs)

    def test_run_sweep_streams_in_process(self, reference_rows, tmp_path):
        # workers=1 stays in-process but still streams rows to ``out``.
        out = tmp_path / "x.jsonl"
        assert run_sweep(SWEEP, out=str(out)) == run_sweep(SWEEP)
        assert_same_rows(list(iter_jsonl(out)), reference_rows)


# --------------------------------------------------------------------- #
# Fault injection: worker death, duplicates, retry exhaustion
# --------------------------------------------------------------------- #
class KillingTransport(MultiprocessingTransport):
    """SIGKILLs whichever worker receives the first shard, right after the send.

    Deterministic: the kill happens synchronously inside ``send``, so the
    coordinator is guaranteed to observe ``WorkerLost`` on the recv and must
    retry that exact shard.  Either worker may be the first to get a shard
    (the one that starts first can take them all), so each handle is armed
    and the first shard sent by any of them picks the one to kill.
    """

    def __init__(self):
        super().__init__()
        self.killed_shard = None
        self._first_shard = threading.Lock()

    def spawn(self, worker_id):
        handle = super().spawn(worker_id)
        orig_send = handle.send

        def send(message):
            orig_send(message)
            if message.get("type") != "shard":
                return
            with self._first_shard:
                if self.killed_shard is not None:
                    return
                self.killed_shard = message["shard_id"]
            os.kill(handle.pid, signal.SIGKILL)

        handle.send = send
        return handle


class FakeHandle:
    """In-thread fake worker; optionally delivers every reply twice."""

    def __init__(self, worker_id, duplicate=False):
        self.worker_id = worker_id
        self._duplicate = duplicate
        self._pending = []
        self._ready = threading.Semaphore(0)
        self.pid = None

    def send(self, message):
        reply = {
            "type": "result",
            "shard_id": message["shard_id"],
            "worker_id": self.worker_id,
            "records": run_shard(
                __import__("repro.api.spec", fromlist=["SimulationSpec"])
                .SimulationSpec.from_dict(message["spec"]),
                message["shard_id"],
            ),
        }
        repeats = 2 if self._duplicate else 1
        for _ in range(repeats):
            self._pending.append(json.loads(json.dumps(reply)))
            self._ready.release()

    def recv(self):
        self._ready.acquire()
        return self._pending.pop(0)

    def close(self):
        pass

    def kill(self):
        pass


class DuplicatingTransport:
    """Every shard's result is delivered twice — dedup must absorb it."""

    def spawn(self, worker_id):
        return FakeHandle(worker_id, duplicate=True)

    def shutdown(self):
        pass


class AlwaysLostTransport:
    """Workers that die on every dispatch: retries must exhaust cleanly."""

    class _Handle:
        worker_id = 0
        pid = None

        def send(self, message):
            raise WorkerLost("dead on arrival")

        def recv(self):  # pragma: no cover - send already raised
            raise WorkerLost("dead")

        def close(self):
            pass

        def kill(self):
            pass

    def spawn(self, worker_id):
        return self._Handle()

    def shutdown(self):
        pass


class TestFaultTolerance:
    def test_sigkilled_worker_shard_is_retried_exactly_once_in_rows(
        self, reference_rows, tmp_path
    ):
        out = tmp_path / "rows.jsonl"
        transport = KillingTransport()
        stats = {}
        rows = run_cluster_sweep(
            SWEEP, workers=2, transport=transport, out=str(out), stats=stats
        )
        assert transport.killed_shard is not None
        assert stats["worker_deaths"] >= 1
        assert stats["retries"] >= 1
        # The lost shard's rows appear exactly once and bit-identically.
        assert_same_rows(rows, reference_rows)
        assert_same_rows(list(iter_jsonl(out)), reference_rows)

    def test_kill_mid_stream_from_record_callback(self, reference_rows):
        # Stochastic variant: SIGKILL whichever worker is alive after the
        # first shard lands, from the coordinator's own emission callback.
        transport = MultiprocessingTransport()
        coordinator_box = {}
        killed = []

        def on_record(record):
            if not killed:
                pids = [
                    p
                    for p in coordinator_box["c"].worker_pids().values()
                    if p is not None
                ]
                if pids:
                    os.kill(pids[-1], signal.SIGKILL)
                    killed.append(pids[-1])

        coordinator = ClusterCoordinator(
            SWEEP.specs(), workers=2, transport=transport, on_record=on_record
        )
        coordinator_box["c"] = coordinator
        rows = coordinator.run()
        assert killed, "kill hook never fired"
        assert_same_rows(rows, reference_rows)

    def test_duplicate_deliveries_are_deduplicated(self, reference_rows):
        stats = {}
        rows = run_cluster_sweep(
            SWEEP, workers=2, transport=DuplicatingTransport(), stats=stats
        )
        assert stats["duplicate_results"] > 0
        assert_same_rows(rows, reference_rows)

    def test_retry_exhaustion_raises_cluster_error(self):
        with pytest.raises(ClusterError, match="worker death"):
            run_cluster_sweep(
                SWEEP,
                workers=1,
                transport=AlwaysLostTransport(),
                max_shard_retries=2,
            )

    def test_deterministic_shard_failure_aborts_without_retry(self, monkeypatch):
        # A spec the worker cannot run reports an "error" reply; the
        # coordinator must abort (retrying would fail identically).
        class ErrorHandle(FakeHandle):
            def send(self, message):
                self._pending.append(
                    {
                        "type": "error",
                        "shard_id": message["shard_id"],
                        "worker_id": self.worker_id,
                        "error": "ConfigurationError: boom",
                    }
                )
                self._ready.release()

        class ErrorTransport:
            def spawn(self, worker_id):
                return ErrorHandle(worker_id)

            def shutdown(self):
                pass

        with pytest.raises(ClusterError, match="deterministically"):
            run_cluster_sweep(SWEEP, workers=1, transport=ErrorTransport())


# --------------------------------------------------------------------- #
# Aborts and teardown: a failed sweep stops at once and leaves nothing
# --------------------------------------------------------------------- #
#: Twelve THRESHOLD shards: enough that both workers are mid-sweep when
#: the third row is emitted.
ABORT_SPECS = SweepConfig(
    protocols=("threshold",),
    n_bins=50,
    ball_grid=tuple(100 + 10 * i for i in range(12)),
    trials=3,
    seed=7,
).specs()


def cluster_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-cluster")]


def finish_within(call, timeout=30.0):
    """Run ``call()`` in a thread; fail (not hang) past ``timeout`` seconds.

    Returns ``{"result": ...}`` or ``{"error": exception}``.
    """
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except BaseException as exc:  # handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"sweep still running after {timeout} s"
    return outcome


class BadSpecTransport(MultiprocessingTransport):
    """Real worker processes that receive an invalid spec for shard 1.

    The worker's ``SimulationSpec.from_dict`` rejects it, so the worker
    replies with a deterministic ``error`` frame.
    """

    def spawn(self, worker_id):
        handle = super().spawn(worker_id)
        send = handle.send

        def corrupt(message):
            if message.get("shard_id") == 1:
                message = dict(message, spec=dict(message["spec"], n_balls=-1))
            send(message)

        handle.send = corrupt
        return handle


class TestAbortAndTeardown:
    @pytest.mark.parametrize("sink", ["on_record", "jsonl"])
    def test_failing_row_sink_aborts_the_sweep(self, sink, monkeypatch, tmp_path):
        # A driver whose row sink raised used to die with its shard still
        # counted active: quiescence never came and the other driver waited
        # on the queue forever, with both workers alive.
        from repro.cluster import coordinator
        from repro.cluster.stream import JsonlWriter

        emitted = []

        def on_record(record):
            emitted.append(record)
            if sink == "on_record" and len(emitted) == 3:
                raise RuntimeError("row sink failed")

        class FailingWriter(JsonlWriter):
            def write(self, record):
                if len(emitted) == 2:
                    raise OSError("disk full")
                super().write(record)

        if sink == "jsonl":
            monkeypatch.setattr(coordinator, "JsonlWriter", FailingWriter)
        before = set(multiprocessing.active_children())
        outcome = finish_within(
            lambda: run_cluster_sweep(
                ABORT_SPECS, workers=2, out=str(tmp_path / "rows.jsonl"), on_record=on_record
            )
        )
        expected = RuntimeError if sink == "on_record" else OSError
        assert isinstance(outcome.get("error"), expected), outcome
        assert len(emitted) < 3 * len(ABORT_SPECS)
        assert cluster_threads() == []
        assert set(multiprocessing.active_children()) <= before

    def test_drivers_share_state_without_lost_updates(self):
        # More drivers than cores, every reply delivered twice, and a
        # switch interval short enough to interleave the drivers inside
        # any unlocked read-modify-write: a lost update of the counters or
        # the dedup set would emit a shard twice or never reach quiescence.
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stats = {}
            outcome = finish_within(
                lambda: run_cluster_sweep(
                    ABORT_SPECS, workers=4, transport=DuplicatingTransport(), stats=stats
                )
            )
        finally:
            sys.setswitchinterval(interval)
        assert_same_rows(outcome["result"], run_cluster_sweep(ABORT_SPECS, workers=0))
        assert stats["shards_run"] == len(ABORT_SPECS)
        assert cluster_threads() == []

    @pytest.mark.parametrize("ending", ["success", "shard_error", "hung_retries"])
    def test_nothing_left_running(self, ending, reference_rows):
        # Whether the sweep returns, aborts on a deterministic shard error
        # or exhausts its retries on workers whose sends always hang, every
        # coordinator thread is joined and every worker process reaped.
        from repro.resilience import ChaosTransport, FaultPlan, FaultSchedule

        before = set(multiprocessing.active_children())
        kwargs = dict(workers=2)
        if ending == "shard_error":
            kwargs["transport"] = BadSpecTransport()
        elif ending == "hung_retries":
            plan = FaultPlan(hang=1.0, hang_seconds=5.0)
            kwargs.update(
                transport=ChaosTransport(FaultSchedule(plan, seed=1)),
                shard_deadline=0.2,
                max_shard_retries=1,
            )
        outcome = finish_within(lambda: run_cluster_sweep(SWEEP, **kwargs))
        if ending == "success":
            assert_same_rows(outcome["result"], reference_rows)
        elif ending == "shard_error":
            assert isinstance(outcome.get("error"), ClusterError)
            assert "deterministically" in str(outcome["error"])
        else:
            assert isinstance(outcome.get("error"), ClusterError)
            assert "max_shard_retries" in str(outcome["error"])
        assert cluster_threads() == []
        assert set(multiprocessing.active_children()) <= before


# --------------------------------------------------------------------- #
# Pipelined dispatch: two shards per worker once its first reply is in
# --------------------------------------------------------------------- #
class ScriptedTransport:
    """In-thread workers that log every send and recv and die on cue.

    ``kills`` maps an incarnation (the transport's spawn count) to the
    1-based recv call of that incarnation which raises ``WorkerLost``.  The
    log holds ``(incarnation, op, shard_id)`` in call order.
    """

    def __init__(self, kills=None):
        self.kills = dict(kills or {})
        self.log = []
        self.spawned = 0

    def spawn(self, worker_id):
        handle = ScriptedHandle(worker_id, self.spawned, self)
        self.spawned += 1
        return handle

    def shutdown(self):
        pass


class ScriptedHandle(FakeHandle):
    def __init__(self, worker_id, incarnation, transport):
        super().__init__(worker_id)
        self._incarnation = incarnation
        self._transport = transport
        self._recvs = 0

    def send(self, message):
        self._transport.log.append((self._incarnation, "send", message["shard_id"]))
        super().send(message)

    def recv(self):
        self._recvs += 1
        if self._recvs == self._transport.kills.get(self._incarnation):
            self._transport.log.append((self._incarnation, "lost", None))
            raise WorkerLost("killed on cue")
        reply = super().recv()
        self._transport.log.append((self._incarnation, "recv", reply["shard_id"]))
        return reply


def run_coordinator(coordinator):
    """Run a sweep, failing (not hanging) if it never terminates."""
    outcome = finish_within(coordinator.run, timeout=60)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestPipelinedDispatch:
    def test_first_shard_alone_then_one_queued_behind(self, reference_rows):
        transport = ScriptedTransport()
        coordinator = ClusterCoordinator(SWEEP.specs(), workers=1, transport=transport)
        rows = run_coordinator(coordinator)
        assert_same_rows(rows, reference_rows)
        assert [(op, shard) for _, op, shard in transport.log] == [
            ("send", 0),
            ("recv", 0),
            ("send", 1),
            ("send", 2),
            ("recv", 1),
            ("send", 3),
            ("recv", 2),
            ("recv", 3),
        ]

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_sweeps_shorter_than_the_windows_terminate(self, n_shards, reference_rows):
        coordinator = ClusterCoordinator(
            SWEEP.specs()[:n_shards], workers=2, transport=ScriptedTransport()
        )
        rows = run_coordinator(coordinator)
        assert_same_rows(rows, [r for r in reference_rows if r["shard"] < n_shards])
        assert coordinator.stats["shards_run"] == n_shards

    def test_worker_lost_with_two_in_flight_charges_one_retry(self):
        # Incarnation 0 dies holding shards 1 (running) and 2 (queued):
        # only shard 1 is charged.  Incarnation 1 then dies holding shard 2
        # alone, its first charge.  Had the first loss charged shard 2 too,
        # this second one would be its second and abort the sweep.
        import dataclasses

        specs = [
            dataclasses.replace(SWEEP.specs()[i % 4], seed=100 + i) for i in range(5)
        ]
        transport = ScriptedTransport(kills={0: 2, 1: 4})
        stats = {}
        rows = run_cluster_sweep(
            specs, workers=1, transport=transport, max_shard_retries=1, stats=stats
        )
        assert_same_rows(rows, run_cluster_sweep(specs, workers=0))
        assert transport.log == [
            (0, "send", 0),
            (0, "recv", 0),
            (0, "send", 1),
            (0, "send", 2),
            (0, "lost", None),
            (1, "send", 3),
            (1, "recv", 3),
            (1, "send", 4),
            (1, "send", 1),
            (1, "recv", 4),
            (1, "send", 2),
            (1, "recv", 1),
            (1, "lost", None),
            (2, "send", 2),
            (2, "recv", 2),
        ]
        assert stats["worker_deaths"] == 2
        assert stats["retries"] == 2
        assert stats["shards_run"] == 5


# --------------------------------------------------------------------- #
# Wire frames: whatever the connection delivers, recv gives a dict or
# WorkerLost
# --------------------------------------------------------------------- #
def json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=30,
    )


def nested_frames():
    """JSON nested 1 to 10^5 deep: the deep end is past the parser's limit."""
    return st.integers(1, 100_000).flatmap(
        lambda depth: st.sampled_from(
            [
                b"[" * depth + b"]" * depth,
                b'{"a":' * depth + b"1" + b"}" * depth,
                b"[" * depth,
            ]
        )
    )


def shard_replies():
    """Frames a worker really sends: results, errors and heartbeats."""
    specs = SWEEP.specs()
    shard_ids = st.integers(0, len(specs) - 1)

    def result(shard_id):
        message = {"type": "shard", "shard_id": shard_id, "spec": specs[shard_id].to_dict()}
        return handle_shard_message(message, worker_id=0)

    def error(shard_id):
        return {"type": "error", "shard_id": shard_id, "worker_id": 0, "error": "boom"}

    def heartbeat(shard_id):
        return {"type": "heartbeat", "shard_id": shard_id, "worker_id": 0}

    return st.one_of(shard_ids.map(result), shard_ids.map(error), shard_ids.map(heartbeat))


def wire_frames():
    return st.one_of(
        st.binary(max_size=64),
        json_values().map(lambda value: json.dumps(value).encode("utf-8")),
        nested_frames(),
        shard_replies().map(lambda reply: json.dumps(reply).encode("utf-8")),
    )


class _NoProcess:
    pid = None


class TestWorkerWire:
    @settings(max_examples=150, deadline=None)
    @given(frames=st.lists(wire_frames(), max_size=8))
    # Bad JSON, bad UTF-8, a JSON value that is not an object, and nesting
    # too deep to parse: each is a lost worker, not an error that aborts.
    @example(frames=[b"{not json", b"\xff\xfe", b"[1, 2]", b"[" * 100_000])
    def test_recv_gives_the_dict_sent_or_worker_lost(self, frames):
        # The frames arrive whole (the connection's length prefix keeps the
        # stream in step), so the handle alone decides what each one is.
        # A thread sends them, since a frame may outgrow the pipe's buffer.
        parent, child = multiprocessing.Pipe()
        handle = _WorkerHandle(0, _NoProcess(), parent)
        sender = threading.Thread(
            target=lambda: [child.send_bytes(data) for data in frames], daemon=True
        )
        sender.start()
        try:
            for data in frames:
                try:
                    sent = json.loads(data)
                except (ValueError, RecursionError):
                    sent = None
                if isinstance(sent, dict):
                    # As JSON text: a NaN in the frame equals no other NaN.
                    assert json.dumps(handle.recv()) == json.dumps(sent)
                else:
                    with pytest.raises(WorkerLost):
                        handle.recv()
            sender.join()
        finally:
            parent.close()
            child.close()


# --------------------------------------------------------------------- #
# Configuration errors (uniform error surface)
# --------------------------------------------------------------------- #
class TestConfigurationErrors:
    @pytest.mark.parametrize("workers", [-1, 1.5, "two", True])
    def test_bad_worker_counts(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            run_cluster_sweep(SWEEP, workers=workers)

    def test_coordinator_requires_at_least_one_worker(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ClusterCoordinator(SWEEP.specs(), workers=0)

    def test_transport_is_duck_type_checked(self):
        with pytest.raises(ConfigurationError, match="spawn"):
            check_transport(object())
        with pytest.raises(ConfigurationError, match="spawn"):
            run_cluster_sweep(SWEEP, workers=1, transport=object())

    def test_bad_start_method(self):
        with pytest.raises(ConfigurationError, match="start_method"):
            MultiprocessingTransport(start_method="teleport")

    def test_resume_requires_out(self):
        with pytest.raises(ConfigurationError, match="resume"):
            run_cluster_sweep(SWEEP, workers=0, resume=True)

    def test_specs_are_validated(self):
        with pytest.raises(ConfigurationError, match="SimulationSpec"):
            ClusterCoordinator(["nope"], workers=1)

    def test_cluster_error_is_a_simulation_error(self):
        from repro.errors import ReproError, SimulationError

        assert issubclass(ClusterError, SimulationError)
        assert issubclass(ClusterError, ReproError)


# --------------------------------------------------------------------- #
# Resume
# --------------------------------------------------------------------- #
#: Three small shards of two trials each for the resume-file fuzz.
RESUME_SHARDS = [
    Shard(i, spec)
    for i, spec in enumerate(
        SweepConfig(
            protocols=("threshold",), n_bins=50, ball_grid=(100, 110, 120), trials=2
        ).specs()
    )
]
RESUME_IDENTITY = [
    {"protocol": s.spec.protocol, "n_balls": s.spec.n_balls, "n_bins": s.spec.n_bins}
    for s in RESUME_SHARDS
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
INDICES = st.integers(-1, 3) | JSON_VALUES


@st.composite
def resume_line(draw):
    """One line of a resume file: mostly rows, some foreign or torn."""
    kind = draw(st.sampled_from(["row"] * 6 + ["foreign", "value", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=12).filter(lambda b: b"\n" not in b))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    shard = draw(st.integers(0, 2) | INDICES)
    row = {"shard": shard, "trial": draw(st.integers(0, 2) | INDICES)}
    if isinstance(shard, int) and 0 <= shard < len(RESUME_SHARDS):
        row.update(RESUME_IDENTITY[shard])
    if kind == "foreign":
        row.pop(draw(st.sampled_from(sorted(row))))
        row[draw(st.sampled_from(sorted(RESUME_IDENTITY[0])))] = draw(JSON_VALUES)
    return json.dumps(row).encode()



class TestResume:
    def _write(self, path, rows):
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")

    def test_resume_skips_complete_shards(self, reference_rows, tmp_path):
        out = tmp_path / "rows.jsonl"
        full = sorted(reference_rows, key=row_key)
        trials = SWEEP.trials
        # Keep shard 0 complete, shard 1 partial (2 of 3 trials), torn tail.
        with open(out, "w") as handle:
            for row in full[:trials]:
                handle.write(json.dumps(row) + "\n")
            for row in full[trials : trials + 2]:
                handle.write(json.dumps(row) + "\n")
            handle.write(json.dumps(full[trials + 2])[:25])  # torn line
        stats = {}
        rows = run_cluster_sweep(
            SWEEP, workers=0, out=str(out), resume=True, stats=stats
        )
        assert stats["shards_resumed"] == 1
        assert stats["shards_run"] == len(SWEEP.specs()) - 1
        assert_same_rows(rows, reference_rows)
        file_rows = list(iter_jsonl(out))
        assert_same_rows(file_rows, reference_rows)
        # No duplicated (shard, trial) pairs in the file.
        assert len({row_key(r) for r in file_rows}) == len(file_rows)

    def test_resume_with_workers(self, reference_rows, tmp_path):
        out = tmp_path / "rows.jsonl"
        full = sorted(reference_rows, key=row_key)
        self._write(out, full[: SWEEP.trials])  # shard 0 complete
        rows = run_cluster_sweep(SWEEP, workers=2, out=str(out), resume=True)
        assert_same_rows(rows, reference_rows)
        assert_same_rows(list(iter_jsonl(out)), reference_rows)

    def test_resume_of_complete_file_runs_nothing(self, reference_rows, tmp_path):
        out = tmp_path / "rows.jsonl"
        self._write(out, reference_rows)
        stats = {}
        rows = run_cluster_sweep(
            SWEEP, workers=0, out=str(out), resume=True, stats=stats
        )
        assert stats["shards_run"] == 0
        assert stats["shards_resumed"] == len(SWEEP.specs())
        assert_same_rows(rows, reference_rows)

    def test_resume_rejects_foreign_results_file(self, reference_rows, tmp_path):
        out = tmp_path / "rows.jsonl"
        alien = dict(reference_rows[0])
        alien["n_bins"] = 999  # disagrees with the sweep's spec
        self._write(out, [alien])
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_cluster_sweep(SWEEP, workers=0, out=str(out), resume=True)

    def test_mid_file_corruption_is_an_error(self, reference_rows, tmp_path):
        out = tmp_path / "rows.jsonl"
        with open(out, "w") as handle:
            handle.write("not json\n")
            handle.write(json.dumps(reference_rows[0]) + "\n")
        with pytest.raises(ConfigurationError, match="line 1"):
            run_cluster_sweep(SWEEP, workers=0, out=str(out), resume=True)

    @pytest.mark.parametrize(
        "line",
        [
            '{"shard": "x", "trial": 0}',
            '{"shard": null, "trial": 0}',
            '{"shard": 1.5, "trial": 0}',
            '{"shard": true, "trial": 0}',
            '{"shard": 0, "trial": 0.5}',
            "5",
            "[0, 1]",
            '"row"',
        ],
    )
    def test_resume_rejects_malformed_rows_naming_the_line(
        self, line, reference_rows, tmp_path
    ):
        # These used to raise ValueError / TypeError, or (shard 1.5) to be
        # read silently as shard 1.
        out = tmp_path / "rows.jsonl"
        first = sorted(reference_rows, key=row_key)[0]
        with open(out, "w") as handle:
            handle.write(json.dumps(first) + "\n" + line + "\n")
            handle.write(json.dumps(first) + "\n")
        shards = [Shard(i, s) for i, s in enumerate(SWEEP.specs())]
        with pytest.raises(ConfigurationError, match="line 2"):
            resume_scan(out, shards)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda row: row.update(n_balls=float(row["n_balls"])),
            lambda row: row.update(max_load="junk"),
            lambda row: row.pop("loads"),
        ],
        ids=["float-n_balls", "junk-max_load", "no-loads"],
    )
    def test_resume_rejects_rows_a_sweep_never_writes(
        self, corrupt, reference_rows, tmp_path
    ):
        # Such rows used to count toward a complete shard and came back from
        # the resumed sweep (the row without loads too) as if computed.
        out = tmp_path / "rows.jsonl"
        rows = [dict(row) for row in sorted(reference_rows, key=row_key)]
        corrupt(rows[1])
        self._write(out, rows[: SWEEP.trials])
        with pytest.raises(ConfigurationError, match="line 2"):
            run_cluster_sweep(SWEEP, workers=0, out=str(out), resume=True)

    def test_non_utf8_line_is_corruption(self, reference_rows, tmp_path):
        out = tmp_path / "rows.jsonl"
        with open(out, "wb") as handle:
            handle.write(b'{"shard": 0, "trial": \xff}\n')
            handle.write(json.dumps(reference_rows[0]).encode() + b"\n")
        with pytest.raises(ConfigurationError, match="line 1"):
            list(iter_jsonl(out))

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(resume_line(), max_size=12), torn=st.binary(max_size=8))
    @example(
        lines=[
            json.dumps(dict(RESUME_IDENTITY[shard], shard=shard, trial=trial)).encode()
            for shard, trial in ((0, 1), (1, 0), (0, 0), (0, 1))
        ],
        torn=b'{"sha',
    )
    def test_resume_scan_fuzz(self, lines, torn):
        # A resume file is untrusted input: it either fails with a typed
        # error or yields complete shards, each holding exactly its trials.
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "rows.jsonl")
            with open(path, "wb") as handle:
                handle.write(b"".join(line + b"\n" for line in lines) + torn)
            try:
                state = resume_scan(path, RESUME_SHARDS)
            except ConfigurationError:
                return
        kept = {}
        for row in state.records:
            kept.setdefault(row["shard"], []).append(row["trial"])
        assert set(kept) == state.completed
        for shard_id, trials in kept.items():
            assert trials == list(range(RESUME_SHARDS[shard_id].spec.trials))

    def test_resume_scan_drops_partial_and_rewrite_is_atomic(
        self, reference_rows, tmp_path
    ):
        out = tmp_path / "rows.jsonl"
        full = sorted(reference_rows, key=row_key)
        self._write(out, full[: SWEEP.trials + 1])  # shard 0 + 1 stray row
        shards = [Shard(i, s) for i, s in enumerate(SWEEP.specs())]
        state = resume_scan(out, shards)
        assert state.completed == {0}
        assert state.dropped_rows == 1
        rewrite_jsonl(out, state.records)
        assert list(iter_jsonl(out)) == full[: SWEEP.trials]


# --------------------------------------------------------------------- #
# CLI: repro sweep
# --------------------------------------------------------------------- #
class TestSweepCli:
    def run_cli(self, args):
        from repro.experiments.cli import main

        return main(["sweep"] + args)

    def test_sweep_writes_jsonl_and_summary(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = self.run_cli(
            [
                "--preset",
                "table1",
                "--scale",
                "0.05",
                "--workers",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(iter_jsonl(out))
        assert len(rows) == 20  # table1 cell: 20 trials
        captured = capsys.readouterr()
        assert "adaptive" in captured.out
        assert "worker deaths" in captured.err

    def test_cli_matches_in_process_rows(self, tmp_path):
        out0 = tmp_path / "w0.jsonl"
        out2 = tmp_path / "w2.jsonl"
        base = ["--preset", "table1", "--scale", "0.05"]
        assert self.run_cli(base + ["--workers", "0", "--out", str(out0)]) == 0
        assert self.run_cli(base + ["--workers", "2", "--out", str(out2)]) == 0
        assert_same_rows(list(iter_jsonl(out2)), list(iter_jsonl(out0)))

    def test_cli_resume(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        base = ["--preset", "table1", "--scale", "0.05", "--out", str(out)]
        assert self.run_cli(base) == 0
        full = list(iter_jsonl(out))
        with open(out, "w") as handle:  # truncate mid-shard
            for row in full[:7]:
                handle.write(json.dumps(row) + "\n")
        assert self.run_cli(base + ["--resume"]) == 0
        assert_same_rows(list(iter_jsonl(out)), full)

    def test_cli_resume_requires_out(self):
        with pytest.raises(SystemExit):
            self.run_cli(["--resume"])

    def test_cli_rejects_bad_backend(self, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(["--backend", "nope"])

    def test_cli_overrides_build_the_sweep(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        code = self.run_cli(
            [
                "--protocols",
                "greedy",
                "--n-bins",
                "40",
                "--balls",
                "80,120",
                "--trials",
                "2",
                "--seed",
                "3",
                "--scale",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(iter_jsonl(out))
        assert len(rows) == 4
        assert {r["protocol"] for r in rows} == {"greedy"}
        assert {r["n_bins"] for r in rows} == {40}
