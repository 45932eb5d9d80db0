"""Tests for the TCP cluster transport.

The contract under test: a sweep fanned out over :class:`TcpTransport`
emits exactly the row multiset of the single-process sweep — same frames,
handle and worker loop as the multiprocessing transport, including
``WorkerLost`` on a SIGKILLed worker and shard retry — because only the
socket under the connection differs.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.api import SimulationSpec
from repro.cluster import (
    MultiprocessingTransport,
    TcpTransport,
    Transport,
    WorkerHandle,
    run_cluster_sweep,
    run_shard,
)
from repro.cluster.transport import WorkerLost, check_transport
from repro.errors import ClusterError
from repro.experiments.config import SweepConfig

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
    assert sorted(actual, key=row_key) == sorted(expected, key=row_key)


@pytest.fixture(scope="module")
def reference_rows():
    return run_cluster_sweep(SWEEP, workers=0)


class TestTcpTransportProtocol:
    def test_satisfies_the_transport_protocols(self):
        transport = TcpTransport()
        try:
            assert isinstance(transport, Transport)
            assert check_transport(transport) is transport
            handle = transport.spawn(3)
            try:
                assert isinstance(handle, WorkerHandle)
                assert handle.worker_id == 3
                assert handle.pid is not None
            finally:
                handle.close()
        finally:
            transport.shutdown()

    def test_address_is_bound(self):
        transport = TcpTransport()
        host, port = transport.address
        assert host == "127.0.0.1" and port > 0
        transport.shutdown()
        transport.shutdown()  # idempotent

    def test_bad_start_method(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="start_method"):
            TcpTransport(start_method="teleport")

    def test_killed_worker_raises_worker_lost(self):
        transport = TcpTransport()
        try:
            handle = transport.spawn(0)
            try:
                os.kill(handle.pid, signal.SIGKILL)
                with pytest.raises(WorkerLost):
                    handle.send({"type": "shard", "shard_id": 0, "spec": {}})
                    handle.recv()
            finally:
                handle.close()
        finally:
            transport.shutdown()

    def test_idle_worker_outlives_its_dial_timeout(self):
        # The dial timeout must not stay on the worker's socket: an idle
        # worker waits for its next shard however long that takes.
        transport = TcpTransport(connect_timeout=0.5)
        try:
            handle = transport.spawn(0)
            try:
                time.sleep(1.5)
                spec = SimulationSpec("adaptive", 100, 50, seed=7, trials=1)
                handle.send({"type": "shard", "shard_id": 0, "spec": spec.to_dict()})
                reply = handle.recv()
                assert reply["type"] == "result"
                assert reply["records"] == run_shard(spec, 0)
            finally:
                handle.close()
        finally:
            transport.shutdown()

    def test_spawn_after_listener_closed_is_a_cluster_error(self):
        transport = TcpTransport(accept_timeout=0.5)
        transport.shutdown()
        with pytest.raises((ClusterError, OSError)):
            transport.spawn(0)


class TestTcpEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tcp_sweep_matches_in_process(self, workers, reference_rows, tmp_path):
        from repro.cluster import iter_jsonl

        out = tmp_path / "rows.jsonl"
        stats = {}
        rows = run_cluster_sweep(
            SWEEP,
            workers=workers,
            transport=TcpTransport(),
            out=str(out),
            stats=stats,
        )
        assert_same_rows(rows, reference_rows)
        assert_same_rows(list(iter_jsonl(out)), reference_rows)
        assert stats["shards_run"] == len(SWEEP.specs())
        assert stats["worker_deaths"] == 0

    def test_tcp_rows_match_multiprocessing_rows(self, reference_rows):
        tcp_rows = run_cluster_sweep(SWEEP, workers=2, transport=TcpTransport())
        mp_rows = run_cluster_sweep(
            SWEEP, workers=2, transport=MultiprocessingTransport()
        )
        assert_same_rows(tcp_rows, mp_rows)
        assert_same_rows(tcp_rows, reference_rows)


class KillingTcpTransport(TcpTransport):
    """SIGKILLs whichever worker receives the first shard, right after the send.

    Mirror of the multiprocessing fault-injection transport: the kill is
    synchronous inside ``send``, so the coordinator must observe
    ``WorkerLost`` on the recv and retry that exact shard over TCP.  Spawns
    are serialised, and the worker that is up first may run every shard
    before the other says hello, so each handle is armed and the first
    shard sent by any of them picks the one to kill.
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


class TestTcpFaultTolerance:
    def test_sigkilled_worker_shard_is_retried(self, reference_rows):
        transport = KillingTcpTransport()
        stats = {}
        rows = run_cluster_sweep(
            SWEEP, workers=2, transport=transport, stats=stats
        )
        assert transport.killed_shard is not None
        assert stats["worker_deaths"] >= 1
        assert stats["retries"] >= 1
        assert_same_rows(rows, reference_rows)
