"""Checkpoint/restore certification: bit-identical resume for every policy.

The contract under test: ``Dispatcher.state_dict()`` → JSON →
``Dispatcher.from_state()`` taken anywhere mid-stream produces a dispatcher
whose remaining assignments, per-server aggregates and probe counts are
**bit-identical** to the uninterrupted run — for all eight policies,
including the weighted ones (exact sequential work accumulation) and the
memory policy (remembered-server set).  The same holds at the service
level: kill a live service after a checkpoint, restore from the file, feed
the remaining jobs, and the combined outcome equals the never-killed run.

Both runs feed identical batch partitionings: assignments and job counts
are partition-invariant, but float ``work`` accumulation is only ulp-exact
when the batch boundaries match — the tests pin them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError, ProtocolError
from repro.runtime.probes import FixedProbeStream, probe_stream_from_state
from repro.scheduler.dispatcher import Dispatcher
from repro.service import DispatchService, RequestLog, ServiceError, ServiceThread

N_SERVERS = 200
SEED = 42

#: Every policy with the constructor extras it needs.  Weighted policies
#: get a w_max matching the job-size range below.
POLICIES: dict[str, dict] = {
    "adaptive": {},
    "threshold": {},
    "greedy": {},
    "left": {},
    "memory": {},
    "single": {},
    "weighted": {"w_max": 1.0},
    "weighted-left": {"w_max": 1.0},
}


def job_batches(n_batches: int = 5, jobs_per_batch: int = 60) -> list[np.ndarray]:
    """Deterministic per-batch job sizes in (0, 1] (valid for w_max=1)."""
    rng = np.random.default_rng(7)
    return [
        rng.uniform(0.1, 1.0, jobs_per_batch) for _ in range(n_batches)
    ]


def build(policy: str) -> Dispatcher:
    return Dispatcher(N_SERVERS, policy=policy, seed=SEED, **POLICIES[policy])


def total_jobs_of(batches) -> int:
    return int(sum(b.size for b in batches))


def roundtrip(state: dict) -> dict:
    """A checkpoint's real life: through JSON text and back."""
    return json.loads(json.dumps(state))


def over_limit_state(policy: str, **kwargs) -> dict:
    """A 1,000-server checkpoint whose every server holds 5 jobs.

    The first job's acceptance limit is 1 under both policies (at
    ``total_jobs=1000`` for threshold), so no server can take it: the
    dispatch can only fail.
    """
    state = roundtrip(Dispatcher(1000, policy=policy, **kwargs).state_dict())
    state["job_counts"] = [5] * 1000
    return state


# --------------------------------------------------------------------- #
# Dispatcher-level matrix
# --------------------------------------------------------------------- #
class TestDispatcherCheckpoint:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("split", [1, 3])
    def test_restore_is_bit_identical(self, policy, split):
        batches = job_batches()
        total = total_jobs_of(batches)

        reference = build(policy)
        expected = [
            reference.dispatch_batch(b, total_jobs=total) for b in batches
        ]

        interrupted = build(policy)
        for i, b in enumerate(batches[:split]):
            assert np.array_equal(
                interrupted.dispatch_batch(b, total_jobs=total), expected[i]
            )
        restored = Dispatcher.from_state(roundtrip(interrupted.state_dict()))
        for i in range(split, len(batches)):
            got = restored.dispatch_batch(batches[i], total_jobs=total)
            assert np.array_equal(got, expected[i]), (
                f"{policy}: batch {i} diverged after restore at split {split}"
            )
        assert np.array_equal(restored.job_counts, reference.job_counts)
        assert np.array_equal(restored.work, reference.work)
        assert restored.probes == reference.probes
        assert restored.jobs_dispatched == reference.jobs_dispatched

    def test_state_survives_at_every_boundary(self):
        # Adaptive policy, checkpoint after every single batch boundary.
        batches = job_batches(n_batches=4)
        reference = build("adaptive")
        expected = [reference.dispatch_batch(b) for b in batches]
        for split in range(len(batches) + 1):
            run = build("adaptive")
            for b in batches[:split]:
                run.dispatch_batch(b)
            restored = Dispatcher.from_state(roundtrip(run.state_dict()))
            for i in range(split, len(batches)):
                assert np.array_equal(
                    restored.dispatch_batch(batches[i]), expected[i]
                )

    def test_state_dict_is_strict_json(self):
        dispatcher = build("weighted")
        dispatcher.dispatch_batch(job_batches(1)[0])
        json.dumps(dispatcher.state_dict(), allow_nan=False)

    def test_restored_config_round_trips(self):
        dispatcher = Dispatcher(
            50, policy="adaptive", d=3, k=2, seed=9, small_burst=17,
            backend="scalar",
        )
        dispatcher.dispatch_batch(np.full(10, 1.0))
        restored = Dispatcher.from_state(roundtrip(dispatcher.state_dict()))
        assert restored.n_servers == 50
        assert restored.d == 3 and restored.k == 2
        assert restored._backend.name == "scalar"

    def test_memory_policy_remembers_across_restore(self):
        # The memory policy's remembered server must survive the round-trip:
        # drop it from the state and the continuation diverges.
        batches = job_batches()
        reference = build("memory")
        expected = [reference.dispatch_batch(b) for b in batches]
        run = build("memory")
        for b in batches[:2]:
            run.dispatch_batch(b)
        state = roundtrip(run.state_dict())
        assert state["memory"] is not None
        restored = Dispatcher.from_state(state)
        assert np.array_equal(restored.dispatch_batch(batches[2]), expected[2])


# --------------------------------------------------------------------- #
# Probe-stream state
# --------------------------------------------------------------------- #
class TestProbeStreamState:
    def test_fixed_stream_round_trip(self):
        choices = np.arange(20) % 5
        stream = FixedProbeStream(5, choices)
        first = stream.take(8)
        restored = probe_stream_from_state(roundtrip(stream.state_dict()))
        assert np.array_equal(restored.take(12), choices[8:])
        assert np.array_equal(first, choices[:8])

    def test_unknown_stream_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown probe stream"):
            probe_stream_from_state({"stream": "quantum", "n_bins": 4})

    def test_dispatcher_with_fixed_stream_checkpoints(self):
        # FixedProbeStream rides the dispatcher state like the RNG stream.
        choices = np.tile(np.arange(10), 20)
        reference = Dispatcher(
            10, policy="greedy", probe_stream=FixedProbeStream(10, choices)
        )
        sizes = np.full(40, 1.0)
        expected = [reference.dispatch_batch(sizes) for _ in range(2)]
        run = Dispatcher(
            10, policy="greedy", probe_stream=FixedProbeStream(10, choices)
        )
        run.dispatch_batch(sizes)
        restored = Dispatcher.from_state(roundtrip(run.state_dict()))
        assert np.array_equal(restored.dispatch_batch(sizes), expected[1])


# --------------------------------------------------------------------- #
# Error surface
# --------------------------------------------------------------------- #
class TestCheckpointErrors:
    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="dispatcher-state"):
            Dispatcher.from_state({"kind": "something-else"})
        with pytest.raises(ConfigurationError, match="dispatcher-state"):
            Dispatcher.from_state("not even a dict")

    def test_wrong_version_rejected(self):
        dispatcher = build("adaptive")
        state = dispatcher.state_dict()
        state["version"] = 999
        with pytest.raises(ConfigurationError, match="version"):
            Dispatcher.from_state(state)

    def test_corrupt_arrays_rejected(self):
        dispatcher = build("adaptive")
        dispatcher.dispatch_batch(np.full(5, 1.0))
        state = dispatcher.state_dict()
        state["job_counts"] = state["job_counts"][:-1]  # wrong length
        with pytest.raises(ConfigurationError, match="do not match n_servers"):
            Dispatcher.from_state(state)

    @pytest.mark.parametrize(
        "k,memory",
        [
            (1, [-1]),  # a negative id would alias server n - 1
            (1, [8]),  # past the last server: IndexError on the next batch
            (1, [0, 1, 2]),  # more servers than the policy remembers
            (2, [3, 3]),  # the remembered set holds distinct servers
        ],
        ids=["negative", "past-last-server", "more-than-k", "repeated"],
    )
    def test_bad_remembered_set_rejected(self, k, memory):
        dispatcher = Dispatcher(8, policy="memory", k=k, seed=3)
        dispatcher.dispatch_batch(np.full(5, 1.0))
        state = dispatcher.state_dict()
        state["memory"] = memory
        with pytest.raises(ConfigurationError, match="memory"):
            Dispatcher.from_state(roundtrip(state))

    @pytest.mark.parametrize("small_burst", [None, 0])
    @pytest.mark.parametrize("policy", ["adaptive", "threshold"])
    def test_over_limit_restore_fails_before_probing(self, policy, small_burst):
        """A restored state no server can accept from fails, never hangs.

        Both routes reach the window capacity check, so the dispatch raises
        before drawing a probe.  The finite stream bounds a loop that skips
        the check: it would drain all 5,000 probes and report exhaustion.
        """
        choices = np.random.default_rng(1).integers(0, 1000, size=5000)
        state = over_limit_state(
            policy,
            small_burst=small_burst,
            probe_stream=FixedProbeStream(1000, choices),
        )
        restored = Dispatcher.from_state(state)
        with pytest.raises(ProtocolError, match="capacity"):
            restored.dispatch_batch(np.ones(1), total_jobs=1000)
        after = restored.state_dict()
        assert after["probe_stream"]["consumed"] == 0
        assert after["probe_stream"] == state["probe_stream"]
        assert after["job_counts"] == state["job_counts"]
        assert after["probes"] == 0


# --------------------------------------------------------------------- #
# Impossible counters and request-log entries
# --------------------------------------------------------------------- #
def genuine_state(policy: str, **extra) -> dict:
    dispatcher = Dispatcher(
        N_SERVERS, policy=policy, seed=SEED, **{**POLICIES.get(policy, {}), **extra}
    )
    for b in job_batches(n_batches=2):
        dispatcher.dispatch_batch(b, total_jobs=1000)
    return roundtrip(dispatcher.state_dict())


def with_service_log(state: dict, entries: list) -> dict:
    log = RequestLog()
    log.record("ok", [1, 2])
    requests = log.state_dict()
    requests["entries"] = requests["entries"] + entries
    return {**state, "service": {"requests": requests}}


class TestRestoreValidation:
    def test_found_example_is_rejected(self):
        # Every counter negative or NaN: this state used to dispatch, leave
        # job_counts[0] at -2 and probes at -3, and raise nothing.
        dispatcher = Dispatcher(10, policy="adaptive", seed=SEED)
        state = roundtrip(dispatcher.state_dict())
        state["job_counts"] = [-3] * 10
        state["work"] = [float("nan")] * 10
        state["probes"] = -7
        with pytest.raises(ConfigurationError, match="negative count"):
            Dispatcher.from_state(state)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("job_counts", lambda s: [-1] + s["job_counts"][1:], "negative count"),
            ("jobs_dispatched", lambda s: s["jobs_dispatched"] + 1, "jobs_dispatched"),
            ("jobs_dispatched", lambda s: -1, "jobs_dispatched"),
            ("probes", lambda s: s["jobs_dispatched"] - 1, "probes"),
            ("probes", lambda s: -7, "probes"),
        ],
        ids=["negative-count", "more-jobs-than-counted", "negative-jobs",
             "fewer-probes-than-jobs", "negative-probes"],
    )
    @pytest.mark.parametrize("policy", ["adaptive", "weighted"])
    def test_impossible_counter_rejected(self, policy, field, value, match):
        state = genuine_state(policy)
        state[field] = value(state)
        with pytest.raises(ConfigurationError, match=match):
            Dispatcher.from_state(state)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("job_counts", [1.7] + [0] * (N_SERVERS - 1)),
            ("job_counts", ["x"] + [0] * (N_SERVERS - 1)),
            ("job_counts", [[0, 0]] * (N_SERVERS // 2)),
            ("work", [[0.0, 0.0]] * (N_SERVERS // 2)),
            ("work", ["x"] + [0.0] * (N_SERVERS - 1)),
            ("probes", "x"),
            ("probes", 10**6 + 0.5),  # above jobs_dispatched: only its type is wrong
            ("jobs_dispatched", 3.0),
            ("weight_dispatched", None),
            ("memory", ["x"]),
            ("threshold_total", "x"),
        ],
        ids=["fractional-count", "string-count", "nested-counts", "nested-work",
             "string-work", "string-probes", "fractional-probes", "float-jobs",
             "none-weight", "string-memory", "string-total"],
    )
    def test_malformed_arrays_rejected(self, field, value):
        state = genuine_state("adaptive")
        state[field] = value
        with pytest.raises(ConfigurationError, match="dispatcher-state"):
            Dispatcher.from_state(state)

    @pytest.mark.parametrize("policy", ["weighted", "weighted-left"])
    @pytest.mark.parametrize("field", ["work", "weight_dispatched", "w_max_seen"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_work_rejected_under_weighted_policies(self, policy, field, bad):
        state = genuine_state(policy)
        state[field] = [bad] + state["work"][1:] if field == "work" else bad
        with pytest.raises(ConfigurationError, match="finite"):
            Dispatcher.from_state(state)

    def test_adaptive_work_is_not_checked(self):
        # Adaptive routes on job counts and accepts any job size, so its
        # work totals may legitimately be non-finite.
        state = genuine_state("adaptive")
        state["work"] = [float("inf")] + state["work"][1:]
        assert np.isinf(Dispatcher.from_state(state).work[0])

    @pytest.mark.parametrize(
        "policy,extra",
        [(policy, {}) for policy in sorted(POLICIES)]
        + [("memory", {"k": 2, "d": 3}), ("weighted", {"w_max": None})],
    )
    def test_genuine_states_round_trip_unchanged(self, policy, extra):
        state = genuine_state(policy, **extra)
        restored = Dispatcher.from_state(json.loads(json.dumps(state)))
        assert roundtrip(restored.state_dict()) == state

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda s: s.pop("work"), "missing work"),
            (lambda s: s["config"].pop("k"), "missing config.k"),
            (lambda s: s["config"].update(n_servers="x"), "config.n_servers"),
            (lambda s: s["config"].update(d=1.7), "config.d"),
            (lambda s: s["config"].update(block_size=2.5), "config.block_size"),
            (lambda s: s.update(threshold_total=-5), "threshold_total=-5"),
            (
                lambda s: s.update(threshold_total=s["jobs_dispatched"] - 1),
                "threshold_total",
            ),
        ],
        ids=["missing-key", "missing-config-key", "string-n-servers",
             "fractional-d", "fractional-block-size", "negative-total",
             "total-below-jobs"],
    )
    def test_malformed_keys_config_and_total_rejected(self, edit, match):
        # These used to raise a bare KeyError/ValueError, restore truncated
        # (d 1.7 as 1), or restore a threshold total that every later
        # dispatch refuses.
        state = genuine_state("threshold")
        edit(state)
        with pytest.raises(ConfigurationError, match=match):
            Dispatcher.from_state(state)

    def test_threshold_total_may_equal_jobs_dispatched(self):
        state = genuine_state("threshold")
        state["threshold_total"] = state["jobs_dispatched"]
        restored = Dispatcher.from_state(state)
        assert restored.state_dict()["threshold_total"] == state["jobs_dispatched"]

    def test_array_lengths_checked_before_allocating(self, tmp_path):
        """A config and probe stream claiming 10^15 servers beside 10-entry
        arrays used to raise MemoryError from the constructor's allocation."""
        state = roundtrip(Dispatcher(10, policy="adaptive", seed=SEED).state_dict())
        state["config"]["n_servers"] = 10**15
        state["probe_stream"]["n_bins"] = 10**15
        with pytest.raises(ConfigurationError, match="do not match n_servers"):
            Dispatcher.from_state(state)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="huge.json"):
            DispatchService.from_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s["config"].update(n_servers="x"),
            lambda s: s.pop("work"),
            lambda s: s.update(memory=["x"]),
        ],
        ids=["string-n-servers", "missing-key", "string-memory"],
    )
    def test_malformed_checkpoint_file_is_a_checkpoint_error(self, edit, tmp_path):
        state = genuine_state("adaptive")
        edit(state)
        path = tmp_path / "hand-edited.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="hand-edited.json"):
            DispatchService.from_checkpoint(str(path))

    @pytest.mark.parametrize(
        "entry",
        [
            ["r", [1.7, 2]],
            ["r", [2**70]],
            ["r", [-1]],
            ["r", ["x"]],
            ["r", [float("nan")]],
            ["r", [None]],
            ["r", [True]],
            ["r", [[1, 2]]],
            ["r", 5],
            ["r"],
            "r",
        ],
        ids=["float", "beyond-int64", "negative", "string", "nan", "none",
             "bool", "nested", "not-a-list", "no-assignments", "not-a-pair"],
    )
    def test_bad_request_log_entry_rejected(self, entry, tmp_path):
        requests = with_service_log({}, [entry])["service"]["requests"]
        with pytest.raises(ConfigurationError, match="request-log entr"):
            RequestLog.from_state(requests)
        # Through a checkpoint file it is a CheckpointError naming the file.
        path = tmp_path / "bad-log.json"
        path.write_text(
            json.dumps(with_service_log(genuine_state("adaptive"), [entry]))
        )
        with pytest.raises(CheckpointError, match="bad-log.json"):
            DispatchService.from_checkpoint(str(path))

    def test_request_log_round_trip_unchanged(self):
        log = RequestLog(capacity=3)
        for i, assignments in enumerate([[0], [5, 5, 1], np.arange(4), [7]]):
            log.record(f"r{i}", assignments)
        state = roundtrip(log.state_dict())
        assert RequestLog.from_state(state).state_dict() == state


# --------------------------------------------------------------------- #
# Service-level kill + restore
# --------------------------------------------------------------------- #
class TestServiceKillRestore:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_kill_restore_resumes_bit_identically(self, policy, tmp_path):
        batches = job_batches(n_batches=4, jobs_per_batch=30)
        total = total_jobs_of(batches)
        # threshold needs the stream length up front; harmless elsewhere.
        service_kwargs = {"total_jobs": total}

        # Reference: the uninterrupted run, same batch partitioning.
        reference = build(policy)
        expected = [
            reference.dispatch_batch(b, total_jobs=total) for b in batches
        ]

        checkpoint = tmp_path / f"{policy}.json"
        first = DispatchService(
            build(policy), checkpoint_path=str(checkpoint), **service_kwargs
        )
        thread = ServiceThread(first)
        got: list[np.ndarray] = []
        try:
            with thread.client() as client:
                for b in batches[:2]:
                    got.append(client.submit(b))
                client.checkpoint()
        finally:
            # Crash simulation: hard stop, no drain, queue dropped.
            thread.kill()
        assert checkpoint.exists()

        second = DispatchService.from_checkpoint(str(checkpoint), **service_kwargs)
        assert second.checkpoint_path == str(checkpoint)
        with ServiceThread(second) as restored_thread:
            with restored_thread.client() as client:
                for b in batches[2:]:
                    got.append(client.submit(b))

        for i, (a, e) in enumerate(zip(got, expected)):
            assert np.array_equal(a, e), f"{policy}: batch {i} diverged"
        final = second.dispatcher
        assert np.array_equal(final.job_counts, reference.job_counts)
        assert np.array_equal(final.work, reference.work)
        assert final.probes == reference.probes
        assert final.jobs_dispatched == reference.jobs_dispatched

    @pytest.mark.parametrize("policy", ["adaptive", "threshold"])
    def test_over_limit_restore_keeps_serving(self, policy):
        """A one-job submit against an unplaceable restored state gets an
        error reply, and the event loop stays free to answer ``stats``."""
        service = DispatchService.from_checkpoint(
            over_limit_state(policy, seed=SEED), total_jobs=1000
        )
        with ServiceThread(service) as thread:
            with thread.client(timeout=10.0) as client:
                with pytest.raises(ServiceError, match="capacity"):
                    client.submit([1.0])
                stats = client.stats()
        assert stats["jobs_dispatched"] == 0

    def test_checkpoint_excludes_queued_jobs(self, tmp_path):
        # A checkpoint taken between micro-batches must not contain jobs
        # still queued: the state's jobs_dispatched reflects dispatched work
        # only, so re-feeding the lost tail after restore is correct.
        checkpoint = tmp_path / "state.json"
        service = DispatchService(build("adaptive"), checkpoint_path=str(checkpoint))
        with ServiceThread(service) as thread:
            with thread.client() as client:
                client.submit(np.full(20, 1.0))
                state = client.checkpoint()
        assert state["jobs_dispatched"] == 20
        restored = DispatchService.from_checkpoint(str(checkpoint))
        assert restored.dispatcher.jobs_dispatched == 20
