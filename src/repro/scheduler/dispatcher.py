"""Batched online job dispatcher built on the allocation protocols.

The dispatcher assigns each incoming job to a server using the *probing rule*
of a balls-into-bins protocol: sample a uniformly random server and accept it
iff its current job count is below the protocol's threshold.  This puts the
paper's protocols into the load-balancing scenario its introduction
motivates, and lets the examples and benchmarks measure application-level
metrics (makespan, per-server work) instead of only the abstract max load.

Eight dispatch policies are provided, mirroring the paper's protocols and
every Table-1 comparison strategy:

* ``"adaptive"`` — threshold ``jobs_dispatched/n + 1`` (ADAPTIVE; needs no
  knowledge of the total number of jobs),
* ``"threshold"`` — threshold ``total_jobs/n + 1`` (THRESHOLD; requires the
  workload length up front),
* ``"greedy"`` — sample ``d`` servers, pick the least loaded (greedy[d]),
* ``"left"`` — one server per group of ``n/d``, leftmost least-loaded wins
  (Vöcking's left[d]; needs ``n_servers`` divisible by ``d`` so each uniform
  probe maps to a uniform in-group choice),
* ``"memory"`` — ``d`` fresh servers plus the ``k`` least loaded remembered
  from the previous job (Mitzenmacher–Prabhakar–Shah (d,k)-memory),
* ``"single"`` — one random server per job,
* ``"weighted"`` — the weighted ADAPTIVE rule on accumulated *work*: a job
  of size ``w`` accepts a server whose total assigned work is strictly
  below ``W/n + w_max`` (``W`` the work dispatched so far including this
  job, ``w_max`` a bound on job sizes — fixed via the ``w_max`` parameter
  or tracked as the running maximum of the sizes seen).  This balances the
  actual load (service time), not just the job count, which is what
  matters under heavy-tailed sizes.
* ``"weighted-left"`` — Vöcking's left[d] on accumulated work: one probe
  per server group, the job goes to the least-*worked* candidate with ties
  broken towards the leftmost group.  Like ``"left"`` it needs
  ``n_servers`` divisible by ``d``; like ``"weighted"`` its routing state
  is the work vector, so it balances service time with a constant number
  of probes per job.

Dispatch is *batched*: instead of one Python loop iteration (and one scalar
RNG call) per probe, jobs are processed in bulk through the exact vectorised
window primitive of :mod:`repro.core.window` (ADAPTIVE/THRESHOLD) and the
chunked conflict-free commit engine of :mod:`repro.baselines.engine`
(greedy[d]/left[d]) — the same machinery the core protocol engines use — so
millions of jobs are dispatched in a handful of NumPy passes.  The result is
*bit-for-bit identical* to the sequential ball-by-ball process (see
:mod:`repro.scheduler.reference`): the same probe sequence is consumed in
the same order, so assignments, probe counts and all derived metrics are
unchanged for a fixed seed.  The test-suite certifies this by replaying
shared :class:`~repro.runtime.probes.FixedProbeStream` choice vectors
through both implementations.

Two entry points are exposed:

* :meth:`Dispatcher.dispatch` — one-shot: dispatch a whole
  :class:`~repro.scheduler.jobs.Workload` (internally iterating its arrival
  batches) and return a :class:`DispatchResult`.
* :meth:`Dispatcher.dispatch_batch` — streaming: dispatch one batch of job
  sizes against the dispatcher's persistent server state and return the
  per-job server assignments.  Callers feed arrival groups (e.g. the bursts
  of a bursty workload) as they materialise; :meth:`Dispatcher.outcome`
  snapshots the accumulated state at any point.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.engine import _add_counts, chunked_argmin_commit
from repro.baselines.left import check_replay_groups, left_source
from repro.baselines.memory_engine import chunked_memory_commit
from repro.core.backend import (
    KernelBackend,
    get_backend,
    resolve_backend,
    use_backend,
    validate_backend_name,
)
from repro.core.result import RunResult, register_record_kind
from repro.core.thresholds import acceptance_limit, stage_segments
from repro.core.weighted_engine import chunked_weighted_assign
from repro.core.window import assign_window
from repro.errors import ConfigurationError
from repro.runtime.costs import CostModel
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike
from repro.scheduler.jobs import Workload
from repro.scheduler.metrics import ScheduleMetrics, compute_metrics

__all__ = ["DispatchResult", "Dispatcher"]

_POLICIES = (
    "adaptive",
    "threshold",
    "greedy",
    "left",
    "memory",
    "single",
    "weighted",
    "weighted-left",
)

#: Arrival groups smaller than this run under the scalar backend by default
#: (the ``small_burst=None`` rule of :meth:`Dispatcher._use_small_burst`):
#: the numpy kernels pay fixed NumPy calls and O(n_servers) scratch per
#: call, the scalar kernels cost what they touch.  Measured per
#: ``dispatch_batch`` call, the two routes interleaved, at 1,000 and 10,000
#: servers: the scalar route leads up to 90-200 jobs for adaptive,
#: threshold and weighted, and for memory at every size where its scalar
#: loop runs in place; greedy, left and weighted-left cross over at 30-45
#: jobs (below 17 their numpy commit runs the scalar kernel anyway); single
#: calls no kernel, so both routes run the same code.  The rule was derived
#: at those two fleet sizes only; checked at 30 and 100 servers (1-99
#: jobs), the scalar route led or tied for every policy it takes except
#: threshold, which crossed over near 64 jobs and ran 1.1-1.2x slower at 99.
DEFAULT_SMALL_BURST = 100

_SCALAR = get_backend("scalar")


#: Keys of a dispatcher-state document and of its config (see
#: :meth:`Dispatcher.state_dict`); the config keys are the parameters of
#: :func:`_check_config`.
_STATE_KEYS = (
    "config", "job_counts", "work", "probes", "jobs_dispatched",
    "weight_dispatched", "w_max_seen", "threshold_total", "memory", "probe_stream",
)
_CONFIG_KEYS = (
    "n_servers", "policy", "d", "k", "w_max", "block_size", "small_burst", "backend",
)


def _is_int(value) -> bool:
    """A Python or NumPy integer, never a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_config(
    n_servers, policy, d, k, w_max, block_size, small_burst, backend
) -> None:
    """The one rule for a dispatcher configuration.

    The :class:`Dispatcher` constructor, :meth:`Dispatcher.from_state`,
    :class:`repro.api.DispatchSpec` and the per-job reference dispatcher
    all apply it, so what they accept cannot drift apart.  It allocates
    nothing, so a configuration of ``10**15`` servers is refused or
    accepted in constant time.  Integer fields are Python or NumPy
    integers, never ``bool``: ``n_servers >= 1``, ``d >= 1``, ``k >= 0``,
    ``block_size`` ``None`` or ``>= 1`` and ``small_burst`` ``None`` or
    ``>= 0``.  ``w_max`` is ``None`` or a finite, positive real number;
    ``policy`` one of the dispatch policies; ``backend`` ``None``, a
    registered name or a :class:`~repro.core.backend.KernelBackend`; and
    the left policies need ``n_servers`` to split into ``d`` equal groups
    (:func:`~repro.baselines.left.check_replay_groups`).  A violation
    raises :class:`~repro.errors.ConfigurationError` whose message starts
    with the field's name and a colon, so callers can prefix their own
    context.
    """
    for name, value, low, optional in (
        ("n_servers", n_servers, 1, False),
        ("d", d, 1, False),
        ("k", k, 0, False),
        ("block_size", block_size, 1, True),
        ("small_burst", small_burst, 0, True),
    ):
        if optional and value is None:
            continue
        if not _is_int(value) or value < low:
            raise ConfigurationError(
                f"{name}: must be {'None or ' if optional else ''}an integer "
                f">= {low}, got {value!r}"
            )
    if policy not in _POLICIES:
        raise ConfigurationError(f"policy: must be one of {_POLICIES}, got {policy!r}")
    if w_max is not None and (
        isinstance(w_max, bool)
        or not isinstance(w_max, numbers.Real)
        or not 0 < w_max < math.inf
    ):
        raise ConfigurationError(
            f"w_max: must be None or a positive finite number, got {w_max!r}"
        )
    if policy in ("left", "weighted-left"):
        try:
            check_replay_groups(n_servers, d)
        except ConfigurationError as exc:
            raise ConfigurationError(f"d: {exc}") from exc
    if not isinstance(backend, KernelBackend):
        try:
            validate_backend_name(backend)
        except ConfigurationError as exc:
            raise ConfigurationError(f"backend: {exc}") from exc


def _state_int(value, what: str) -> int:
    """``value`` as an int, or a typed error naming the state field."""
    if not _is_int(value):
        raise ConfigurationError(
            f"dispatcher-state {what} must be an integer, got {value!r}"
        )
    return int(value)


@dataclass
class DispatchResult(RunResult):
    """Full record of a dispatch run, in the unified result hierarchy.

    The balls-into-bins view maps onto the base fields — ``protocol`` is the
    dispatch policy, ``n_bins`` the number of servers, ``loads`` the per-server
    job counts and ``allocation_time`` the probe total — and the legacy
    ``policy`` / ``n_servers`` / ``job_counts`` / ``probes`` names are kept as
    read-only views.
    """

    assignments: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    work: np.ndarray | None = None
    metrics: ScheduleMetrics = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.work is None:
            self.work = np.zeros(self.n_bins, dtype=np.float64)
        self.metrics = compute_metrics(self.work, self.loads, self.allocation_time)

    @property
    def policy(self) -> str:
        return self.protocol

    @property
    def n_servers(self) -> int:
        return self.n_bins

    @property
    def job_counts(self) -> np.ndarray:
        return self.loads

    @property
    def probes(self) -> int:
        return self.allocation_time

    record_kind = "dispatch"

    def as_record(self, arrays: bool = True) -> dict:
        record = super().as_record(arrays=arrays)
        record.update(
            {f"metric_{k}": float(v) for k, v in self.metrics.as_dict().items()}
        )
        if arrays:
            record["assignments"] = self.assignments.tolist()
            record["work"] = self.work.tolist()
        return record

    @classmethod
    def _record_kwargs(cls, record) -> dict:
        from repro.core.result import _record_field

        kwargs = super()._record_kwargs(record)
        kwargs["assignments"] = np.asarray(
            _record_field(record, "assignments"), dtype=np.int64
        )
        kwargs["work"] = np.asarray(
            _record_field(record, "work"), dtype=np.float64
        )
        return kwargs


register_record_kind(DispatchResult.record_kind, DispatchResult)


class Dispatcher:
    """Assign jobs to servers with a balls-into-bins probing policy.

    Parameters
    ----------
    n_servers:
        Number of servers (bins).
    policy:
        One of ``"adaptive"``, ``"threshold"``, ``"greedy"``, ``"left"``,
        ``"memory"``, ``"single"``, ``"weighted"``, ``"weighted-left"``.
    d:
        Number of probes per job for the ``"greedy"``, ``"left"``,
        ``"memory"`` and ``"weighted-left"`` policies.
    k:
        Number of remembered servers for the ``"memory"`` policy.
    w_max:
        Optional fixed upper bound on job sizes for the ``"weighted"``
        policy (every dispatched size must respect it); when omitted the
        policy uses the running maximum of the sizes seen so far.
    seed:
        Randomness for server sampling (ignored when ``probe_stream`` is
        given).
    probe_stream:
        Optional explicit probe stream; the test-suite uses a
        :class:`~repro.runtime.probes.FixedProbeStream` here to replay a fixed
        choice vector through both this engine and the ball-by-ball reference.
    block_size:
        Optional fixed probe block size for the vectorised window passes,
        also used as the chunk size of the greedy/left commit engine (mainly
        for tests; the default heuristics are fine in practice).
    small_burst:
        Arrival groups smaller than this run the same engines under the
        scalar backend, whose kernels cost what they touch, instead of
        under ``backend`` (or the ambient selection), whose vectorised
        kernels pay fixed NumPy calls and O(n_servers) scratch per call.
        ``None`` (default) picks per policy from measured crossovers: below
        ``DEFAULT_SMALL_BURST`` jobs, below 32 for greedy, left and
        weighted-left, never for single (which calls no kernel).  An
        explicit int routes every group smaller than that; 0 disables the
        route.  The assignments, probe consumption and per-server state
        are bit-identical either way (certified by the test-suite), so this
        is purely a throughput knob for tiny-burst streaming.
    backend:
        Kernel backend for the dispatch engines on groups the small-burst
        route does not take (a registered name or a
        :class:`~repro.core.backend.KernelBackend`); ``None`` (default)
        keeps the ambient selection.  Every backend produces
        bit-identical assignments — this is purely an execution strategy.

    Every configuration parameter (all but ``seed`` and ``probe_stream``)
    goes through one rule, :func:`_check_config`, which
    :meth:`from_state` and :class:`repro.api.DispatchSpec` apply too:
    integers must be integers (Python or NumPy, never ``bool``; ``d=2.5``
    is refused, not truncated), and a violation raises
    :class:`~repro.errors.ConfigurationError` naming the field.

    The dispatcher is stateful: ``job_counts``, ``work``, ``probes`` (and the
    remembered servers of the ``"memory"`` policy) accumulate across
    :meth:`dispatch_batch` calls until :meth:`reset`.  :meth:`dispatch`
    resets automatically so each workload starts fresh.
    """

    def __init__(
        self,
        n_servers: int,
        *,
        policy: str = "adaptive",
        d: int = 2,
        k: int = 1,
        w_max: float | None = None,
        seed: SeedLike = None,
        probe_stream: ProbeStream | None = None,
        block_size: int | None = None,
        small_burst: int | None = None,
        backend: str | None = None,
    ) -> None:
        _check_config(n_servers, policy, d, k, w_max, block_size, small_burst, backend)
        self.n_servers = int(n_servers)
        self.policy = policy
        self.d = int(d)
        self.k = int(k)
        self.w_max = None if w_max is None else float(w_max)
        self.block_size = None if block_size is None else int(block_size)
        self.small_burst = None if small_burst is None else int(small_burst)
        self._backend = None if backend is None else resolve_backend(backend)
        if probe_stream is not None:
            if probe_stream.n_bins != n_servers:
                raise ConfigurationError(
                    "probe_stream.n_bins does not match n_servers"
                )
            self._stream = probe_stream
        else:
            self._stream = RandomProbeStream(n_servers, seed)
        self.reset()

    # ------------------------------------------------------------------ #
    # Streaming state
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear the accumulated server state (counts, work, probe total)."""
        self.job_counts = np.zeros(self.n_servers, dtype=np.int64)
        self.work = np.zeros(self.n_servers, dtype=np.float64)
        self.probes = 0
        self.jobs_dispatched = 0
        self.weight_dispatched = 0.0
        self._w_max_seen = 0.0
        self._threshold_total: int | None = None
        self._memory: list[int] = []

    def outcome(self) -> DispatchResult:
        """Snapshot the accumulated state as a :class:`DispatchResult`.

        ``assignments`` covers only jobs whose assignments the caller kept
        from :meth:`dispatch_batch`; the snapshot itself stores the per-server
        aggregates, which is what the metrics need.
        """
        return self._result(np.empty(0, dtype=np.int64))

    def _backend_scope(self, k: int):
        """Kernel-backend scope for the engine work of one ``k``-job group.

        Small bursts (:meth:`_use_small_burst`) run the scalar backend,
        whatever the dispatcher's or the ambient selection.  Otherwise
        ``backend=None`` leaves the ambient selection in effect, so wrapping
        a call site in :func:`~repro.core.backend.use_backend` still governs
        backend-less dispatchers.
        """
        if self._use_small_burst(k):
            return use_backend(_SCALAR)
        if self._backend is None:
            return nullcontext()
        return use_backend(self._backend)

    def _result(self, assignments: np.ndarray) -> DispatchResult:
        return DispatchResult(
            protocol=self.policy,
            n_balls=self.jobs_dispatched,
            n_bins=self.n_servers,
            loads=self.job_counts.copy(),
            allocation_time=self.probes,
            costs=CostModel(probes=self.probes),
            params=self.describe_params(),
            assignments=assignments,
            work=self.work.copy(),
        )

    def describe_params(self) -> dict:
        """Policy parameters for provenance in the unified result record."""
        params: dict = {"policy": self.policy}
        if self.policy in ("greedy", "left", "memory", "weighted-left"):
            params["d"] = self.d
        if self.policy == "memory":
            params["k"] = self.k
        if self.policy == "weighted":
            params["w_max"] = self.w_max
        return params

    # ------------------------------------------------------------------ #
    # Batched dispatch engine
    # ------------------------------------------------------------------ #
    def dispatch_batch(
        self, sizes: np.ndarray, *, total_jobs: int | None = None
    ) -> np.ndarray:
        """Dispatch one batch of jobs and return their server assignments.

        Parameters
        ----------
        sizes:
            Service times of the batch's jobs, in arrival order.
        total_jobs:
            Total number of jobs of the whole stream; required by the
            ``"threshold"`` policy (which needs ``m`` up front) and ignored by
            the online policies.

        Returns
        -------
        numpy.ndarray
            Server index per job, bit-identical to dispatching the batch
            job-by-job with the same probe sequence.
        """
        sizes = np.asarray(sizes, dtype=np.float64).ravel()
        assignments = self._assign_batch(sizes, total_jobs)
        if assignments.size and self.policy not in ("weighted", "weighted-left"):
            self.work += np.bincount(
                assignments, weights=sizes, minlength=self.n_servers
            )
        return assignments

    def _assign_batch(self, sizes: np.ndarray, total_jobs: int | None) -> np.ndarray:
        """Assign one batch of jobs to servers, updating every counter except work.

        Work accounting is the caller's job: :meth:`dispatch_batch` folds the
        batch in incrementally, while :meth:`dispatch` bins all jobs once at
        the end (cheaper, and bit-identical to the sequential sum order).
        The exception is the ``"weighted"`` policy, whose routing decisions
        *are* the work vector — its engine maintains ``self.work`` in place
        (in exact sequential order), so both callers skip their own update.
        """
        k = int(sizes.size)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        self.validate_sizes(sizes)

        with self._backend_scope(k):
            if self.policy == "single":
                assignments = self._stream.take(k)
                probes = k
                _add_counts(self.job_counts, assignments)
            elif self.policy == "greedy":
                assignments = self._dispatch_greedy(k)
                probes = k * self.d
            elif self.policy == "left":
                assignments = self._dispatch_left(k)
                probes = k * self.d
            elif self.policy == "memory":
                assignments = self._dispatch_memory(k)
                probes = k * self.d
            elif self.policy == "threshold":
                limit = self._threshold_limit(total_jobs, k)
                window = assign_window(
                    self.job_counts, limit, k, self._stream, block_size=self.block_size
                )
                assignments, probes = window.assignments, window.probes
            elif self.policy == "weighted":
                assignments, probes = self._dispatch_weighted(sizes)
            elif self.policy == "weighted-left":
                assignments = self._dispatch_weighted_left(sizes)
                probes = k * self.d
            else:  # adaptive: constant acceptance limit within each stage of n jobs
                assignments, probes = self._dispatch_adaptive(k)

        self.probes += probes
        self.jobs_dispatched += k
        return assignments

    def _threshold_limit(self, total_jobs: int | None, k: int) -> int:
        """Validate and pin the fixed workload length of the threshold policy."""
        if total_jobs is None:
            raise ConfigurationError(
                "the threshold policy needs the workload length up front: "
                "pass total_jobs to dispatch_batch"
            )
        total = int(total_jobs)
        if self._threshold_total is not None and total != self._threshold_total:
            raise ConfigurationError(
                f"total_jobs={total} contradicts the previously declared "
                f"total of {self._threshold_total}; the threshold policy "
                "uses one fixed workload length for the whole stream"
            )
        if total < self.jobs_dispatched + k:
            raise ConfigurationError(
                f"total_jobs={total} is smaller than the "
                f"{self.jobs_dispatched + k} jobs dispatched so far"
            )
        self._threshold_total = total
        return acceptance_limit(total, self.n_servers, offset=1)

    def _dispatch_adaptive(self, k: int) -> tuple[np.ndarray, int]:
        """Dispatch ``k`` jobs under the ADAPTIVE rule, one window per stage.

        Job ``i`` (1-indexed over the whole stream) has acceptance limit
        ``ceil(i/n)``, which is constant across each stage of ``n`` jobs —
        so a batch is at most ``ceil(k/n) + 1`` exact vectorised windows,
        one per piece of :func:`~repro.core.thresholds.stage_segments`.
        """
        n = self.n_servers
        parts: list[np.ndarray] = []
        probes = 0
        for _, first, last, _ in stage_segments(self.jobs_dispatched, k, n):
            window = assign_window(
                self.job_counts,
                acceptance_limit(first, n, offset=1),
                last - first + 1,
                self._stream,
                block_size=self.block_size,
            )
            parts.append(window.assignments)
            probes += window.probes
        assignments = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return assignments, probes

    def _dispatch_weighted(self, sizes: np.ndarray) -> tuple[np.ndarray, int]:
        """Weighted ADAPTIVE on accumulated work, through the chunked engine.

        Per-job thresholds are ``W_i/n + w_max_i`` with ``W_i`` the exact
        sequential cumulative work (the batch cumsum is seeded with the
        stream's running total, so batch splits cannot perturb the float
        accumulation) and ``w_max_i`` either the fixed ``w_max`` parameter or
        the running maximum of all sizes seen.  ``self.work`` is updated in
        place by the engine, in exact sequential per-server order; the
        running totals move only once the engine has placed every job, so
        a batch it fails leaves them as they were.
        """
        cumulative = np.cumsum(np.concatenate(([self.weight_dispatched], sizes)))[1:]
        if self.w_max is not None:
            bounds = np.full(sizes.size, self.w_max)
        else:
            bounds = np.maximum.accumulate(
                np.concatenate(([self._w_max_seen], sizes))
            )[1:]
        assignments = np.empty(sizes.size, dtype=np.int64)
        probes = chunked_weighted_assign(
            self.work,
            sizes,
            cumulative / self.n_servers + bounds,
            self._stream,
            chunk_size=self.block_size,
            assignments=assignments,
        )
        self.weight_dispatched = float(cumulative[-1])
        if self.w_max is None:
            self._w_max_seen = float(bounds[-1])
        _add_counts(self.job_counts, assignments)
        return assignments, probes

    def _dispatch_weighted_left(self, sizes: np.ndarray) -> np.ndarray:
        """Weighted left[d]: probes map to server groups, least work wins.

        The candidates come from the shared replay source
        :func:`~repro.baselines.left.left_source` and the
        engine's first-minimum rule is Vöcking's asymmetric tie-break, here
        over the accumulated work vector with weighted increments — the
        engine maintains ``self.work`` in place in exact sequential
        per-server order, so both dispatch entry points skip their own
        work accounting (as for the ``"weighted"`` policy).
        """
        k = int(sizes.size)
        assignments = np.empty(k, dtype=np.int64)
        chunked_argmin_commit(
            self.work,
            left_source(self.n_servers, self.d, k, self._stream, replay=True),
            k,
            self.d,
            chunk_size=self.block_size,
            assignments=assignments,
            weights=sizes,
        )
        _add_counts(self.job_counts, assignments)
        return assignments

    def validate_sizes(self, sizes) -> None:
        """Reject job sizes this dispatcher would refuse to dispatch.

        Performs exactly the data-dependent admission checks of a dispatch
        call — nothing more — without touching any dispatcher state, so
        admission layers (the service micro-batcher) can reject one bad
        submission on its own instead of failing whatever batch it was
        coalesced into.  The work-balancing policies need finite sizes, and
        ``"weighted"`` also needs them positive and within ``w_max``;
        policies that accept arbitrary sizes accept everything here too.
        """
        if self.policy not in ("weighted", "weighted-left"):
            return
        sizes = np.asarray(sizes, dtype=np.float64).ravel()
        if not np.isfinite(sizes).all():
            raise ConfigurationError(
                f"the {self.policy} policy needs finite job sizes"
            )
        if self.policy != "weighted":
            return
        if sizes.size and sizes.min() <= 0:
            raise ConfigurationError(
                "the weighted policy needs strictly positive job sizes"
            )
        if self.w_max is not None and sizes.size and sizes.max() > self.w_max:
            raise ConfigurationError(
                f"job size {sizes.max()} exceeds the declared w_max={self.w_max}"
            )

    # ------------------------------------------------------------------ #
    # Small-burst route
    # ------------------------------------------------------------------ #
    def _use_small_burst(self, k: int) -> bool:
        """Should this ``k``-job group run under the scalar backend?

        An explicit ``small_burst`` is an unconditional threshold (0
        disables).  The automatic rule encodes the measured crossovers of
        the two routes (see :data:`DEFAULT_SMALL_BURST`).
        """
        if self.small_burst is not None:
            return k < self.small_burst
        if self.policy == "single":
            return False
        if self.policy in ("greedy", "left", "weighted-left"):
            return k < 32
        return k < DEFAULT_SMALL_BURST

    def _dispatch_greedy(self, k: int) -> np.ndarray:
        """Greedy[d] through the chunked conflict-free commit engine.

        Each chunk's candidate matrix comes from one bulk
        :meth:`~repro.runtime.probes.ProbeStream.take_matrix` draw and all
        conflict-free jobs of a chunk commit in one vectorised pass — the
        same engine (and therefore the same bit-identical guarantee) as the
        greedy[d] baseline protocol, with first-minimum tie-breaking as in
        the per-job reference.
        """
        assignments = np.empty(k, dtype=np.int64)
        chunked_argmin_commit(
            self.job_counts,
            lambda start, count: self._stream.take_matrix(count, self.d),
            k,
            self.d,
            chunk_size=self.block_size,
            assignments=assignments,
        )
        return assignments

    def _dispatch_left(self, k: int) -> np.ndarray:
        """Left[d]: probes map to equal server groups, leftmost minimum wins.

        The candidates come from the shared replay source
        :func:`~repro.baselines.left.left_source`; the
        engine's first-minimum rule is exactly Vöcking's asymmetric
        tie-break.
        """
        assignments = np.empty(k, dtype=np.int64)
        chunked_argmin_commit(
            self.job_counts,
            left_source(self.n_servers, self.d, k, self._stream, replay=True),
            k,
            self.d,
            chunk_size=self.block_size,
            assignments=assignments,
        )
        return assignments

    def _dispatch_memory(self, k: int) -> np.ndarray:
        """(d,k)-memory through the chunk-drawn scalar hand-off.

        The remembered set persists across :meth:`dispatch_batch` calls (it
        is part of the protocol state, like ``job_counts``) and holds
        distinct servers; the commit function and its rules are shared with
        :class:`~repro.baselines.memory.MemoryProtocol`, and ``job_counts``
        is updated in place like every other policy.  The numpy backend
        runs the rule on a list round trip of ``job_counts``, O(n_servers)
        per call; the scalar backend (the small-burst route) runs it in
        place when the burst is short against the fleet.
        """
        assignments = np.empty(k, dtype=np.int64)
        self._memory = chunked_memory_commit(
            self._stream,
            self.job_counts,
            self._memory,
            k,
            self.d,
            self.k,
            assignments=assignments,
            chunk_size=self.block_size,
        )
        return assignments

    def dispatch(self, workload: Workload) -> DispatchResult:
        """Assign every job of ``workload`` to a server, in arrival order.

        The workload is streamed through :meth:`dispatch_batch` one arrival
        group at a time (all of them at once when every job arrives at time
        0), which keeps bursty workloads on the same batched hot path.
        """
        self.reset()
        n_jobs = len(workload)
        sizes = workload.sizes()
        assignments = np.empty(n_jobs, dtype=np.int64)
        for _, start, stop in workload.arrival_batches():
            assignments[start:stop] = self._assign_batch(sizes[start:stop], n_jobs)
        if self.policy not in ("weighted", "weighted-left"):
            # Bin the work in a single pass over all jobs: per-server additions
            # then happen in job order, making the totals bit-identical to the
            # sequential loop (batch-wise partial sums can differ in the last
            # ulp).  The weighted engine already maintained self.work in exact
            # sequential order — its routing decisions depend on it.
            self.work = np.bincount(
                assignments, weights=sizes, minlength=self.n_servers
            )
        return self._result(assignments)

    # ------------------------------------------------------------------ #
    # Checkpoint/restore
    # ------------------------------------------------------------------ #
    #: Version stamp of the dispatcher checkpoint document.
    STATE_VERSION = 1

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the full mid-stream dispatcher state.

        Captures the construction parameters, every accumulated counter
        (``job_counts``, ``work``, ``probes``, the weighted running totals,
        the pinned threshold total, the remembered set of the memory
        policy) and the probe stream's exact position (RNG state plus
        pending give-backs, via :meth:`ProbeStream.state_dict
        <repro.runtime.probes.ProbeStream.state_dict>`).  A dispatcher
        rebuilt with :meth:`from_state` — in the same process or after a
        JSON round-trip through a checkpoint file — produces bit-identical
        assignments for the remaining job stream, which the
        checkpoint/restore tests certify for every policy.

        Floats survive the JSON round-trip exactly (Python serialises them
        via the shortest round-tripping repr), so the exact-sequential work
        accumulation of the weighted policies is preserved to the last ulp.
        """
        return {
            "kind": "dispatcher-state",
            "version": self.STATE_VERSION,
            "config": {
                "n_servers": self.n_servers,
                "policy": self.policy,
                "d": self.d,
                "k": self.k,
                "w_max": self.w_max,
                "block_size": self.block_size,
                "small_burst": self.small_burst,
                "backend": None if self._backend is None else self._backend.name,
            },
            "job_counts": self.job_counts.tolist(),
            "work": self.work.tolist(),
            "probes": int(self.probes),
            "jobs_dispatched": int(self.jobs_dispatched),
            "weight_dispatched": float(self.weight_dispatched),
            "w_max_seen": float(self._w_max_seen),
            "threshold_total": self._threshold_total,
            "memory": [int(s) for s in self._memory],
            "probe_stream": self._stream.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Dispatcher":
        """Rebuild a dispatcher mid-stream from a :meth:`state_dict` snapshot.

        The restored dispatcher continues the interrupted stream exactly:
        same assignments, same probe consumption, same per-server totals as
        the uninterrupted run, for every policy (weighted and memory
        included).

        A checkpoint is untrusted input, so a state no dispatch can produce
        raises :class:`~repro.errors.ConfigurationError` before the state is
        installed: a missing key; a config the constructor's rule refuses
        (the error names ``config.<field>``); a ``probes``,
        ``jobs_dispatched`` or remembered server that is not an integer;
        counters that are not numbers, job counts that are not a flat list
        of integers, a negative job count, a ``jobs_dispatched`` below 0 or
        above the job counts' total, fewer probes than jobs (every policy
        draws at least one probe per job), a ``threshold_total`` that is
        neither ``None`` nor an integer at least ``jobs_dispatched``
        (dispatch refuses to run past the declared total), and, under the
        work-balancing policies, non-finite work or running totals.  Counts
        *above* ``jobs_dispatched`` are accepted: they stand for load the
        servers held before the stream, and the acceptance limits (which
        follow ``jobs_dispatched``) then reject, with a typed error, any job
        no server can take.
        """
        from repro.runtime.probes import probe_stream_from_state

        if not isinstance(state, dict) or state.get("kind") != "dispatcher-state":
            raise ConfigurationError(
                "expected a dispatcher-state document "
                "(the dict returned by Dispatcher.state_dict)"
            )
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ConfigurationError(
                f"unsupported dispatcher-state version {version!r} "
                f"(this release reads version {cls.STATE_VERSION})"
            )
        missing = [key for key in _STATE_KEYS if key not in state]
        config = state.get("config", {})
        if not isinstance(config, dict):
            raise ConfigurationError(
                f"dispatcher-state config must be a dict, got {config!r}"
            )
        if "config" in state:
            missing += [f"config.{key}" for key in _CONFIG_KEYS if key not in config]
        if missing:
            raise ConfigurationError(
                f"dispatcher-state is missing {', '.join(missing)}"
            )
        settings = {key: config[key] for key in _CONFIG_KEYS}
        try:
            _check_config(**settings)
        except ConfigurationError as exc:
            raise ConfigurationError(f"dispatcher-state config.{exc}") from exc
        n_servers = settings["n_servers"]
        probes = _state_int(state["probes"], "probes")
        jobs_dispatched = _state_int(state["jobs_dispatched"], "jobs_dispatched")
        try:
            job_counts = np.asarray(state["job_counts"])
            work = np.asarray(state["work"], dtype=np.float64)
            weight_dispatched = float(state["weight_dispatched"])
            w_max_seen = float(state["w_max_seen"])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"dispatcher-state counters are not numeric: {exc}"
            ) from exc
        if job_counts.dtype.kind != "i" or job_counts.ndim != 1 or work.ndim != 1:
            raise ConfigurationError(
                "dispatcher-state job_counts must be a flat list of integers "
                "and work a flat list of numbers"
            )
        # Checked before construction, which allocates n_servers-long state.
        if not job_counts.size == work.size == n_servers:
            raise ConfigurationError(
                f"dispatcher-state arrays do not match n_servers={n_servers}"
            )
        job_counts = job_counts.astype(np.int64, copy=False)
        try:
            stream = probe_stream_from_state(state["probe_stream"])
        except ConfigurationError as exc:
            raise ConfigurationError(f"dispatcher-state probe_stream: {exc}") from exc
        dispatcher = cls(probe_stream=stream, **settings)
        if job_counts.min() < 0:
            raise ConfigurationError(
                "dispatcher-state job_counts hold a negative count "
                f"({int(job_counts.min())})"
            )
        placed = int(job_counts.sum())
        if not 0 <= jobs_dispatched <= placed:
            raise ConfigurationError(
                f"dispatcher-state jobs_dispatched={jobs_dispatched} is not "
                f"within [0, {placed}], the job_counts total"
            )
        if probes < jobs_dispatched:
            raise ConfigurationError(
                f"dispatcher-state probes={probes} is below "
                f"jobs_dispatched={jobs_dispatched}; every job draws a probe"
            )
        if dispatcher.policy in ("weighted", "weighted-left") and not (
            np.isfinite(work).all()
            and np.isfinite(weight_dispatched)
            and np.isfinite(w_max_seen)
        ):
            raise ConfigurationError(
                "dispatcher-state work, weight_dispatched and w_max_seen "
                f"must be finite under the {dispatcher.policy} policy"
            )
        total = state["threshold_total"]
        if total is not None:
            total = _state_int(total, "threshold_total")
            if total < jobs_dispatched:
                raise ConfigurationError(
                    f"dispatcher-state threshold_total={total} is below "
                    f"jobs_dispatched={jobs_dispatched}; dispatch refuses to "
                    "run past the declared total"
                )
        memory = state["memory"]
        if not isinstance(memory, list):
            raise ConfigurationError(
                f"dispatcher-state memory must be a list, got {memory!r}"
            )
        memory = [_state_int(s, "memory entry") for s in memory]
        if (
            len(memory) > dispatcher.k
            or len(set(memory)) < len(memory)
            or not all(0 <= s < dispatcher.n_servers for s in memory)
        ):
            raise ConfigurationError(
                f"dispatcher-state memory {memory} is not a set of at most "
                f"k={dispatcher.k} distinct servers in [0, {dispatcher.n_servers})"
            )
        dispatcher.job_counts = job_counts
        dispatcher.work = work
        dispatcher.probes = probes
        dispatcher.jobs_dispatched = jobs_dispatched
        dispatcher.weight_dispatched = weight_dispatched
        dispatcher._w_max_seen = w_max_seen
        dispatcher._threshold_total = total
        dispatcher._memory = memory
        return dispatcher
