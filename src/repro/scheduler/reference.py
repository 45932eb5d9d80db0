"""Ball-by-ball reference dispatcher.

This is the dispatch analogue of :mod:`repro.core.reference`: one Python loop
iteration per probe, following the probing rules literally.  It reproduces the
seed implementation of :class:`repro.scheduler.dispatcher.Dispatcher` (one
scalar draw per probe, jobs processed strictly in arrival order) and exists so
the test-suite can certify that the batched dispatch engine is an exact,
probe-for-probe reproduction of the sequential process: both implementations
fed the same :class:`~repro.runtime.probes.FixedProbeStream` must produce
bit-identical assignments, probe counts and per-server state.
"""

from __future__ import annotations

import numpy as np

from repro.core.thresholds import acceptance_limit
from repro.core.weighted_engine import resolve_max_probes, sequential_weighted_place
from repro.errors import ConfigurationError
from repro.runtime.costs import CostModel
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike
from repro.scheduler.dispatcher import DispatchResult, _check_config
from repro.scheduler.jobs import Workload

__all__ = ["reference_dispatch"]


def reference_dispatch(
    workload: Workload,
    n_servers: int,
    *,
    policy: str = "adaptive",
    d: int = 2,
    k: int = 1,
    w_max: float | None = None,
    seed: SeedLike = None,
    probe_stream: ProbeStream | None = None,
) -> DispatchResult:
    """Dispatch ``workload`` with one scalar probe draw per loop iteration.

    Semantics match :meth:`repro.scheduler.dispatcher.Dispatcher.dispatch`
    exactly — including the Table-1 baseline policies ``"left"`` (equal
    server groups, leftmost least-loaded) and ``"memory"`` (``d`` fresh
    draws plus ``k`` distinct remembered servers), and the ``"weighted"``
    work-balancing policy — only the execution strategy differs
    (deliberately slow and simple).
    """
    # The dispatcher's own config rule: the reference differs only in how
    # it executes a configuration, not in which ones it accepts.
    _check_config(n_servers, policy, d, k, w_max, None, None, None)
    if probe_stream is not None:
        if probe_stream.n_bins != n_servers:
            raise ConfigurationError("probe_stream.n_bins does not match n_servers")
        stream = probe_stream
    else:
        stream = RandomProbeStream(n_servers, seed)

    n_jobs = len(workload)
    job_counts = np.zeros(n_servers, dtype=np.int64)
    work = np.zeros(n_servers, dtype=np.float64)
    assignments = np.empty(n_jobs, dtype=np.int64)
    probes = 0
    group_size = n_servers // d if d else 0
    memory: np.ndarray = np.empty(0, dtype=np.int64)

    weighted_thresholds: np.ndarray | None = None
    max_probes_cap = 0
    if policy == "weighted":
        sizes = workload.sizes()
        if sizes.size and sizes.min() <= 0:
            raise ConfigurationError(
                "the weighted policy needs strictly positive job sizes"
            )
        # Exactly the float expressions of the batched engine: a cumsum
        # (which accumulates strictly left to right) plus either the fixed
        # bound or the running maximum of the sizes.
        cumulative = np.cumsum(np.concatenate(([0.0], sizes)))[1:]
        if w_max is not None:
            if sizes.size and sizes.max() > w_max:
                raise ConfigurationError(
                    f"job size {sizes.max()} exceeds the declared w_max={w_max}"
                )
            bounds = np.full(sizes.size, float(w_max))
        else:
            bounds = np.maximum.accumulate(np.concatenate(([0.0], sizes)))[1:]
        weighted_thresholds = cumulative / n_servers + bounds
        max_probes_cap = resolve_max_probes(None, n_servers)

    for index, job in enumerate(workload):
        if policy == "single":
            server = stream.take_one()
            probes += 1
        elif policy == "greedy":
            candidates = stream.take(d)
            server = int(candidates[int(np.argmin(job_counts[candidates]))])
            probes += d
        elif policy == "left":
            candidates = (
                np.arange(d, dtype=np.int64) * group_size
                + stream.take(d) % group_size
            )
            server = int(candidates[int(np.argmin(job_counts[candidates]))])
            probes += d
        elif policy == "memory":
            candidates = np.concatenate((stream.take(d), memory))
            server = int(candidates[int(np.argmin(job_counts[candidates]))])
            probes += d
        elif policy == "weighted":
            server, used = sequential_weighted_place(
                work, float(weighted_thresholds[index]), stream, max_probes_cap
            )
            probes += used
        elif policy == "weighted-left":
            candidates = (
                np.arange(d, dtype=np.int64) * group_size
                + stream.take(d) % group_size
            )
            server = int(candidates[int(np.argmin(work[candidates]))])
            probes += d
        else:
            if policy == "adaptive":
                limit = acceptance_limit(index + 1, n_servers, offset=1)
            else:  # threshold
                limit = acceptance_limit(max(n_jobs, 1), n_servers, offset=1)
            while True:
                server = stream.take_one()
                probes += 1
                if job_counts[server] <= limit:
                    break
        assignments[index] = server
        job_counts[server] += 1
        work[server] += job.size
        if policy == "memory" and k:
            # Remember the k least loaded distinct candidates after placement.
            _, first = np.unique(candidates, return_index=True)
            unique = candidates[np.sort(first)]
            memory = unique[np.argsort(job_counts[unique], kind="stable")[:k]]

    return DispatchResult(
        protocol=policy,
        n_balls=n_jobs,
        n_bins=n_servers,
        loads=job_counts,
        allocation_time=probes,
        costs=CostModel(probes=probes),
        assignments=assignments,
        work=work,
    )
