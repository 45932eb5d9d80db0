"""Load-balancing application substrate: workloads, dispatcher, metrics.

The dispatcher is a batched engine: whole workloads (or streamed arrival
batches, via :meth:`Dispatcher.dispatch_batch`) are routed through the exact
vectorised window primitive (ADAPTIVE/THRESHOLD) or the chunked conflict-free
commit engine of :mod:`repro.baselines.engine` (greedy[d]/left[d]), so every
Table-1 strategy — including the ``"left"`` and ``"memory"`` baselines — is
available as a streaming dispatch policy.  A ball-by-ball reference
implementation (:func:`reference_dispatch`) is kept for equivalence testing
and benchmarking.

Dispatchers can be built declaratively with
:meth:`repro.api.DispatchSpec.build_dispatcher`; the spec, the constructor
and :meth:`Dispatcher.from_state` accept the same configurations, by one
rule.  Workload generators are registered by name in :data:`WORKLOADS` so
specs stay serialisable.  Dispatch runs return :class:`DispatchResult`, part of the
unified :class:`repro.RunResult` hierarchy.
"""

from repro.scheduler.dispatcher import Dispatcher, DispatchResult
from repro.scheduler.jobs import (
    WORKLOADS,
    Job,
    Workload,
    bursty_workload,
    heavy_tailed_workload,
    make_workload,
    uniform_workload,
    weighted_workload,
)
from repro.scheduler.metrics import ScheduleMetrics, compute_metrics
from repro.scheduler.reference import reference_dispatch

__all__ = [
    "Dispatcher",
    "DispatchResult",
    "reference_dispatch",
    "Job",
    "Workload",
    "WORKLOADS",
    "make_workload",
    "bursty_workload",
    "heavy_tailed_workload",
    "uniform_workload",
    "weighted_workload",
    "ScheduleMetrics",
    "compute_metrics",
]
