"""Core of the reproduction: the paper's ADAPTIVE and THRESHOLD protocols.

This subpackage contains the primary contribution of the paper and the
machinery shared by every allocation scheme:

* :mod:`repro.core.adaptive` / :mod:`repro.core.threshold` — the two
  protocols analysed in the paper,
* :mod:`repro.core.window` — the exact vectorised constant-threshold window
  simulation both protocols are built on,
* :mod:`repro.core.reference` — literal ball-by-ball implementations used to
  validate the vectorised engines,
* :mod:`repro.core.potentials` — the smoothness potentials ``Ψ`` and ``Φ``,
* :mod:`repro.core.thresholds` — exact integer acceptance-limit arithmetic,
* :mod:`repro.core.protocol` / :mod:`repro.core.result` — the protocol
  interface, registry and result records,
* :mod:`repro.core.backend` — pluggable kernel backends (numpy, checked
  against the scalar reference loops) behind the engines' primitive
  kernels.
"""

from repro.core.adaptive import AdaptiveProtocol, run_adaptive
from repro.core.backend import (
    DEFAULT_BACKEND,
    KernelBackend,
    active_backend,
    backend_names,
    describe_backends,
    get_backend,
    register_backend,
    resolve_backend,
    use_backend,
)
from repro.core.potentials import (
    DEFAULT_EPSILON,
    exponential_potential,
    holes,
    load_gap,
    log_exponential_potential,
    quadratic_potential,
    smoothness_summary,
    underloaded_bins,
)
from repro.core.protocol import (
    AllocationProtocol,
    available_protocols,
    get_protocol,
    make_protocol,
    register_protocol,
)
from repro.core.reference import reference_adaptive, reference_threshold
from repro.core.result import AllocationResult, RunResult
from repro.core.threshold import ThresholdProtocol, run_threshold
from repro.core.weighted import (
    WeightedAdaptiveProtocol,
    WeightedAllocationResult,
    WeightedGreedyProtocol,
    WeightedRunResult,
    WeightedThresholdProtocol,
    reference_weighted_adaptive,
    reference_weighted_greedy,
    reference_weighted_threshold,
    run_weighted_adaptive,
    run_weighted_greedy,
    run_weighted_threshold,
    weighted_gap_bound,
)
from repro.core.weighted_engine import (
    adaptive_weighted_thresholds,
    chunked_weighted_assign,
    default_weighted_chunk_size,
    fixed_weighted_threshold,
)
from repro.core.thresholds import (
    StageWindow,
    acceptance_limit,
    ceil_div,
    max_final_load,
    stage_of_ball,
    stage_windows,
)
from repro.core.window import WindowOutcome, fill_window, occurrence_ranks

__all__ = [
    "AdaptiveProtocol",
    "run_adaptive",
    "ThresholdProtocol",
    "run_threshold",
    "AllocationProtocol",
    "AllocationResult",
    "RunResult",
    "available_protocols",
    "get_protocol",
    "make_protocol",
    "register_protocol",
    "reference_adaptive",
    "reference_threshold",
    "DEFAULT_EPSILON",
    "exponential_potential",
    "holes",
    "load_gap",
    "log_exponential_potential",
    "quadratic_potential",
    "smoothness_summary",
    "underloaded_bins",
    "StageWindow",
    "acceptance_limit",
    "ceil_div",
    "max_final_load",
    "stage_of_ball",
    "stage_windows",
    "WindowOutcome",
    "fill_window",
    "occurrence_ranks",
    "WeightedAllocationResult",
    "WeightedRunResult",
    "WeightedAdaptiveProtocol",
    "WeightedThresholdProtocol",
    "WeightedGreedyProtocol",
    "run_weighted_adaptive",
    "run_weighted_threshold",
    "run_weighted_greedy",
    "reference_weighted_adaptive",
    "reference_weighted_threshold",
    "reference_weighted_greedy",
    "weighted_gap_bound",
    "adaptive_weighted_thresholds",
    "chunked_weighted_assign",
    "default_weighted_chunk_size",
    "fixed_weighted_threshold",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "active_backend",
    "backend_names",
    "describe_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "use_backend",
]
