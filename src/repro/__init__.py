"""repro — reproduction of *Balls-into-Bins with Nearly Optimal Load Distribution*.

Berenbrink, Khodamoradi, Sauerwald, Stauffer — SPAA 2013.

The package is organised as follows:

* :mod:`repro.api` — the unified spec-driven entry point: declarative
  :class:`SimulationSpec`/:class:`DispatchSpec` documents, streaming
  :class:`Simulation` sessions and the :func:`simulate` facade.
* :mod:`repro.core` — the paper's ADAPTIVE and THRESHOLD protocols, the
  smoothness potentials and the protocol registry.
* :mod:`repro.baselines` — every comparison protocol of Table 1
  (single-choice, greedy[d], left[d], (d,k)-memory, rebalancing).
* :mod:`repro.runtime` — probe streams, seeding, cost accounting and the
  round-based message engine.
* :mod:`repro.parallel` — parallel balls-into-bins protocols (related work
  substrate).
* :mod:`repro.theory` — closed-form bounds and concentration inequalities.
* :mod:`repro.stats` — trial summaries and empirical distribution tools.
* :mod:`repro.hashing` / :mod:`repro.scheduler` — the hashing and
  load-balancing applications that motivate the paper.
* :mod:`repro.experiments` — the Table 1 / Figure 3 / smoothness experiment
  harness (spec-driven, with a ``repro-experiment`` CLI).
* :mod:`repro.reporting` — markdown/CSV tables and ASCII plots.

Quickstart
----------
Describe a run declaratively and simulate it — every protocol of the paper
(and of Table 1) is addressed by its registry name, and every result is a
:class:`RunResult`:

>>> from repro import SimulationSpec, simulate
>>> spec = SimulationSpec("adaptive", n_balls=100_000, n_bins=10_000, seed=1)
>>> result = simulate(spec)
>>> result.max_load <= 11
True
>>> simulate(spec.with_seed(2)).protocol
'adaptive'

Specs round-trip losslessly through JSON (log them, hash them, ship them to
workers), and :class:`Simulation` streams a run in chunks so loads, probe
counts and smoothness potentials can be inspected mid-flight:

>>> from repro import Simulation, SimulationSpec
>>> sim = Simulation(SimulationSpec("threshold", n_balls=50_000, n_bins=5_000, seed=3))
>>> state = sim.step(25_000)          # place the first half
>>> state.placed, state.probes > 0
(25000, True)
>>> final = sim.results()             # bit-identical to a one-shot run
>>> final.max_load <= 11
True

The scheduler speaks the same language — a :class:`DispatchSpec` plus a
:class:`WorkloadSpec` runs the batched dispatcher over a named workload:

>>> from repro import DispatchSpec, WorkloadSpec, simulate
>>> outcome = simulate(DispatchSpec("weighted", n_servers=100, seed=4,
...     workload=WorkloadSpec("heavy-tailed", n_jobs=10_000, seed=5)))
>>> outcome.metrics.makespan >= outcome.metrics.avg_work
True
"""

from repro._version import __version__
from repro.api import (
    DispatchSpec,
    Simulation,
    SimulationSpec,
    SimulationState,
    WorkloadSpec,
    simulate,
    spec_from_dict,
    spec_from_json,
)
from repro.core import (
    AdaptiveProtocol,
    AllocationProtocol,
    AllocationResult,
    RunResult,
    ThresholdProtocol,
    active_backend,
    available_protocols,
    exponential_potential,
    get_protocol,
    load_gap,
    make_protocol,
    max_final_load,
    quadratic_potential,
    use_backend,
)
from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    ReproError,
)

# Importing the baselines and parallel protocols registers them with the
# protocol registry so that `make_protocol("greedy", d=2)`,
# `make_protocol("parallel-collision")` and the experiment harness work out of
# the box.
from repro import baselines as _baselines  # noqa: F401  (import for side effect)
from repro import parallel as _parallel  # noqa: F401  (import for side effect)

__all__ = [
    "__version__",
    # Spec-driven facade (the documented quickstart path).
    "SimulationSpec",
    "DispatchSpec",
    "WorkloadSpec",
    "Simulation",
    "SimulationState",
    "simulate",
    "spec_from_dict",
    "spec_from_json",
    # Core protocol surface.
    "AdaptiveProtocol",
    "ThresholdProtocol",
    "AllocationProtocol",
    "RunResult",
    "AllocationResult",
    "available_protocols",
    "get_protocol",
    "make_protocol",
    "max_final_load",
    "quadratic_potential",
    "exponential_potential",
    "load_gap",
    # Kernel backends (execution strategy; results are backend-independent).
    "use_backend",
    "active_backend",
    # Errors.
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "CapacityExceededError",
    "ExperimentError",
]
