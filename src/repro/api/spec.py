"""Declarative simulation specifications.

A spec is a frozen, JSON-serialisable description of a run — protocol (or
dispatch policy) plus parameters, the scenario (ball/bin or job/server
counts, weight distributions, workload shape), seeds and trial counts.  The
CLI, the experiment harness, the scheduler and the :func:`repro.simulate`
facade all consume the same spec types, so one serialised document can be
logged, hashed into output filenames, shipped to a worker and replayed
bit-identically.

Three spec types exist, routed by the ``kind`` key of their dict form:

* :class:`SimulationSpec` (``"simulation"``) — a balls-into-bins run of one
  registered protocol;
* :class:`DispatchSpec` (``"dispatch"``) — a scheduler run of one dispatch
  policy over a workload;
* :class:`WorkloadSpec` (nested inside :class:`DispatchSpec`) — a named
  workload-generator invocation.

Every spec validates eagerly against the live registries (protocols, weight
distributions, workload generators, dispatch policies) and reports problems
as :class:`~repro.errors.ConfigurationError` with the offending field named.
``to_dict``/``from_dict`` (and the JSON wrappers) round-trip losslessly:
``Spec.from_dict(spec.to_dict()) == spec`` for every registered protocol and
weight distribution, which the test-suite certifies with hypothesis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.protocol import AllocationProtocol, make_protocol
from repro.errors import ConfigurationError

__all__ = [
    "SimulationSpec",
    "WorkloadSpec",
    "DispatchSpec",
    "spec_from_dict",
    "spec_from_json",
]


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{field_name}: {message}")


def _check_seed(seed: Any, field_name: str) -> int | None:
    if seed is None:
        return None
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigurationError(
            f"{field_name}: must be an int or None (JSON-serialisable), "
            f"got {type(seed).__name__}"
        )
    return int(seed)


def _check_params(params: Any, field_name: str) -> dict[str, Any]:
    if not isinstance(params, Mapping):
        raise ConfigurationError(
            f"{field_name}: must be a mapping of keyword arguments, "
            f"got {type(params).__name__}"
        )
    out = dict(params)
    for key in out:
        if not isinstance(key, str):
            raise ConfigurationError(
                f"{field_name}: parameter names must be strings, got {key!r}"
            )
    return out


def _check_backend(backend: Any) -> None:
    """Spec-level backend validation: registered name or ``None``."""
    from repro.core.backend import validate_backend_name

    validate_backend_name(backend)


def _from_dict(cls, data: Mapping[str, Any], kind: str, nested=None):
    """Shared ``from_dict``: check keys, strip ``kind``, build the dataclass."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"spec: expected a mapping, got {type(data).__name__}"
        )
    payload = dict(data)
    declared = payload.pop("kind", kind)
    if declared != kind:
        raise ConfigurationError(
            f"kind: expected {kind!r}, got {declared!r}"
        )
    allowed = set(cls.__dataclass_fields__)
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigurationError(
            f"{sorted(unknown)[0]}: unknown field for {cls.__name__} "
            f"(allowed: {sorted(allowed)})"
        )
    if nested:
        for key, build in nested.items():
            if payload.get(key) is not None:
                payload[key] = build(payload[key])
    return cls(**payload)


@dataclass(frozen=True)
class SimulationSpec:
    """Declarative description of a balls-into-bins run.

    Attributes
    ----------
    protocol:
        Registry name of the protocol (``"adaptive"``, ``"greedy"``,
        ``"weighted-adaptive"``, …; see
        :func:`repro.core.protocol.available_protocols`).
    n_balls, n_bins:
        Problem size.
    seed:
        Master seed (``None`` = fresh entropy).  With ``trials == 1`` it is
        passed to the protocol verbatim, so ``simulate(spec)`` is
        bit-identical to the legacy ``run_*``/``allocate`` entry points;
        with more trials, per-trial seeds are derived exactly as the
        experiment runner derives them.
    trials:
        Number of independent repetitions.
    record_trace:
        Record a per-stage trace, one
        :class:`~repro.runtime.trace.StageRecord` per ``n_bins`` balls.
        Every streaming protocol traces; the round and sweep protocols
        (``rebalancing``, ``parallel-greedy``, ``parallel-collision``)
        refuse with :class:`~repro.errors.ConfigurationError` before any
        probe is drawn.
    params:
        Keyword arguments for the protocol constructor — including
        ``weight_dist`` and distribution parameters for the weighted
        protocols, validated against the live registries.
    backend:
        Kernel backend to execute on (``"numpy"`` or ``"scalar"``; see
        :mod:`repro.core.backend`).  ``None`` (default)
        keeps the ambient selection — the ``"numpy"`` kernels unless a
        driver chose otherwise.  Purely an execution strategy: every
        backend produces bit-identical results.

    Examples
    --------
    >>> spec = SimulationSpec("adaptive", n_balls=10_000, n_bins=1_000, seed=7)
    >>> SimulationSpec.from_dict(spec.to_dict()) == spec
    True
    """

    protocol: str
    n_balls: int
    n_bins: int
    seed: int | None = None
    trials: int = 1
    record_trace: bool = False
    params: dict[str, Any] = field(default_factory=dict)
    backend: str | None = None

    def __post_init__(self) -> None:
        _require(isinstance(self.protocol, str), "protocol", "must be a string")
        _require(
            isinstance(self.n_balls, int) and not isinstance(self.n_balls, bool),
            "n_balls",
            f"must be an int, got {type(self.n_balls).__name__}",
        )
        _require(
            self.n_balls >= 0, "n_balls", f"must be non-negative, got {self.n_balls}"
        )
        _require(
            isinstance(self.n_bins, int) and not isinstance(self.n_bins, bool),
            "n_bins",
            f"must be an int, got {type(self.n_bins).__name__}",
        )
        _require(self.n_bins > 0, "n_bins", f"must be positive, got {self.n_bins}")
        object.__setattr__(self, "seed", _check_seed(self.seed, "seed"))
        _require(
            isinstance(self.trials, int) and not isinstance(self.trials, bool),
            "trials",
            f"must be an int, got {type(self.trials).__name__}",
        )
        _require(self.trials >= 1, "trials", f"must be at least 1, got {self.trials}")
        _require(
            isinstance(self.record_trace, bool),
            "record_trace",
            f"must be a bool, got {type(self.record_trace).__name__}",
        )
        object.__setattr__(self, "params", _check_params(self.params, "params"))
        _check_backend(self.backend)
        # Validate protocol name and params against the live registry (this
        # also covers weight_dist and distribution parameters, which the
        # weighted protocol constructors check against WEIGHT_DISTRIBUTIONS).
        try:
            self.build_protocol()
        except ConfigurationError as exc:
            raise ConfigurationError(f"protocol/params: {exc}") from exc

    # ------------------------------------------------------------------ #
    def build_protocol(self) -> AllocationProtocol:
        """Instantiate the spec's protocol from the registry."""
        return make_protocol(self.protocol, **self.params)

    def with_seed(self, seed: int | None) -> "SimulationSpec":
        """Copy of the spec with a different master seed."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------ #
    # Lossless serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "simulation",
            "protocol": self.protocol,
            "n_balls": self.n_balls,
            "n_bins": self.n_bins,
            "seed": self.seed,
            "trials": self.trials,
            "record_trace": self.record_trace,
            "params": dict(self.params),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationSpec":
        return _from_dict(cls, data, "simulation")

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SimulationSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a workload-generator invocation.

    ``kind`` names a generator in :data:`repro.scheduler.jobs.WORKLOADS`
    (``"uniform"``, ``"heavy-tailed"``, ``"bursty"``, ``"weighted"``);
    ``params`` are its keyword arguments (burst sizes, weight distribution
    names, …), validated eagerly by a zero-job dry run of the generator.
    """

    kind: str
    n_jobs: int
    seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.scheduler.jobs import WORKLOADS

        _require(isinstance(self.kind, str), "workload.kind", "must be a string")
        _require(
            self.kind in WORKLOADS,
            "workload.kind",
            f"unknown workload {self.kind!r}; available: {sorted(WORKLOADS)}",
        )
        _require(
            isinstance(self.n_jobs, int) and not isinstance(self.n_jobs, bool),
            "workload.n_jobs",
            f"must be an int, got {type(self.n_jobs).__name__}",
        )
        _require(
            self.n_jobs >= 0,
            "workload.n_jobs",
            f"must be non-negative, got {self.n_jobs}",
        )
        object.__setattr__(self, "seed", _check_seed(self.seed, "workload.seed"))
        object.__setattr__(
            self, "params", _check_params(self.params, "workload.params")
        )
        try:
            # Zero-job dry run: generators validate their parameters before
            # touching sizes, so this catches bad params without any work.
            from repro.scheduler.jobs import make_workload

            make_workload(self.kind, 0, None, **self.params)
        except ConfigurationError as exc:
            raise ConfigurationError(f"workload.params: {exc}") from exc
        except TypeError as exc:
            raise ConfigurationError(f"workload.params: {exc}") from exc

    def build(self):
        """Generate the workload."""
        from repro.scheduler.jobs import make_workload

        return make_workload(self.kind, self.n_jobs, self.seed, **self.params)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n_jobs": self.n_jobs,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"workload: expected a mapping, got {type(data).__name__}"
            )
        payload = dict(data)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"workload.{sorted(unknown)[0]}: unknown field for WorkloadSpec"
            )
        return cls(**payload)


@dataclass(frozen=True)
class DispatchSpec:
    """Declarative description of a scheduler dispatch run.

    ``policy`` is one of the :class:`repro.scheduler.Dispatcher` policies;
    ``params`` maps onto the dispatcher's policy parameters (``d``, ``k``,
    ``w_max``).  With a ``workload`` attached, :func:`repro.simulate`
    dispatches it and returns the unified
    :class:`~repro.scheduler.dispatcher.DispatchResult`.
    """

    policy: str
    n_servers: int
    workload: WorkloadSpec | None = None
    seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    block_size: int | None = None
    small_burst: int | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        _require(isinstance(self.policy, str), "policy", "must be a string")
        _require(
            isinstance(self.n_servers, int) and not isinstance(self.n_servers, bool),
            "n_servers",
            f"must be an int, got {type(self.n_servers).__name__}",
        )
        _require(
            self.n_servers > 0,
            "n_servers",
            f"must be positive, got {self.n_servers}",
        )
        if self.workload is not None and not isinstance(self.workload, WorkloadSpec):
            raise ConfigurationError(
                "workload: must be a WorkloadSpec or None, "
                f"got {type(self.workload).__name__}"
            )
        object.__setattr__(self, "seed", _check_seed(self.seed, "seed"))
        object.__setattr__(self, "params", _check_params(self.params, "params"))
        for name in ("block_size", "small_burst"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ConfigurationError(
                    f"{name}: must be an int or None, got {type(value).__name__}"
                )
        _check_backend(self.backend)
        allowed = {"d", "k", "w_max"}
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigurationError(
                f"params: unknown dispatch parameter {sorted(unknown)[0]!r} "
                f"(allowed: {sorted(allowed)})"
            )
        try:
            self._validate_policy()
        except ConfigurationError as exc:
            raise ConfigurationError(f"policy/params: {exc}") from exc

    def _validate_policy(self) -> None:
        """Field-level checks mirroring the Dispatcher constructor.

        Deliberately does *not* build a dispatcher: construction allocates
        O(n_servers) server state, which a spec that is merely being
        deserialised, logged or compared should never pay.
        """
        from repro.baselines.left import replay_group_map
        from repro.scheduler.dispatcher import _POLICIES

        if self.policy not in _POLICIES:
            raise ConfigurationError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}"
            )
        d = self.params.get("d", 2)
        k = self.params.get("k", 1)
        w_max = self.params.get("w_max")
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ConfigurationError(f"d must be an int >= 1, got {d!r}")
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ConfigurationError(f"k must be a non-negative int, got {k!r}")
        if w_max is not None and (
            isinstance(w_max, bool)
            or not isinstance(w_max, (int, float))
            or not 0 < w_max < math.inf
        ):
            raise ConfigurationError(
                f"w_max must be positive and finite, got {w_max!r}"
            )
        if self.policy in ("left", "weighted-left"):
            replay_group_map(self.n_servers, d)
        if self.block_size is not None and self.block_size <= 0:
            raise ConfigurationError("block_size must be positive when given")
        if self.small_burst is not None and self.small_burst < 0:
            raise ConfigurationError(
                f"small_burst must be non-negative or None (auto), "
                f"got {self.small_burst}"
            )

    def build_dispatcher(self, probe_stream=None):
        """Construct the dispatcher this spec describes."""
        from repro.scheduler.dispatcher import Dispatcher

        return Dispatcher.from_spec(self, probe_stream=probe_stream)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "dispatch",
            "policy": self.policy,
            "n_servers": self.n_servers,
            "workload": None if self.workload is None else self.workload.to_dict(),
            "seed": self.seed,
            "params": dict(self.params),
            "block_size": self.block_size,
            "small_burst": self.small_burst,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DispatchSpec":
        return _from_dict(
            cls, data, "dispatch", nested={"workload": WorkloadSpec.from_dict}
        )

    def to_json(self, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "DispatchSpec":
        return cls.from_dict(json.loads(text))


_KINDS = {
    "simulation": SimulationSpec.from_dict,
    "dispatch": DispatchSpec.from_dict,
}


def spec_from_dict(data: Mapping[str, Any]) -> SimulationSpec | DispatchSpec:
    """Rebuild a spec from its dict form, routed by the ``kind`` key.

    A missing ``kind`` defaults to ``"simulation"``.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"spec: expected a mapping, got {type(data).__name__}"
        )
    kind = data.get("kind", "simulation")
    try:
        build = _KINDS[kind]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"kind: unknown spec kind {kind!r}; available: {sorted(_KINDS)}"
        ) from None
    return build(data)


def spec_from_json(text: str) -> SimulationSpec | DispatchSpec:
    """Rebuild a spec from its JSON form (see :func:`spec_from_dict`)."""
    return spec_from_dict(json.loads(text))
