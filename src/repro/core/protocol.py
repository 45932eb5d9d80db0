"""Protocol interface and registry.

Every allocation scheme in the package — the paper's ADAPTIVE and THRESHOLD,
and every baseline of Table 1 — implements :class:`AllocationProtocol`.  The
registry lets experiments and the CLI refer to protocols by name
(``"adaptive"``, ``"threshold"``, ``"greedy"``, …) and instantiate them from
plain keyword dictionaries, which keeps the experiment configuration
serialisable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.backend import active_backend
from repro.core.result import AllocationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.session import ProtocolSession
from repro.errors import ConfigurationError
from repro.runtime.probes import BatchedProbeStream, ProbeStream
from repro.runtime.rng import SeedLike

__all__ = [
    "AllocationProtocol",
    "register_protocol",
    "get_protocol",
    "available_protocols",
    "make_protocol",
]


class AllocationProtocol:
    """Sequential balls-into-bins allocation protocol.

    Streaming protocols implement :meth:`begin`, and :meth:`allocate` runs
    that session to completion; the others override :meth:`allocate`.
    Either way a protocol must

    * place exactly ``m`` balls into ``n`` bins,
    * report the number of random bin choices consumed as
      ``AllocationResult.allocation_time``, and
    * be deterministic given a seed (or a supplied probe stream).
    """

    #: Registry name; subclasses override this class attribute.
    name: str = "abstract"

    def __init__(self, **params: Any) -> None:
        if params:
            raise ConfigurationError(
                f"protocol {self.name!r} does not accept parameters {sorted(params)}"
            )

    def allocate(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> AllocationResult:
        """Allocate ``n_balls`` balls into ``n_bins`` bins.

        The one-shot run is the streaming session of :meth:`begin` driven to
        completion, so any split of a stepped run is bit-identical to it by
        construction.

        Parameters
        ----------
        n_balls, n_bins:
            Problem size; ``n_bins`` must be positive, ``n_balls``
            non-negative.
        seed:
            Seed / generator for the run's randomness (ignored when
            ``probe_stream`` is given and the protocol needs no other
            randomness).
        probe_stream:
            Optional explicit probe stream; used by tests to replay a fixed
            choice vector.  Protocols that do not consume uniform probes
            (e.g. the parallel baselines) may reject it.
        record_trace:
            When true, record a per-stage :class:`~repro.runtime.trace.Trace`.
        """
        return self.begin(
            n_balls,
            n_bins,
            seed,
            probe_stream=probe_stream,
            record_trace=record_trace,
        ).result()

    #: Whether :meth:`begin` is implemented (sequential per-ball placement).
    streaming: bool = False

    #: Whether the protocol has a trial-axis body, :meth:`_allocate_trials`.
    #: The unit greedy[d] and left[d] baselines run their trials as one
    #: combined commit instance; ADAPTIVE fills each stage window for the
    #: whole block with one :func:`~repro.core.window.fill_window_batch`
    #: call, which runs the single-run engine per trial.  ``False`` means
    #: the per-trial loop: THRESHOLD and single-choice, whose single-run
    #: engines are as fast as a trial axis, and the protocols whose
    #: placement is data-dependent across probes (the memory chain, the
    #: weighted commit regimes).  :meth:`allocate_batch` alone chooses
    #: between the two.
    batches: bool = False

    def allocate_batch(
        self,
        n_balls: int,
        n_bins: int,
        seeds: Sequence[SeedLike] | None = None,
        *,
        probe_streams: Sequence[ProbeStream] | None = None,
        record_trace: bool = False,
    ) -> list[AllocationResult]:
        """Run one independent trial per seed, all on the same problem size.

        Entry ``i`` of the returned list is **bit-identical** (same loads,
        same probe counts, same cost checkpoints, same trace) to
        ``allocate(n_balls, n_bins, seeds[i])`` — certified by the
        test-suite for every protocol.  The batch is validated once, before
        any trial draws a probe.  A ``batches = True`` protocol runs its
        trial-axis body when the active backend is ``vectorised`` and no
        trace is requested; every other call loops :meth:`allocate` per
        trial, so every protocol exposes the same batch API whether or not
        batching pays off for it.

        Parameters
        ----------
        seeds:
            One seed per trial (typically the table from
            :func:`repro.runtime.rng.trial_seed_table`).
        probe_streams:
            Optional explicit per-trial probe streams (replay/testing);
            mutually exclusive with ``seeds``.  Each trial consumes its own
            stream over ``n_bins`` bins, so one stream object given for two
            trials, or a stream over other bins, is rejected.
        record_trace:
            Forwarded to each trial's run.
        """
        self.validate_size(n_balls, n_bins)
        if (seeds is None) == (probe_streams is None):
            raise ConfigurationError(
                "allocate_batch needs exactly one of seeds or probe_streams"
            )
        trials = len(seeds if seeds is not None else probe_streams)
        if trials < 1:
            raise ConfigurationError("allocate_batch needs at least one trial")
        if probe_streams is not None:
            if len({id(s) for s in probe_streams}) < trials:
                raise ConfigurationError(
                    "probe_streams must be distinct objects: each trial consumes its own"
                )
            if any(stream.n_bins != n_bins for stream in probe_streams):
                raise ConfigurationError(
                    "probe_stream.n_bins does not match the requested n_bins"
                )
        if self.batches and not record_trace and active_backend().vectorised:
            batch = (
                BatchedProbeStream.from_seeds(n_bins, list(seeds))
                if seeds is not None
                else BatchedProbeStream(list(probe_streams))
            )
            return self._allocate_trials(n_balls, n_bins, batch, seeds)
        return [
            self.allocate(
                n_balls,
                n_bins,
                None if seeds is None else seeds[i],
                probe_stream=None if probe_streams is None else probe_streams[i],
                record_trace=record_trace,
            )
            for i in range(trials)
        ]

    def _allocate_trials(
        self,
        n_balls: int,
        n_bins: int,
        batch: BatchedProbeStream,
        seeds: Sequence[SeedLike] | None,
    ) -> list[AllocationResult]:
        """The trial-axis body of a ``batches = True`` protocol.

        Called by :meth:`allocate_batch` on a validated batch: trial ``i``
        draws from ``batch.children[i]``, the stream its single-trial run
        would use, and ``seeds`` is the seed list (``None`` for replayed
        streams).
        """
        raise NotImplementedError

    def begin(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> "ProtocolSession":
        """Start a streaming session placing ``n_balls`` balls incrementally.

        The session (:class:`~repro.core.session.ProtocolSession`) places
        balls in caller-chosen chunks; :meth:`allocate` is this session run
        to completion.  Protocols whose placement is not sequential per ball
        (parallel rounds, rebalancing sweeps) raise
        :class:`~repro.errors.ConfigurationError`.
        """
        raise ConfigurationError(
            f"protocol {self.name!r} does not support streaming sessions; "
            "run it in one shot instead"
        )

    def describe(self) -> dict[str, Any]:
        """Return the protocol's name and parameters (for provenance)."""
        return {"name": self.name, **self.params()}

    def params(self) -> dict[str, Any]:
        """Parameters of this instance; subclasses with options override."""
        return {}

    @staticmethod
    def validate_size(n_balls: int, n_bins: int) -> None:
        """Shared validation of the problem size."""
        if n_bins <= 0:
            raise ConfigurationError(f"n_bins must be positive, got {n_bins}")
        if n_balls < 0:
            raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")

    def _refuse_trace(self, record_trace: bool) -> None:
        """Reject ``record_trace`` in a protocol without stages of ``n`` balls.

        The round and sweep protocols place their balls all at once, so
        they fail here, before any probe is drawn, instead of returning no
        trace.
        """
        if record_trace:
            raise ConfigurationError(
                f"protocol {self.name!r} places its balls in rounds or sweeps, "
                "not stage by stage, and cannot record a trace"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


_REGISTRY: dict[str, type[AllocationProtocol]] = {}


def register_protocol(
    cls: type[AllocationProtocol],
) -> type[AllocationProtocol]:
    """Class decorator adding ``cls`` to the protocol registry."""
    name = cls.name
    if not name or name == "abstract":
        raise ConfigurationError("registered protocols must define a unique name")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ConfigurationError(f"protocol name {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def get_protocol(name: str) -> type[AllocationProtocol]:
    """Return the protocol class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def make_protocol(name: str, **params: Any) -> AllocationProtocol:
    """Instantiate the protocol registered under ``name`` with ``params``.

    Parameter problems — unknown keyword, wrong arity, a value no
    conversion accepts (a NaN or infinite ``d``) — surface as
    :class:`~repro.errors.ConfigurationError` (instead of the bare
    ``TypeError``, ``ValueError`` or ``OverflowError`` a direct constructor
    call would raise), so spec validation can report them uniformly.
    """
    cls = get_protocol(name)
    try:
        return cls(**params)
    except ConfigurationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"invalid parameters for protocol {name!r}: {exc}"
        ) from exc


def available_protocols() -> Iterable[str]:
    """Names of all registered protocols, sorted."""
    return sorted(_REGISTRY)
