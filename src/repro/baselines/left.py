"""left[d]: Vöcking's always-go-left protocol with asymmetric tie breaking.

The ``n`` bins are split into ``d`` groups of (almost) equal size.  Every ball
samples one uniform bin from each group and is placed into a least loaded one;
ties are broken *asymmetrically* in favour of the leftmost group.  Vöcking
showed this achieves a maximum load of ``ln ln n / (d · ln Φ_d) + O(1)`` for
``m = n`` — better than greedy[d] even though it uses the same number of
probes — and that this matches his general lower bound.  Berenbrink et al.
extended the analysis to the heavily loaded case (Table 1, second row).

The per-ball loop of the seed implementation (kept as
:func:`repro.baselines.reference.reference_left`) is replaced by the chunked
commit engine of :mod:`repro.baselines.engine`; the leftmost-minimum rule is
exactly the engine's first-minimum tie-break, so the loads are bit-identical
to the sequential loop for the same randomness.

Replay contract
---------------
Seeded runs sample each ball's in-group offsets from one up-front matrix of
uniform floats, exactly as the seed implementation did (any group sizes).
When an explicit ``probe_stream`` is given the groups must be of equal size
(``n_bins`` divisible by ``d``): the ``g``-th probe of a ball, uniform over
``{0, …, n-1}``, maps to the uniform in-group choice ``g·(n/d) + probe mod
(n/d)``, consuming ``d`` stream probes per ball in ball order — which is what
lets a :class:`~repro.runtime.probes.FixedProbeStream` replay certify the
engine against the reference.  Unequal groups cannot be driven by a uniform
stream without biasing some bins, so that case still raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.baselines.engine import batched_argmin_commit, matrix_source
from repro.baselines.greedy import DChoiceSession, d_choice_result
from repro.core.protocol import AllocationProtocol, register_protocol
from repro.core.result import AllocationResult
from repro.errors import ConfigurationError
from repro.runtime.probes import ProbeStream, RandomProbeStream
from repro.runtime.rng import SeedLike

__all__ = [
    "LeftProtocol",
    "run_left",
    "group_boundaries",
    "check_replay_groups",
    "replay_group_map",
    "seeded_group_choices",
    "left_source",
]


def _check_groups(n_bins: int, d: int) -> None:
    if d < 1:
        raise ConfigurationError(f"d must be at least 1, got {d}")
    if n_bins < d:
        raise ConfigurationError(
            f"need at least d={d} bins to form d groups, got {n_bins}"
        )


def group_boundaries(n_bins: int, d: int) -> np.ndarray:
    """Return the ``d+1`` boundaries splitting ``n_bins`` bins into ``d`` groups.

    Group ``g`` consists of bins ``boundaries[g] … boundaries[g+1]-1``.  The
    first ``n_bins % d`` groups receive one extra bin so that every bin
    belongs to exactly one group.
    """
    _check_groups(n_bins, d)
    sizes = np.full(d, n_bins // d, dtype=np.int64)
    sizes[: n_bins % d] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


def check_replay_groups(n_bins: int, d: int) -> None:
    """Raise unless ``n_bins`` bins split into ``d`` equal, non-empty groups.

    The precondition of the replay contract (:func:`replay_group_map`),
    decided by arithmetic alone, so a configuration check can apply it to
    any size without building the group map.  Unequal groups cannot be
    driven by a uniform stream without biasing some bins, hence the
    :class:`~repro.errors.ConfigurationError`.
    """
    _check_groups(n_bins, d)
    if n_bins % d:
        raise ConfigurationError(
            "left[d] probe replay needs equal groups: n_bins must be "
            f"divisible by d, got {n_bins} bins and d={d}"
        )


def replay_group_map(n_bins: int, d: int) -> tuple[np.ndarray, int]:
    """Return ``(group_base, size)`` for mapping uniform probes onto groups.

    This is the single home of the left[d] replay contract: it requires
    equal groups (:func:`check_replay_groups`) and a probe ``v`` uniform
    over ``{0, …, n-1}`` for group ``g`` maps to the uniform in-group choice
    ``group_base[g] + v % size``.  Both :class:`LeftProtocol` and the
    dispatcher's ``"left"`` policy (plus their per-ball references) go
    through this helper, so the mapping cannot silently diverge.  Equal
    groups start at ``g * size``.
    """
    check_replay_groups(n_bins, d)
    size = n_bins // d
    return np.arange(d, dtype=np.int64) * size, size


def seeded_group_choices(
    n_bins: int, d: int, n_balls: int, generator: np.random.Generator
) -> np.ndarray:
    """Draw every ball's one-bin-per-group choices from uniform floats.

    ``choices[i, g]`` is the bin ball ``i`` samples from group ``g`` —
    exactly the seed implementation's up-front float-offset sampling, which
    works for any group sizes.  This is the single home of the seeded
    left[d] sampling, used through :func:`left_source` and by the per-ball
    references.

    Each column is scaled and offset on its own: a broadcast against the
    length-``d`` sizes runs NumPy's inner loop over ``d`` elements at a
    time.  The products are non-negative, so the int64 cast truncates to
    the same integer as ``np.floor``.
    """
    boundaries = group_boundaries(n_bins, d)
    sizes = np.diff(boundaries)
    offsets = generator.random(size=(n_balls, d))
    choices = np.empty((n_balls, d), dtype=np.int64)
    for g in range(d):
        column = choices[:, g]
        column[...] = offsets[:, g] * float(sizes[g])
        column += boundaries[g]
    return choices


def left_source(
    n_bins: int, d: int, n_balls: int, stream: ProbeStream, replay: bool
) -> Callable[[int, int], np.ndarray]:
    """The commit-engine source of ``n_balls`` left[d] balls on ``stream``.

    With ``replay`` each ball's ``d`` stream probes map onto equal groups
    (:func:`replay_group_map`); otherwise the seeded one-per-group matrix of
    :func:`seeded_group_choices` is drawn up front from ``stream.generator``
    and sliced.  Every vectorised left[d] caller — :class:`LeftProtocol`,
    the weighted left[d] session and the Dispatcher's ``"left"`` and
    ``"weighted-left"`` policies — takes its candidates from here.
    """
    if replay:
        group_base, size = replay_group_map(n_bins, d)
        return lambda start, count: group_base + stream.take_matrix(count, d) % size
    return matrix_source(seeded_group_choices(n_bins, d, n_balls, stream.generator))


@register_protocol
class LeftProtocol(AllocationProtocol):
    """left[d] allocation (Vöcking's asymmetric tie-breaking rule).

    Parameters
    ----------
    d:
        Number of groups / choices per ball (``d >= 2`` for the asymmetry to
        matter, but ``d = 1`` is accepted and equals single-choice).
    """

    name = "left"
    streaming = True
    batches = True

    def __init__(self, d: int = 2) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be at least 1, got {d}")
        self.d = int(d)

    def params(self) -> dict[str, Any]:
        return {"d": self.d}

    def begin(
        self,
        n_balls: int,
        n_bins: int,
        seed: SeedLike = None,
        *,
        probe_stream: ProbeStream | None = None,
        record_trace: bool = False,
    ) -> DChoiceSession:
        self.validate_size(n_balls, n_bins)
        stream = probe_stream or RandomProbeStream(n_bins, seed)
        source = left_source(
            n_bins, self.d, n_balls, stream, replay=probe_stream is not None
        )
        return DChoiceSession(
            self,
            n_balls,
            n_bins,
            stream,
            d=self.d,
            source=source,
            record_trace=record_trace,
        )

    def _allocate_trials(self, n_balls, n_bins, batch, seeds):
        loads = np.zeros((batch.trials, n_bins), dtype=np.int64)
        # Each trial takes its candidates from its own stream, exactly as
        # the single-trial session does.
        sources = [
            left_source(n_bins, self.d, n_balls, child, replay=seeds is None)
            for child in batch.children
        ]
        if n_balls:
            batched_argmin_commit(loads, sources, n_balls, self.d)
        return [d_choice_result(self, n_balls, n_bins, row.copy()) for row in loads]


def run_left(
    n_balls: int,
    n_bins: int,
    seed: SeedLike = None,
    *,
    d: int = 2,
    **params: Any,
) -> AllocationResult:
    """Functional one-liner for :class:`LeftProtocol`.

    Remaining keyword arguments are forwarded to the constructor, so wrapper
    runs agree with registry runs for the same parameter dictionary.
    """
    return LeftProtocol(d=d, **params).allocate(n_balls, n_bins, seed)
