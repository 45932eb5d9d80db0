"""Chunked commits of the (d,k)-memory hand-off.

The (d,k)-memory protocol (Mitzenmacher–Prabhakar–Shah; Table 1, row 3)
hands each ball the ``k`` least loaded bins remembered from the previous
ball, so each decision depends on the full candidate set of its
predecessor.  :func:`chunked_memory_commit` places a run of balls, unit or
weighted (the ``weighted-memory`` protocol: per-ball ``weights`` are added
to float loads instead of 1), without changing a single placement:

* ``k == 0`` — the remembered set is empty, so the protocol *is* greedy[d]
  with first-minimum ties; balls run straight through the conflict-free
  commit engine of :mod:`repro.baselines.engine`.
* every ``k >= 1`` runs the active backend's ``memory_fallback``: bulk
  fresh draws feeding a sequential loop over plain Python numbers.  Unit
  balls at ``d == k == 1``, the paper-relevant configuration (Table 1 uses
  (1,1)-memory), have their own two-candidate loop
  (:func:`~repro.core.backend.memory11_hand_off`) whose state is just the
  remembered bin and its load; every other call runs the general rule
  (:func:`chunked_memory_hand_off`).  The loops beat every vectorised
  treatment measured: 0.3-0.8x for ``d > 1`` or ``k >= 2``, and a
  provisional fixpoint engine for ``d == k == 1`` that took ~3x the loop's
  time at ``10^4`` bins, 13x or more at ``64-256`` bins and about the same
  at ``10^6`` bins.

The result — final loads, per-ball assignments and probe-stream consumption
— is **bit-identical** to the per-ball references
(:func:`repro.baselines.reference.reference_memory`,
:func:`repro.core.weighted.reference_weighted_memory`) for every
``(d, k)``, which ``tests/test_memory_engine.py`` and
``tests/test_weighted_equivalence.py`` certify under shared
:class:`~repro.runtime.probes.FixedProbeStream` replay.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.engine import chunked_argmin_commit
from repro.core.backend import (  # noqa: F401  (re-exported scalar rules)
    active_backend,
    chunked_memory_hand_off,
    memory_hand_off,
)
from repro.core.window import (
    _check_assignments,
    _check_covers,
    _check_weighted,
    _check_writeable,
)
from repro.errors import ConfigurationError
from repro.runtime.probes import ProbeStream

__all__ = [
    "memory_hand_off",
    "chunked_memory_hand_off",
    "chunked_memory_commit",
]


# --------------------------------------------------------------------- #
# The commit driver (the literal rules themselves live in
# repro.core.backend, single-homed across every execution strategy)
# --------------------------------------------------------------------- #
def chunked_memory_commit(
    stream: ProbeStream,
    loads: np.ndarray,
    memory: list[int],
    n_balls: int,
    d: int,
    k: int,
    assignments: np.ndarray | None = None,
    chunk_size: int | None = None,
    weights: np.ndarray | None = None,
) -> list[int]:
    """Place ``n_balls`` (d,k)-memory balls with the sequential rule.

    Parameters
    ----------
    stream:
        Probe stream; consumes exactly ``n_balls * d`` probes in the same
        row-major order as a per-ball loop (one bulk
        :meth:`~repro.runtime.probes.ProbeStream.take_matrix` per chunk).
    loads:
        Per-bin load vector, updated in place: int64 ball counts, or
        float64 total weights when ``weights`` is given.
    memory:
        Remembered bins entering the run (``[]`` at a fresh start); the
        updated remembered set is returned, so callers can stream any split
        of the balls through repeated calls bit-identically.
    n_balls, d, k:
        Chunk of the protocol to execute.
    assignments:
        Optional int64 output vector of length ``n_balls``; ball ``i``
        writes its bin to ``assignments[i]``.
    chunk_size:
        Balls per fresh draw; any value yields bit-identical results.
    weights:
        Optional per-ball weights covering the ``n_balls`` balls: each
        placement adds the ball's weight instead of 1, and candidates
        compete on weighted load.

    ``k == 0`` delegates to the conflict-free d-choice engine; every other
    configuration runs the active backend's ``memory_fallback`` — the
    chunk-drawn scalar hand-off, with its own two-candidate loop for unit
    balls at ``d == k == 1``.
    """
    if n_balls < 0:
        raise ConfigurationError(f"n_balls must be non-negative, got {n_balls}")
    if d < 1:
        raise ConfigurationError(f"d must be at least 1, got {d}")
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    _check_writeable(loads)
    if weights is not None:
        _check_weighted(loads)
        _check_covers("weights", weights, n_balls)
    _check_assignments(assignments, n_balls)
    memory = [int(b) for b in memory]
    if not n_balls:
        return memory

    if k == 0:
        chunked_argmin_commit(
            loads,
            lambda start, count: stream.take_matrix(count, d),
            n_balls,
            d,
            chunk_size=chunk_size,
            assignments=assignments,
            weights=weights,
        )
        return []

    return active_backend().memory_fallback(
        stream,
        loads,
        memory,
        n_balls,
        d,
        k,
        assignments=assignments,
        chunk_size=chunk_size,
        weights=weights,
    )
