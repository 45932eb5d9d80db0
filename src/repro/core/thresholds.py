"""Exact integer arithmetic for the protocols' acceptance thresholds.

Both protocols accept a ball into a bin iff the bin's *current* load is
strictly below a threshold of the form ``k/n + offset`` (``k = i`` for
ADAPTIVE, ``k = m`` for THRESHOLD, ``offset = 1`` in the paper).  Because
loads are integers, the condition ``load < k/n + offset`` is equivalent to
``load ≤ ceil(k/n) + offset − 1``; we call that integer the *acceptance
limit*.  Doing this with integer arithmetic avoids floating-point edge cases
at stage boundaries (e.g. ``k`` an exact multiple of ``n``).

A useful consequence (used by the vectorised engines and by the analysis in
Section 3 of the paper): the acceptance limit of ADAPTIVE is constant within
each *stage* of ``n`` consecutive balls, because ``ceil(i/n) = s + 1`` for
every ball ``i`` in stage ``s`` (balls ``s·n+1 … (s+1)·n``).
:func:`stage_segments` is the one place that cuts a run of balls at stage
ends; the streaming sessions, :func:`stage_windows` and the Dispatcher's
``adaptive`` policy all take their pieces from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError

__all__ = [
    "ceil_div",
    "acceptance_limit",
    "max_final_load",
    "stage_of_ball",
    "StageWindow",
    "stage_windows",
    "stage_segments",
]


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ConfigurationError(f"divisor must be positive, got {b}")
    if a < 0:
        raise ConfigurationError(f"dividend must be non-negative, got {a}")
    return -(-a // b)


def acceptance_limit(k: int, n: int, offset: int = 1) -> int:
    """Largest current load at which a ball with threshold ``k/n + offset`` is accepted.

    Parameters
    ----------
    k:
        Numerator of the fractional part of the threshold: the ball index
        ``i`` for ADAPTIVE, the total number of balls ``m`` for THRESHOLD.
    n:
        Number of bins.
    offset:
        Additive constant of the threshold.  The paper uses ``offset = 1``;
        ``offset = 0`` gives the coupon-collector variant discussed in
        Section 2 (used as an ablation).

    Returns
    -------
    int
        The acceptance limit ``ceil(k/n) + offset − 1``: a ball is accepted
        into bin ``j`` iff ``load_j <= acceptance_limit(k, n, offset)``.
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    return ceil_div(k, n) + offset - 1


def max_final_load(m: int, n: int, offset: int = 1) -> int:
    """Deterministic upper bound on the final maximum load.

    A ball is only ever accepted into a bin whose load is at most the
    acceptance limit, so the final load never exceeds the limit of the last
    ball plus one: ``ceil(m/n) + offset``.  With ``offset = 1`` this is the
    paper's ``ceil(m/n) + 1`` guarantee.
    """
    if m < 0:
        raise ConfigurationError(f"m must be non-negative, got {m}")
    if m == 0:
        return 0
    return acceptance_limit(m, n, offset) + 1


def stage_of_ball(i: int, n: int) -> int:
    """Zero-based stage index of ball ``i`` (balls are 1-indexed).

    Stage ``s`` covers balls ``s·n + 1 … (s+1)·n``.
    """
    if i <= 0:
        raise ConfigurationError(f"ball index must be positive, got {i}")
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    return (i - 1) // n


@dataclass(frozen=True)
class StageWindow:
    """One stage of an ADAPTIVE run.

    Attributes
    ----------
    stage:
        Zero-based stage index.
    first_ball, last_ball:
        1-indexed (inclusive) range of balls placed during this stage.
    acceptance_limit:
        The constant acceptance limit shared by every ball in the stage.
    """

    stage: int
    first_ball: int
    last_ball: int
    acceptance_limit: int

    @property
    def n_balls(self) -> int:
        return self.last_ball - self.first_ball + 1


def stage_windows(m: int, n: int, offset: int = 1) -> Iterator[StageWindow]:
    """Yield the stages of an ADAPTIVE run of ``m`` balls into ``n`` bins.

    The final stage may be partial (fewer than ``n`` balls) when ``m`` is not
    a multiple of ``n``.
    """
    if m < 0:
        raise ConfigurationError(f"m must be non-negative, got {m}")
    for stage, first, last, _ in stage_segments(0, m, n):
        yield StageWindow(stage, first, last, acceptance_limit(last, n, offset))


def stage_segments(
    placed: int, count: int, n: int
) -> Iterator[tuple[int, int, int, bool]]:
    """Cut balls ``placed+1 … placed+count`` at the stage ends.

    Yields ``(stage, first_ball, last_ball, ends_stage)`` per piece: balls
    ``first_ball … last_ball`` (1-indexed, inclusive) of zero-based stage
    ``stage``, and whether ``last_ball`` is that stage's ``n``-th ball.
    The pieces tile the range in order, each inside one stage.  This is
    the single home of the stage arithmetic: the streaming sessions cut
    their chunks with it, so per-stage checkpoints and traces land on the
    same balls however a run is split, and the Dispatcher's ``adaptive``
    policy fills one window per piece.
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    first, last = placed + 1, placed + count
    while first <= last:
        stage = (first - 1) // n
        stage_end = (stage + 1) * n
        end = min(stage_end, last)
        yield stage, first, end, end == stage_end
        first = end + 1
