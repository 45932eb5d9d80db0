"""Summaries of repeated stochastic trials.

Figure 3 of the paper plots *averages over 100 simulations*; these helpers
turn a list of per-trial values into means, standard errors and normal-theory
confidence intervals so every experiment reports its uncertainty alongside
the point estimate.  scipy, needed only for the t quantile, is imported on
first use so that ``import repro`` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "TrialSummary",
    "summarize",
    "summarize_columns",
    "summarize_records",
    "relative_spread",
]


@dataclass(frozen=True)
class TrialSummary:
    """Mean / dispersion summary of one scalar metric over repeated trials."""

    n_trials: int
    mean: float
    std: float
    stderr: float
    ci_low: float
    ci_high: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n_trials": self.n_trials,
            "mean": self.mean,
            "std": self.std,
            "stderr": self.stderr,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(values: Sequence[float] | np.ndarray, confidence: float = 0.95) -> TrialSummary:
    """Summarise a sequence of per-trial scalar values.

    Uses a Student-t confidence interval (falling back to a degenerate
    interval for a single trial).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("values must be a non-empty 1-D sequence")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    n = int(arr.size)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    stderr = std / np.sqrt(n) if n > 1 else 0.0
    if n > 1 and stderr > 0:
        from scipy import stats

        t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
        half = t_crit * stderr
    else:
        half = 0.0
    return TrialSummary(
        n_trials=n,
        mean=mean,
        std=std,
        stderr=stderr,
        ci_low=mean - half,
        ci_high=mean + half,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def summarize_columns(
    matrix: np.ndarray, confidence: float = 0.95
) -> list[TrialSummary]:
    """Summarise every column of an ``(n_trials, n_metrics)`` matrix at once.

    One vectorised axis reduction per statistic replaces ``n_metrics``
    separate :func:`summarize` calls; the property tests in
    ``tests/test_stats_summary.py`` certify the two paths agree.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ConfigurationError(
            "matrix must be a non-empty 2-D (n_trials, n_metrics) array"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    n, n_metrics = arr.shape
    # Transpose to one contiguous row per metric so every axis reduction
    # sums the same contiguous layout the 1-D scalar path sums.
    data = np.ascontiguousarray(arr.T)
    means = data.mean(axis=1)
    if n > 1:
        from scipy import stats

        stds = data.std(axis=1, ddof=1)
        stderrs = stds / np.sqrt(n)
        t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
        halves = np.where(stderrs > 0, t_crit * stderrs, 0.0)
    else:
        stds = stderrs = halves = np.zeros(n_metrics)
    minima = data.min(axis=1)
    maxima = data.max(axis=1)
    return [
        TrialSummary(
            n_trials=n,
            mean=float(means[j]),
            std=float(stds[j]),
            stderr=float(stderrs[j]),
            ci_low=float(means[j] - halves[j]),
            ci_high=float(means[j] + halves[j]),
            minimum=float(minima[j]),
            maximum=float(maxima[j]),
        )
        for j in range(n_metrics)
    ]


def summarize_records(
    records: Iterable[Mapping[str, float]],
    keys: Sequence[str],
    confidence: float = 0.95,
) -> dict[str, TrialSummary]:
    """Summarise several metrics at once from a list of per-trial records.

    ``records`` is typically a list of ``AllocationResult.as_record()``
    dictionaries; ``keys`` selects the numeric fields to aggregate.  The
    values are gathered into one ``(n_trials, n_metrics)`` matrix and
    reduced by :func:`summarize_columns` in a handful of vectorised passes.
    """
    materialised = list(records)
    if not materialised:
        raise ConfigurationError("records must be non-empty")
    keys = list(keys)
    if not keys:
        return {}
    try:
        matrix = np.array(
            [[float(rec[key]) for key in keys] for rec in materialised],
            dtype=np.float64,
        )
    except KeyError as exc:
        raise ConfigurationError(
            f"record is missing key {exc.args[0]!r}"
        ) from None
    return dict(zip(keys, summarize_columns(matrix, confidence)))


def relative_spread(values: Sequence[float] | np.ndarray) -> float:
    """Coefficient of variation (std/mean); 0 when the mean is 0.

    Used by convergence checks: Figure 3(b)'s claim that ADAPTIVE's potential
    "converges to a value independent of m" is verified by requiring a small
    relative spread across the m-grid.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("values must be a non-empty 1-D sequence")
    mean = float(arr.mean())
    if mean == 0.0:
        return 0.0
    return float(arr.std(ddof=0) / abs(mean))
