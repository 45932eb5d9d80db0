"""Empirical load-distribution tools and ball-weight generators.

Beyond the scalar potentials, the experiments occasionally need the full
shape of a load vector: its histogram, how it compares to the
single-choice/Poisson benchmark, and the tail of underloaded bins ("holes")
that drives both proofs.  These helpers are shared by the smoothness
experiments, the examples and the tests.

The second half of the module generates *ball weights* for the weighted
protocols of :mod:`repro.core.weighted`: heavy-tailed (Pareto), exponential
and bimodal families — the regimes where weighted allocation differs most
from the unit-weight setting — plus uniform and constant controls.  Every
generator returns strictly positive float64 weights and is registered in
:data:`WEIGHT_DISTRIBUTIONS` so protocols and workload factories can refer
to a family by name (see :func:`make_weights`).

scipy is imported on first use by :func:`poisson_reference_pmf`, so that
``import repro`` (which reaches this module through the weighted protocols)
does not load it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.rng import SeedLike, as_generator

__all__ = [
    "load_histogram",
    "empirical_cdf",
    "total_variation_distance",
    "poisson_reference_pmf",
    "hole_profile",
    "overload_profile",
    "pareto_weights",
    "exponential_weights",
    "bimodal_weights",
    "uniform_weights",
    "constant_weights",
    "WEIGHT_DISTRIBUTIONS",
    "make_weights",
]


def _validate_loads(loads: np.ndarray) -> np.ndarray:
    arr = np.asarray(loads)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("loads must be a non-empty 1-D array")
    if np.any(arr < 0):
        raise ConfigurationError("loads must be non-negative")
    return arr.astype(np.int64, copy=False)


def load_histogram(loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(levels, counts)``: how many bins carry each load value.

    ``levels`` runs from 0 to ``max(loads)`` inclusive so consecutive runs are
    directly comparable.
    """
    arr = _validate_loads(loads)
    counts = np.bincount(arr)
    levels = np.arange(counts.size, dtype=np.int64)
    return levels, counts


def empirical_cdf(loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(levels, F)`` with ``F[k] = fraction of bins with load ≤ k``."""
    levels, counts = load_histogram(loads)
    return levels, np.cumsum(counts) / counts.sum()


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two pmfs on ``{0, 1, 2, …}``.

    The shorter vector is zero-padded; inputs are normalised, so raw
    histogram counts may be passed directly.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or q.ndim != 1 or p.size == 0 or q.size == 0:
        raise ConfigurationError("p and q must be non-empty 1-D arrays")
    if np.any(p < 0) or np.any(q < 0):
        raise ConfigurationError("p and q must be non-negative")
    if p.sum() == 0 or q.sum() == 0:
        raise ConfigurationError("p and q must have positive mass")
    size = max(p.size, q.size)
    p_full = np.zeros(size)
    q_full = np.zeros(size)
    p_full[: p.size] = p / p.sum()
    q_full[: q.size] = q / q.sum()
    return 0.5 * float(np.abs(p_full - q_full).sum())


def poisson_reference_pmf(mean: float, max_level: int) -> np.ndarray:
    """Poisson pmf on ``0 … max_level`` (the Lemma A.7 reference model)."""
    if mean < 0:
        raise ConfigurationError(f"mean must be non-negative, got {mean}")
    if max_level < 0:
        raise ConfigurationError(f"max_level must be non-negative, got {max_level}")
    from scipy import stats

    return stats.poisson.pmf(np.arange(max_level + 1), mean)


def hole_profile(loads: np.ndarray, cap: int) -> np.ndarray:
    """For ``k = 0 … cap`` return the number of bins with exactly ``k`` holes.

    A bin with load ``ℓ`` has ``cap − ℓ`` holes (clipped at 0); the proof of
    Lemma 3.6 partitions bins by their hole count ``A_k``.
    """
    arr = _validate_loads(loads)
    if cap < 0:
        raise ConfigurationError(f"cap must be non-negative, got {cap}")
    holes = np.clip(cap - arr, 0, None)
    return np.bincount(holes, minlength=cap + 1)[: cap + 1]


# --------------------------------------------------------------------- #
# Ball-weight generators (weighted protocols / weighted workloads)
# --------------------------------------------------------------------- #
def _validate_weight_params(n: int, mean: float) -> None:
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if mean <= 0:
        raise ConfigurationError(f"mean must be positive, got {mean}")


def pareto_weights(
    n: int, seed: SeedLike = None, *, alpha: float = 1.8, mean: float = 1.0
) -> np.ndarray:
    """Heavy-tailed Pareto weights rescaled to the requested empirical mean.

    ``alpha`` is the Pareto shape; ``alpha <= 1`` has no finite mean and is
    rejected.  Small ``alpha`` (close to 1) makes a handful of balls carry
    most of the total weight — the regime where the weighted threshold
    ``W_i/n + w_max`` differs most from the unit-weight rule.
    """
    _validate_weight_params(n, mean)
    if alpha <= 1.0:
        raise ConfigurationError(f"alpha must exceed 1 for a finite mean, got {alpha}")
    rng = as_generator(seed)
    raw = rng.pareto(alpha, size=n) + 1.0
    if n:
        raw *= mean / raw.mean()
    return raw


def exponential_weights(
    n: int, seed: SeedLike = None, *, mean: float = 1.0
) -> np.ndarray:
    """Exponentially distributed weights (light tail, high variance)."""
    _validate_weight_params(n, mean)
    rng = as_generator(seed)
    raw = rng.exponential(mean, size=n)
    # The inverse-CDF sampler can return exactly 0.0; weights must be
    # strictly positive for the acceptance thresholds to make progress.
    tiny = mean * 1e-12
    return np.maximum(raw, tiny)


def bimodal_weights(
    n: int,
    seed: SeedLike = None,
    *,
    low: float = 1.0,
    high: float = 10.0,
    high_fraction: float = 0.1,
) -> np.ndarray:
    """Two-point weights: mostly ``low`` with a ``high_fraction`` of ``high``.

    Models the "few elephants, many mice" workloads of load-balancing
    practice; with ``w_max = high`` the adaptive guarantee stays tight even
    though most balls are far lighter than the bound.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if low <= 0 or high <= 0:
        raise ConfigurationError("low and high must be positive")
    if high < low:
        raise ConfigurationError(f"high must be at least low, got {low=} {high=}")
    if not 0.0 <= high_fraction <= 1.0:
        raise ConfigurationError(
            f"high_fraction must be in [0, 1], got {high_fraction}"
        )
    rng = as_generator(seed)
    heavy = rng.random(size=n) < high_fraction
    return np.where(heavy, float(high), float(low))


def uniform_weights(
    n: int, seed: SeedLike = None, *, low: float = 0.5, high: float = 1.5
) -> np.ndarray:
    """Weights uniform on ``[low, high)`` (mild, bounded heterogeneity)."""
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if low <= 0 or high < low:
        raise ConfigurationError(f"need 0 < low <= high, got {low=} {high=}")
    rng = as_generator(seed)
    return rng.uniform(low, high, size=n)


def constant_weights(n: int, seed: SeedLike = None, *, value: float = 1.0) -> np.ndarray:
    """All-equal weights; with ``value = 1`` this is the unit-weight setting."""
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if value <= 0:
        raise ConfigurationError(f"value must be positive, got {value}")
    return np.full(n, float(value))


#: Registry of weight-generator families, keyed by the name protocols and
#: workload factories use (``weight_dist="pareto"`` …).
WEIGHT_DISTRIBUTIONS: dict[str, Callable[..., np.ndarray]] = {
    "pareto": pareto_weights,
    "exponential": exponential_weights,
    "bimodal": bimodal_weights,
    "uniform": uniform_weights,
    "constant": constant_weights,
}


def make_weights(name: str, n: int, seed: SeedLike = None, **params) -> np.ndarray:
    """Draw ``n`` weights from the family registered under ``name``."""
    try:
        generator = WEIGHT_DISTRIBUTIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown weight distribution {name!r}; "
            f"available: {sorted(WEIGHT_DISTRIBUTIONS)}"
        ) from None
    return generator(n, seed, **params)


def overload_profile(loads: np.ndarray, average: float) -> dict[str, float]:
    """Fractions of bins above / at / below the average load (rounded down)."""
    arr = _validate_loads(loads)
    if average < 0:
        raise ConfigurationError(f"average must be non-negative, got {average}")
    floor_avg = np.floor(average)
    return {
        "below": float(np.mean(arr < floor_avg)),
        "at": float(np.mean(arr == floor_avg)),
        "above": float(np.mean(arr > floor_avg)),
    }
