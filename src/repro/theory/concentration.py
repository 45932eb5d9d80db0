"""Concentration inequalities used in the paper's appendix (Theorems A.2–A.6).

The analysis of both protocols leans on a small toolbox of tail bounds:
Hoeffding's inequality, Azuma's inequality, Poisson Chernoff bounds, and a
Chernoff bound for sums of geometric (or geometrically dominated) random
variables.  This module implements them as numerically careful functions so
the experiments can overlay theoretical tail curves on empirical data, and so
the property-based tests can check that the empirical processes respect the
bounds.

All functions return *upper bounds on probabilities* in ``[0, 1]``.  The
three exact tails import scipy on first use, so that ``import repro`` does
not load it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "hoeffding_tail",
    "azuma_tail",
    "poisson_lower_tail",
    "poisson_upper_tail",
    "geometric_sum_tail",
    "binomial_upper_tail",
    "poisson_binomial_distance_bound",
    "poisson_cdf",
    "poisson_sf",
]


def _check_prob_args(value: float, name: str) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")


def hoeffding_tail(n: int, deviation: float) -> float:
    """Theorem A.2: ``Pr[|X − E X| ≥ λ] ≤ 2 e^{−λ²/n}`` for ``n`` binary variables."""
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    _check_prob_args(deviation, "deviation")
    return min(1.0, 2.0 * math.exp(-(deviation**2) / n))


def azuma_tail(increments: np.ndarray | list[float], deviation: float) -> float:
    """Theorem A.3: ``Pr[|X_n − X_0| ≥ ε] ≤ 2 exp(−ε² / (2 Σ c_i²))``."""
    _check_prob_args(deviation, "deviation")
    c = np.asarray(increments, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ConfigurationError("increments must be a non-empty 1-D sequence")
    if np.any(c < 0):
        raise ConfigurationError("increments must be non-negative")
    denom = 2.0 * float(np.sum(c**2))
    if denom == 0:
        return 0.0 if deviation > 0 else 1.0
    return min(1.0, 2.0 * math.exp(-(deviation**2) / denom))


def poisson_lower_tail(mu: float, epsilon: float) -> float:
    """Theorem A.4, lower tail: ``Pr[Poi(µ) ≤ (1−ε)µ] ≤ e^{−ε²µ/2}``."""
    if mu < 0:
        raise ConfigurationError(f"mu must be non-negative, got {mu}")
    _check_prob_args(epsilon, "epsilon")
    return min(1.0, math.exp(-(epsilon**2) * mu / 2.0))


def poisson_upper_tail(mu: float, epsilon: float) -> float:
    """Theorem A.4, upper tail: ``Pr[Poi(µ) ≥ (1+ε)µ] ≤ (e^ε (1+ε)^{−(1+ε)})^µ``."""
    if mu < 0:
        raise ConfigurationError(f"mu must be non-negative, got {mu}")
    _check_prob_args(epsilon, "epsilon")
    if epsilon == 0:
        return 1.0
    log_base = epsilon - (1.0 + epsilon) * math.log1p(epsilon)
    return min(1.0, math.exp(mu * log_base))


def geometric_sum_tail(n: int, epsilon: float) -> float:
    """Theorems A.5/A.6: ``Pr[X ≥ (1+ε)µ] ≤ e^{−ε²n / (2(1+ε))}``.

    ``X`` is a sum of ``n`` independent geometric random variables (or of
    variables dominated by geometrics in the sense of Theorem A.6); ``µ`` is
    its mean.  Note that the bound only depends on ``n`` and ``ε``.
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    _check_prob_args(epsilon, "epsilon")
    if epsilon == 0:
        return 1.0
    return min(1.0, math.exp(-(epsilon**2) * n / (2.0 * (1.0 + epsilon))))


def binomial_upper_tail(n: int, p: float, k: float) -> float:
    """Exact upper tail ``Pr[Bin(n, p) ≥ k]`` via the regularised beta function.

    Used by the smoothness experiment to compare the empirical number of
    overloaded bins against the exact binomial model (the proof of Lemma 3.2
    approximates this by a Poisson).
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    from scipy import stats

    return float(stats.binom.sf(k - 1, n, p))


def poisson_cdf(mu: float, k: float) -> float:
    """``Pr[Poi(µ) ≤ k]`` (scipy-backed, exposed for the Lemma 3.2 experiment)."""
    if mu < 0:
        raise ConfigurationError(f"mu must be non-negative, got {mu}")
    from scipy import stats

    return float(stats.poisson.cdf(k, mu))


def poisson_sf(mu: float, k: float) -> float:
    """``Pr[Poi(µ) > k]``."""
    if mu < 0:
        raise ConfigurationError(f"mu must be non-negative, got {mu}")
    from scipy import stats

    return float(stats.poisson.sf(k, mu))


def poisson_binomial_distance_bound(n: int, p: float) -> float:
    """Total-variation distance bound ``|Bin(n,p) − Poi(np)| ≤ n p²`` (Le Cam).

    The proof of Lemma 3.2 replaces ``Bin(n/2, 1/n)`` variables by Poisson
    variables "up to o(1)"; Le Cam's inequality quantifies that o(1) and the
    tests use it to check the substitution numerically.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    return min(1.0, n * p * p)
