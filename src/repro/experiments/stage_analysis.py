"""Stage-level analysis of ADAPTIVE: empirical counterparts of Lemmas 3.2–3.4.

The proof of Theorem 3.1 rests on a drift argument over stages of ``n``
balls:

* **Lemma 3.2** — a bin that is *underloaded* at the end of stage ``τ`` (its
  load is below ``τ + 2 − C₁``) receives, during stage ``τ+1``, at least
  ``Poi(199/198)``-many balls in the stochastic-dominance sense, i.e. its
  expected catch-up is slightly more than one ball per stage.
* **Lemma 3.3 / 3.4** — consequently the exponential potential contributed by
  underloaded bins contracts in expectation, keeping ``E[Φ] = O(n)``.

These statements are about the *trajectory* of the process, not the final
state, so they deserve their own instrumentation: this module steps an
ADAPTIVE session one stage at a time, records how many balls each
currently-underloaded bin receives in the next stage, and compares the
empirical distribution with the Poisson benchmark of Lemma 3.2.  It also
measures the per-stage potential drift that Lemma 3.4 controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptive import AdaptiveProtocol
from repro.core.potentials import DEFAULT_EPSILON, exponential_potential
from repro.errors import ConfigurationError
from repro.runtime.rng import SeedLike, spawn_seeds
from repro.theory.concentration import poisson_sf

__all__ = [
    "CatchupStatistics",
    "lemma32_catchup",
    "lemma34_potential_drift",
]

#: The Poisson rate appearing in Lemma 3.2.
LEMMA32_RATE: float = 199.0 / 198.0


@dataclass(frozen=True)
class CatchupStatistics:
    """Empirical catch-up behaviour of underloaded bins.

    Attributes
    ----------
    hole_threshold:
        Bins with at least this many holes (load ≤ stage + 2 − hole_threshold)
        were classified as underloaded.
    observations:
        Number of (bin, stage) pairs that entered the statistics.
    mean_balls_received:
        Average number of balls an underloaded bin received in the next stage
        (Lemma 3.2 predicts slightly above 1).
    empirical_tail:
        ``empirical_tail[k] = Pr[Y ≥ k]`` estimated over all observations.
    poisson_tail:
        The benchmark ``Pr[Poi(199/198) ≥ k]`` for the same ``k`` grid.
    """

    hole_threshold: int
    observations: int
    mean_balls_received: float
    empirical_tail: np.ndarray
    poisson_tail: np.ndarray


def lemma32_catchup(
    n_bins: int = 1_000,
    n_stages: int = 30,
    *,
    hole_threshold: int = 3,
    max_k: int = 6,
    trials: int = 3,
    seed: SeedLike = 0,
) -> CatchupStatistics:
    """Measure how quickly underloaded bins catch up (Lemma 3.2).

    Runs ``trials`` independent ADAPTIVE executions of ``n_stages`` stages on
    ``n_bins`` bins.  At every stage boundary it records, for every bin whose
    load is at least ``hole_threshold`` below the stage's upper level
    ``τ + 2``, how many balls that bin receives during the following stage.

    Returns
    -------
    CatchupStatistics
        Empirical tail probabilities next to the ``Poi(199/198)`` benchmark of
        Lemma 3.2.
    """
    if n_bins <= 1:
        raise ConfigurationError(f"n_bins must be at least 2, got {n_bins}")
    if n_stages < 1:
        raise ConfigurationError(f"n_stages must be at least 1, got {n_stages}")
    if hole_threshold < 1:
        raise ConfigurationError(f"hole_threshold must be >= 1, got {hole_threshold}")
    if max_k < 1:
        raise ConfigurationError(f"max_k must be >= 1, got {max_k}")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")

    received: list[np.ndarray] = []
    for trial_seed in spawn_seeds(seed, trials):
        session = AdaptiveProtocol().begin(n_stages * n_bins, n_bins, trial_seed)
        for stage in range(n_stages):
            # Underloaded (w.r.t. Lemma 3.2) at the *start* of this stage:
            # load <= (stage index) + 2 - hole_threshold, where the previous
            # stage's upper level is stage + 1.
            underloaded = np.flatnonzero(session.loads <= stage + 2 - hole_threshold)
            before = session.loads[underloaded].copy()
            session.place(n_bins)
            if underloaded.size:
                received.append(session.loads[underloaded] - before)

    if not received:
        counts = np.zeros(0, dtype=np.int64)
    else:
        counts = np.concatenate(received)

    ks = np.arange(max_k + 1)
    if counts.size:
        empirical_tail = np.array([(counts >= k).mean() for k in ks])
        mean_received = float(counts.mean())
    else:
        empirical_tail = np.zeros(max_k + 1)
        mean_received = 0.0
    poisson_tail = np.array([poisson_sf(LEMMA32_RATE, k - 1) for k in ks])

    return CatchupStatistics(
        hole_threshold=hole_threshold,
        observations=int(counts.size),
        mean_balls_received=mean_received,
        empirical_tail=empirical_tail,
        poisson_tail=poisson_tail,
    )


def lemma34_potential_drift(
    n_bins: int = 1_000,
    n_stages: int = 40,
    *,
    epsilon: float = DEFAULT_EPSILON,
    seed: SeedLike = 0,
) -> dict[str, float | list[float]]:
    """Measure the per-stage drift of the exponential potential (Lemma 3.4).

    Lemma 3.4 states that whenever ``Φ(L^τ)`` exceeds ``ρ·n`` (for a suitable
    constant ``ρ``), the next stage contracts it by a constant factor in
    expectation; Corollary 3.5 then keeps ``E[Φ] = O(n)`` forever.  This
    helper runs one long ADAPTIVE execution, records ``Φ`` at every stage
    boundary and returns the drift statistics the lemma is about.
    """
    if n_bins <= 1:
        raise ConfigurationError(f"n_bins must be at least 2, got {n_bins}")
    if n_stages < 2:
        raise ConfigurationError(f"n_stages must be at least 2, got {n_stages}")

    session = AdaptiveProtocol().begin(n_stages * n_bins, n_bins, seed)
    potentials: list[float] = []
    for _ in range(n_stages):
        session.place(n_bins)
        potentials.append(exponential_potential(session.loads, session.placed, epsilon))

    phi = np.array(potentials)
    ratios = phi[1:] / phi[:-1]
    return {
        "n_bins": n_bins,
        "stages": n_stages,
        "potentials": phi.tolist(),
        "max_potential_per_bin": float(phi.max() / n_bins),
        "mean_growth_ratio": float(ratios.mean()),
        "max_growth_ratio": float(ratios.max()),
    }
