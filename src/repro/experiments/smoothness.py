"""Smoothness and scaling experiments backing the theorem-level claims.

Besides Table 1 and Figure 3, the paper makes three quantitative claims that
deserve their own experiments (the Theorem 3.1, Theorem 4.1 and
Corollary 3.5 / Lemma 4.2 checks):

* ADAPTIVE's allocation time is linear in ``m`` with a modest constant
  (:func:`adaptive_time_scaling`);
* THRESHOLD's allocation time exceeds ``m`` by ``O(m^{3/4} n^{1/4})``
  (:func:`threshold_excess_probes_curve`);
* ADAPTIVE's final load vector is dramatically smoother than THRESHOLD's in
  the heavily loaded regime ``m = n²`` (:func:`smoothness_contrast`).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.api.spec import SimulationSpec
from repro.core.adaptive import AdaptiveProtocol
from repro.core.threshold import ThresholdProtocol
from repro.errors import ConfigurationError
from repro.experiments.runner import summarize_trials
from repro.theory.bounds import threshold_excess_probes

__all__ = [
    "adaptive_time_scaling",
    "threshold_excess_probes_curve",
    "smoothness_contrast",
    "stage_potential_trajectory",
]


def adaptive_time_scaling(
    n_bins: int = 2_000,
    phis: Sequence[int] = (1, 2, 4, 8, 16, 32),
    *,
    trials: int = 5,
    seed: int = 7,
) -> list[dict[str, Any]]:
    """Theorem 3.1 check: probes per ball of ADAPTIVE as ``m/n`` grows.

    The theorem says the expected allocation time is ``O(m)``; measured probes
    per ball should therefore stay bounded (empirically ≈1.4) as ``ϕ = m/n``
    grows.
    """
    if not phis:
        raise ConfigurationError("phis must be non-empty")
    rows = []
    for phi in phis:
        if phi < 1:
            raise ConfigurationError(f"phi values must be >= 1, got {phi}")
        spec = SimulationSpec(
            "adaptive", phi * n_bins, n_bins, seed=seed, trials=trials
        )
        summary = summarize_trials(spec, metrics=("probes_per_ball", "gap"))
        rows.append(
            {
                "phi": phi,
                "n_balls": phi * n_bins,
                "n_bins": n_bins,
                "probes_per_ball_mean": summary["probes_per_ball"].mean,
                "probes_per_ball_max": summary["probes_per_ball"].maximum,
                "gap_mean": summary["gap"].mean,
            }
        )
    return rows


def threshold_excess_probes_curve(
    n_bins: int = 2_000,
    phis: Sequence[int] = (4, 8, 16, 32, 64),
    *,
    trials: int = 5,
    seed: int = 11,
) -> list[dict[str, Any]]:
    """Theorem 4.1 check: THRESHOLD's probes beyond ``m`` versus the bound.

    For each ``m = ϕ·n`` the row reports the measured mean excess
    ``allocation_time − m`` and the theoretical scale ``m^{3/4} n^{1/4}``;
    their ratio should stay bounded (and roughly constant) as ``m`` grows.
    """
    rows = []
    for phi in phis:
        if phi < 1:
            raise ConfigurationError(f"phi values must be >= 1, got {phi}")
        m = phi * n_bins
        spec = SimulationSpec("threshold", m, n_bins, seed=seed, trials=trials)
        summary = summarize_trials(spec, metrics=("allocation_time",))
        excess = summary["allocation_time"].mean - m
        scale = threshold_excess_probes(m, n_bins)
        rows.append(
            {
                "phi": phi,
                "n_balls": m,
                "n_bins": n_bins,
                "excess_probes_mean": excess,
                "bound_scale": scale,
                "excess_over_bound": excess / scale,
            }
        )
    return rows


def smoothness_contrast(
    n_bins_values: Sequence[int] = (128, 256, 512),
    *,
    trials: int = 3,
    seed: int = 13,
) -> list[dict[str, Any]]:
    """Corollary 3.5 vs Lemma 4.2: smoothness at ``m = n²``.

    For each ``n`` the row reports the mean max−min gap and quadratic
    potential of both protocols at ``m = n²``.  The paper predicts the
    ADAPTIVE gap grows like ``log n`` and its potential like ``n``, whereas
    THRESHOLD's gap grows polynomially (``Ω(n^{1/8})``) and its potential
    super-linearly (``Ω(n^{9/8})``).
    """
    rows = []
    for n in n_bins_values:
        if n < 2:
            raise ConfigurationError(f"n values must be >= 2, got {n}")
        m = n * n
        row: dict[str, Any] = {"n_bins": n, "n_balls": m}
        for name in ("adaptive", "threshold"):
            spec = SimulationSpec(name, m, n, seed=seed, trials=trials)
            summary = summarize_trials(spec, metrics=("gap", "quadratic_potential"))
            row[f"{name}_gap_mean"] = summary["gap"].mean
            row[f"{name}_potential_mean"] = summary["quadratic_potential"].mean
            row[f"{name}_potential_per_bin"] = summary["quadratic_potential"].mean / n
        rows.append(row)
    return rows


def stage_potential_trajectory(
    n_balls: int = 100_000,
    n_bins: int = 2_000,
    *,
    seed: int = 17,
) -> dict[str, Any]:
    """Per-stage exponential/quadratic potential trajectory of both protocols.

    Corollary 3.5 asserts ``E[Φ(L^τ)] = O(n)`` for *every* stage of ADAPTIVE;
    this helper runs a single traced allocation of each protocol and returns
    the per-stage potentials so tests and examples can inspect the whole
    trajectory rather than only the final state.
    """
    adaptive = AdaptiveProtocol().allocate(n_balls, n_bins, seed, record_trace=True)
    threshold = ThresholdProtocol().allocate(n_balls, n_bins, seed, record_trace=True)
    return {
        "n_balls": n_balls,
        "n_bins": n_bins,
        "stages": len(adaptive.trace),
        "adaptive_exponential": adaptive.trace.exponential_potentials().tolist(),
        "adaptive_quadratic": adaptive.trace.quadratic_potentials().tolist(),
        "adaptive_gap": adaptive.trace.gaps().tolist(),
        "threshold_quadratic": threshold.trace.quadratic_potentials().tolist(),
        "threshold_gap": threshold.trace.gaps().tolist(),
        "adaptive_probes_per_stage": adaptive.trace.probes_per_stage().tolist(),
        "threshold_probes_per_stage": threshold.trace.probes_per_stage().tolist(),
    }
