"""Independent reference computations that only the tests use.

Each one reaches a quantity of the package by a different route than the
package does: brute-force enumeration, a series before its closed form, a
per-distance profile record, or the loss recursion one distance at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from mode2cap import (
    OverlapDistribution,
    ScenarioConfig,
    exclusion_radius,
    overlap_distribution,
    repetition_probability,
    transmit_probability,
)


def overlap_distribution_oracle(b: int, m_width: int) -> OverlapDistribution:
    """Brute-force oracle: enumerate all ordered start pairs and count overlaps."""
    if not (1 <= m_width <= b):
        raise ValueError(f"need 1 <= m_width <= b, got m_width={m_width}, b={b}")
    starts = range(b - m_width + 1)
    counts = [0] * (m_width + 1)
    for s1 in starts:
        for s2 in starts:
            ov = max(0, min(s1, s2) + m_width - max(s1, s2))
            counts[ov] += 1
    total = len(starts) ** 2
    return OverlapDistribution(tuple(c / total for c in counts))


@dataclass(frozen=True)
class ExclusionProfile:
    """Exclusion radii for overlap widths m = 1..M at one TX-RX distance.

    rho[m-1] is the radius for overlap m: 0.0 when reception survives an
    arbitrarily close interferer, math.inf when no interferer distance
    rescues reception under that overlap.
    """

    rho: tuple[float, ...]

    def for_overlap(self, m: int) -> float:
        return self.rho[m - 1]

    @property
    def max_finite(self) -> float:
        finite = [r for r in self.rho if math.isfinite(r)]
        return max(finite) if finite else 0.0

    @property
    def any_infinite(self) -> bool:
        return any(math.isinf(r) for r in self.rho)


def exclusion_profile(r: float, config: ScenarioConfig) -> ExclusionProfile:
    """Exclusion radii for every overlap width 1..M at distance r."""
    overlaps = np.arange(1, config.packet_width_m + 1)
    return ExclusionProfile(tuple(exclusion_radius(r, overlaps, config).tolist()))


def success_prob_series(r: float, config: ScenarioConfig, r_bar: float,
                        n_max: int | None = None) -> float:
    """Series form of the attempt success probability, before the truncation
    range r_bar cancels out.

    Sums over the Poisson count n of neighbors within r_bar, the binomial
    count k of simultaneous transmitters among them, and the per-interferer
    survival Q1 = 1 - sum_m P_m * rho_m / r_bar.  A cross-check of the closed
    form in `success_prob`; requires every exclusion radius finite and r_bar
    beyond the largest of them.
    """
    weights = np.asarray(
        overlap_distribution(config.num_subchannels_b, config.packet_width_m).probs[1:])
    rho = np.asarray(exclusion_profile(r, config).rho)
    if np.any(np.isinf(rho) & (weights > 0.0)):
        raise ValueError("series form requires finite exclusion radii")
    mean_excl = float(np.dot(weights, np.where(weights > 0, rho, 0.0)))
    if r_bar < float(np.max(np.where(weights > 0, rho, 0.0), initial=0.0)):
        raise ValueError("r_bar must not be smaller than the largest exclusion radius")
    p = transmit_probability(config)
    q1 = 1.0 - mean_excl / r_bar
    z = 2.0 * config.phi * r_bar
    if n_max is None:
        n_max = int(math.ceil(z + 12.0 * math.sqrt(z) + 40.0))
    total = 0.0
    h = stats.poisson.pmf(np.arange(n_max + 1), z)
    for n in range(n_max + 1):
        k = np.arange(n + 1)
        inner = float(np.dot(stats.binom.pmf(k, n, p), q1 ** k))
        total += h[n] * inner
    return total


def loss_recursion_per_node(p_s: float, p_nc: float, config: ScenarioConfig,
                            k: int) -> tuple[np.ndarray, bool]:
    """The loss recursion at one distance, written as two explicit mixings per
    level: the number c of interferers mid-repetition thins binomially to the i
    that transmit in the slot, and those to the j that transmit their last
    repetition.  Returns the rows[t, c] table and the clamp flag.

    Builds the mixing matrices one row at a time and composes them per level,
    as the package did before it contracted them once and batched the nodes.
    """
    tol = 1e-12
    p = transmit_probability(config)
    nu = config.repetitions_nu
    clamped = False
    if nu == 0:
        u = (1.0 - p_s) * (1.0 - p ** k) / (1.0 - p)
        clamped = u > 1.0 + tol
        return np.array([[1.0], [p + (1.0 - p) * min(u, 1.0)]]), clamped
    width = (nu + 1) * k + 1
    n = np.arange(width)
    g_rep = np.vstack([stats.binom.pmf(n, c, repetition_probability(config)) for c in n])
    g_last = np.vstack([stats.binom.pmf(n, i, 1.0 / (nu + 1.0)) for i in n])
    idx = np.subtract.outer(n, n)

    def shifted(x):  # shifted(x)[c, j] = x[c - j] for j <= c, else 0
        return np.where(idx >= 0, x[np.maximum(idx, 0)], 0.0)

    yfac = 1.0 - p_nc ** n
    v_prev = np.ones(width)
    rows = [v_prev]
    for _ in range(nu + 1):
        padded = np.concatenate([v_prev, np.ones(k)])
        z = sum(p ** k_i * padded[k_i + 1:k_i + 1 + width] for k_i in range(k))
        u = (1.0 - p_s) * np.einsum("ci,ic->c", g_rep, g_last @ shifted(z).T)
        y = p_s * np.einsum("ci,ic->c", g_rep, yfac[:, None] * (g_last @ shifted(v_prev).T))
        clamped |= bool(np.any(u > 1.0 + tol) or np.any(y > 1.0 + tol))
        v = p * v_prev + (1.0 - p) * (np.clip(u, 0.0, 1.0) + np.clip(y, 0.0, 1.0))
        clamped |= bool(np.any(v > 1.0 + tol))
        v_prev = np.clip(v, 0.0, 1.0)
        rows.append(v_prev)
    return np.vstack(rows), clamped
