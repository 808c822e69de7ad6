"""Link layer shared by the analytic chain and the simulator.

Path loss, per-subchannel SINR, the EESM reception decision, the overlap law
of two random contiguous allocations, and the exclusion radius: the minimum
distance an interferer must keep for a packet to survive a given frequency
overlap.  Distances, overlaps and SINRs may be numpy arrays: results
broadcast over them, and scalar inputs give scalar results.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from .config import ScenarioConfig


def pathloss(r: ArrayLike, config: ScenarioConfig) -> float | np.ndarray:
    """Linear channel gain (A*r)**-beta at distance r > 0."""
    r = np.asarray(r, dtype=float)
    if (r <= 0.0).any():
        raise ValueError(f"distance must be positive, got {r.min()}")
    # np.power, not **: on numpy scalars ** calls libm pow, which can differ
    # in the last bit from the array loop, and a scalar call must equal the
    # matching element of an array call
    return np.power(config.pathloss_a * r, -config.pathloss_beta)


def pathloss_distance(gain: ArrayLike, config: ScenarioConfig) -> float | np.ndarray:
    """Inverse of `pathloss`: the distance at which the linear gain is `gain`.

    gain**(-1/beta) / A; a gain <= 0 gives inf or nan, without a check.
    """
    return np.power(gain, -1.0 / config.pathloss_beta) / config.pathloss_a


def sinr_no_interference(r: ArrayLike, config: ScenarioConfig) -> float | np.ndarray:
    """Per-subchannel SINR of a packet received over noise only.

    Transmit power is split over the M occupied subchannels, noise is
    per-subchannel, so the ratio is l(r)*S / (M*sigma).
    """
    return pathloss(r, config) * config.tx_power_s / (
        config.packet_width_m * config.noise_sigma)


def overlap_distribution(b: int, m_width: int) -> tuple[float, ...]:
    """Probabilities of overlap width m = 0..M for two M-wide allocations.

    Counted exactly in integers over the (b - m_width + 1)**2 equally likely
    start pairs, converted to float at the end.  The zero-overlap case applies
    for 2*m_width <= b; at 2*m_width == b it is the correct continuation of
    the same expression (checked against a brute-force enumeration).
    """
    if not (1 <= m_width <= b):
        raise ValueError(f"need 1 <= m_width <= b, got m_width={m_width}, b={b}")
    m_w = m_width
    denom = (b + 1 - m_w) ** 2
    counts = []
    for m in range(m_w + 1):
        if m == m_w:
            num = b + 1 - m_w
        elif m < 2 * m_w - b:
            num = 0
        elif m == 0:
            num = (b + 2 - 2 * m_w) * (b + 1 - 2 * m_w)
        else:
            num = 2 * (b + m + 1 - 2 * m_w)
        counts.append(num)
    return tuple(c / denom for c in counts)


def exclusion_radius(r: ArrayLike, m_overlap: ArrayLike,
                     config: ScenarioConfig) -> float | np.ndarray:
    """Minimum interferer distance for reception to survive overlap m_overlap.

    r and m_overlap broadcast against each other.  The radius is 0.0 where
    any interferer distance is survivable and inf where none is.  Derived by
    solving EESM > T for the interferer distance with M - m clean
    subchannels and m interfered ones.
    """
    m_w = config.packet_width_m
    m = np.asarray(m_overlap)
    if np.any((m < 1) | (m > m_w)):
        raise ValueError(f"overlap must be in [1, {m_w}], got {m_overlap}")
    gamma = config.eesm_gamma
    ratio = m_w / m
    xi = ratio * math.exp(-config.sinr_threshold_t / gamma) \
        - (ratio - 1.0) * np.exp(-sinr_no_interference(r, config) / gamma)
    # the formula is only evaluated where 0 < xi < 1 and the bracket is
    # positive; elsewhere np.where overrides whatever it produced
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = -pathloss(r, config) / (gamma * np.log(xi)) \
            - config.noise_sigma * m_w / config.tx_power_s
        radius = pathloss_distance(bracket, config)
    unbounded = (xi <= 0.0) | (bracket <= 0.0)
    return np.where(xi >= 1.0, 0.0, np.where(unbounded, math.inf, radius))[()]


def reception_breakpoints(config: ScenarioConfig) -> tuple[float, ...]:
    """Distances at which reception changes regime, in ascending order.

    r_T, where the noise-only SINR falls to T: beyond it the full overlap M
    has an unbounded exclusion radius.  And, for each overlap m < M with
    (M/m) e^(-T/gamma) > 1, the distance where its exclusion radius leaves 0
    (xi = 1 in `exclusion_radius`), at SINR0 =
    -gamma * ln(((M/m) e^(-T/gamma) - 1) / (M/m - 1)).  Between them the
    collision probabilities are smooth in r.
    """
    m_w, gamma = config.packet_width_m, config.eesm_gamma
    clean = math.exp(-config.sinr_threshold_t / gamma)
    sinrs = [config.sinr_threshold_t] + [
        -gamma * math.log((m_w / m * clean - 1.0) / (m_w / m - 1.0))
        for m in range(1, m_w) if m_w / m * clean > 1.0]
    gain = m_w * config.noise_sigma / config.tx_power_s
    return tuple(sorted(float(pathloss_distance(s * gain, config)) for s in sinrs))


def eesm_received(per_subchannel_sinr: ArrayLike, gamma: float,
                  threshold: float) -> bool | np.ndarray:
    """EESM reception decision: whether the effective SINR of the
    per-subchannel SINRs along the *first* axis exceeds threshold.

    The effective SINR is -gamma * ln(mean_i exp(-sinr_i / gamma)) over the n
    subchannels.  The test that it exceeds threshold is taken in the linear
    domain as sum_i exp((threshold - sinr_i) / gamma) < n: one exp and one
    sum, and no log.  With the threshold inside the exp, the right-hand side
    is the exact integer n and no e^(-threshold/gamma) can underflow; a term
    that underflows to 0 belongs to a SINR far above the threshold, and one
    that overflows to inf to a SINR far below it, so both decide correctly.
    """
    x = np.subtract(threshold, per_subchannel_sinr, dtype=float)
    if x.ndim == 0 or x.shape[0] == 0:
        raise ValueError("need at least one subchannel SINR")
    x /= gamma
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    return (x.sum(axis=0) < x.shape[0])[()]
