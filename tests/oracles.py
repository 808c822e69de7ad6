"""Independent reference computations that only the tests use.

Each one reaches a quantity of the package by a different route than the
package does: brute-force enumeration, a series before its closed form, a
per-distance profile record, the SINR against one interferer, the
log-domain EESM and its test of one packet, the loss recursion one distance
at a time, PLR on a fixed composite quadrature grid, or the simulator's
reception as one slot-by-slot loop over per-packet records.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from mode2cap import (
    ScenarioConfig,
    exclusion_radius,
    loss_recursion,
    overlap_distribution,
    repetition_noncollision_prob,
    repetition_probability,
    success_prob,
    transmit_probability,
)
from mode2cap.link import pathloss
from mode2cap.sim import (
    LOSS_HALF_DUPLEX,
    LOSS_INTERFERENCE,
    AttemptRecord,
    SimConfig,
    _RepResult,
    _schedule,
    build_topology,
    replication_rng,
)


def overlap_distribution_oracle(b: int, m_width: int) -> tuple[float, ...]:
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
    return tuple(c / total for c in counts)


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


def effective_sinr(per_subchannel_sinr: Sequence[float] | np.ndarray,
                   gamma: float) -> float | np.ndarray:
    """EESM collapse of per-subchannel SINRs (the last axis) into one
    effective SINR, the log-domain reference for `eesm_received`.

    -gamma * ln(mean(exp(-sinr_i / gamma))), evaluated in log space so that
    very large SINRs do not underflow to a bogus infinity.
    """
    x = -np.asarray(per_subchannel_sinr, dtype=float) / gamma
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("need at least one subchannel SINR")
    n = x.shape[-1]
    # the clamp only acts where every SINR of a row is +inf: x - mx then
    # stays -inf instead of nan, and log(0) gives the limit, +inf
    mx = np.maximum(x.max(axis=-1), -sys.float_info.max)
    with np.errstate(divide="ignore"):
        return -gamma * (mx + np.log(np.exp(x - mx[..., None]).sum(axis=-1) / n))


@dataclass(frozen=True)
class EesmOutcome:
    effective_sinr: float
    success: bool


def sinr_one_interferer(r: float, r_int: float, config: ScenarioConfig) -> float:
    """Per-subchannel SINR with a single co-channel interferer at distance r_int."""
    s = config.tx_power_s
    return pathloss(r, config) * s / (
        pathloss(r_int, config) * s + config.packet_width_m * config.noise_sigma)


def eesm_receive(per_subchannel_sinr: Sequence[float] | np.ndarray,
                 config: ScenarioConfig) -> EesmOutcome:
    """Threshold reception test: success iff the effective SINR exceeds T."""
    eff = float(effective_sinr(per_subchannel_sinr, config.eesm_gamma))
    return EesmOutcome(effective_sinr=eff, success=eff > config.sinr_threshold_t)


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
        overlap_distribution(config.num_subchannels_b, config.packet_width_m)[1:])
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

    Builds the mixing matrices one row at a time from scipy's binomial pmf,
    so the binomial is computed independently of the package's Pascal's-rule
    rows, and composes them per level instead of contracting them once over
    a batch of nodes.
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



def plr_composite(lambda_rate: float, config: ScenarioConfig, panels: int = 8,
                  points: int = 16) -> float:
    """PLR by composite Gauss-Legendre quadrature on `panels` equal panels of
    (0, R], with `points` nodes each and `loss_recursion` run one node at a
    time.  With no breakpoint inside (0, R] the loss is analytic there, and
    the default 8 x 16 rule is exact to about 1e-10 relative.
    """
    cfg = config.with_lambda(lambda_rate)
    x, w = np.polynomial.legendre.leggauss(points)
    half = 0.5 * cfg.range_r / panels
    r = ((2.0 * np.arange(panels) + 1.0)[:, None] * half + half * x).ravel()
    values = [loss_recursion(ri, cfg, p_s=a, p_nc=b).plr_r for ri, a, b in zip(
        r.tolist(), success_prob(r, cfg).tolist(),
        repetition_noncollision_prob(r, cfg).tolist())]
    return float(np.dot(np.tile(w, panels), values)) * half / cfg.range_r


class _Packet:
    __slots__ = ("pid", "tx", "slots", "subs", "rx_ids", "received", "hd_count",
                 "measured", "last_slot")

    def __init__(self, pid, tx, slots, subs, rx_ids, measured, horizon):
        self.pid = pid
        self.tx = tx
        self.slots = slots
        self.subs = subs
        self.rx_ids = rx_ids
        self.measured = measured and slots[-1] < horizon
        self.last_slot = slots[-1]
        if self.measured:
            self.received = np.zeros(len(rx_ids), dtype=bool)
            self.hd_count = np.zeros(len(rx_ids), dtype=np.int32)
        else:
            self.received = None
            self.hd_count = None


def simulate_replication_reference(sim_config: SimConfig, replication: int,
                                   recorder: Callable[[AttemptRecord], None] | None = None,
                                   ) -> _RepResult:
    """The simulator's reception as one loop over slots, with a mutable record
    per packet, fed the package's own schedule.  The package receives chunks
    of consecutive slots, each in one array pass over flat pair arrays, in
    one pass per attempt index without a recorder; both must give the same
    results and, with a recorder, the same records in the same order.
    """
    sc = sim_config.scenario
    rng = replication_rng(sim_config.seed, replication)
    pos = build_topology(sim_config, rng)
    n = sim_config.num_ues
    horizon = sim_config.num_slots
    nu = sc.repetitions_nu
    b_total = sc.num_subchannels_b
    m_w = sc.packet_width_m
    sig_power = sc.tx_power_s / m_w
    noise = sc.noise_sigma
    cutoff = sim_config.resolved_cutoff()
    margin = 2.0 * sc.range_r

    line_end = pos[-1]
    eligible = (pos >= margin) & (pos <= line_end - margin)
    # receivers measured for a transmitter: eligible UEs within range_r
    rx_lists: list[np.ndarray] = []
    for i in range(n):
        lo = np.searchsorted(pos, pos[i] - sc.range_r, side="left")
        hi = np.searchsorted(pos, pos[i] + sc.range_r, side="right")
        ids = np.arange(lo, hi)
        ids = ids[(ids != i) & eligible[ids]]
        rx_lists.append(ids)

    result = _RepResult()

    slot_map: dict[int, list[tuple[_Packet, int]]] = {}
    end_map: dict[int, list[_Packet]] = {}
    for pid, (ue, slots, subs) in enumerate(zip(*_schedule(sc, rng, n, horizon))):
        ue = int(ue)
        pkt = _Packet(pid, ue, slots.tolist(), subs, rx_lists[ue], bool(eligible[ue]),
                      horizon)
        if pkt.measured and len(pkt.rx_ids) == 0:
            pkt.measured = False
        for ai, s in enumerate(pkt.slots):
            if s < horizon:
                slot_map.setdefault(s, []).append((pkt, ai))
        end_map.setdefault(min(pkt.last_slot, horizon - 1), []).append(pkt)

    for slot in range(horizon):
        attempts = slot_map.pop(slot, None)
        if attempts:
            tx_ues = np.array([pkt.tx for pkt, _ in attempts])
            tx_pos = pos[tx_ues]
            tx_sub = np.array([pkt.subs[ai] for pkt, ai in attempts])

            measured_idx = [k for k, (pkt, _) in enumerate(attempts) if pkt.measured]
            if measured_idx:
                nb_sets = []
                for k in measured_idx:
                    pkt, ai = attempts[k]
                    busy = np.isin(pkt.rx_ids, tx_ues)
                    if pkt.hd_count is not None and busy.any():
                        pkt.hd_count[busy] += 1
                        if recorder is not None:
                            for rx in pkt.rx_ids[busy]:
                                recorder(AttemptRecord(
                                    replication, pkt.pid, ai, slot,
                                    int(pkt.subs[ai]), int(rx), "fail",
                                    LOSS_HALF_DUPLEX, pkt.tx))
                    nb_sets.append((k, ~busy))
                involved = np.unique(np.concatenate(
                    [attempts[k][0].rx_ids[nb] for k, nb in nb_sets if nb.any()]
                    or [np.empty(0, dtype=int)]))
                if involved.size:
                    dist = np.abs(pos[involved][:, None] - tx_pos[None, :])
                    received = sig_power * pathloss(dist, sc)
                    power = np.where(dist <= cutoff, received, 0.0)
                    total = np.zeros((involved.size, b_total))
                    for t_idx in range(len(attempts)):
                        st = tx_sub[t_idx]
                        total[:, st:st + m_w] += power[:, t_idx:t_idx + 1]
                    for k, nb in nb_sets:
                        if not nb.any():
                            continue
                        pkt, ai = attempts[k]
                        rxs = pkt.rx_ids[nb]
                        rows = np.searchsorted(involved, rxs)
                        st = tx_sub[k]
                        own = power[rows, k]
                        interference = total[rows, st:st + m_w] - own[:, None]
                        # the wanted signal ignores the interference cutoff
                        sinr = received[rows, k][:, None] / (noise + interference)
                        success = effective_sinr(sinr, sc.eesm_gamma) > sc.sinr_threshold_t
                        pkt.received[nb] |= success
                        if recorder is not None:
                            for rx, ok in zip(rxs, success):
                                recorder(AttemptRecord(
                                    replication, pkt.pid, ai, slot,
                                    int(pkt.subs[ai]), int(rx),
                                    "success" if ok else "fail",
                                    "" if ok else LOSS_INTERFERENCE, pkt.tx))

        finished = end_map.pop(slot, None)
        if finished:
            for pkt in finished:
                if pkt.measured:
                    result.pairs += len(pkt.rx_ids)
                    lost = ~pkt.received
                    result.losses += int(lost.sum())
                    result.hd_losses += int((lost & (pkt.hd_count == nu + 1)).sum())
    return result
