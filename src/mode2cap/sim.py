"""Seeded Monte Carlo simulator of the slotted multichannel broadcast protocol.

Replays the protocol literally on a finite line of UEs: exponential inter-UE
gaps, arrivals after the previous delivery, a first attempt in the next slot
plus nu repetition slots drawn from the window, uniform contiguous subchannel
picks per attempt, EESM threshold reception with summed interference, and
half-duplex receivers.  Each replication draws its whole transmission
schedule first, then receives one slot at a time.  Serves as the independent
oracle for the analytic chain at loss levels reachable by counting.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, TextIO

import numpy as np

from .config import ConfigError, ScenarioConfig, pool_map, validate_config
from .link import effective_sinr, pathloss, pathloss_distance

LOSS_HALF_DUPLEX = "half_duplex"
LOSS_INTERFERENCE = "interference"


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    Pairs are measured only when both UEs are at least 2R from the ends of the
    line, approximating an infinite line.  interference_cutoff: interferers
    beyond this distance are ignored (defaults to the distance at which the
    received power drops to noise_sigma / 100; math.inf disables the cutoff).
    """

    scenario: ScenarioConfig
    num_ues: int = 400
    num_slots: int = 20000
    seed: int = 1
    replications: int = 4
    interference_cutoff: float | None = None

    def resolved_cutoff(self) -> float:
        if self.interference_cutoff is None:
            sc = self.scenario
            return float(pathloss_distance(sc.noise_sigma / (100.0 * sc.tx_power_s), sc))
        return self.interference_cutoff


@dataclass(frozen=True)
class SimReport:
    plr_estimate: float
    confidence_interval_95: float
    pairs_measured: int
    losses: int
    half_duplex_losses: int
    interference_losses: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True, slots=True)
class AttemptRecord:
    """One reception attempt at one receiver (or one transmitted attempt's
    half-duplex block).  tx_ue is carried for analysis; the CSV export keeps
    the stable 8-column layout."""

    replication: int
    packet_id: int
    attempt_index: int
    slot: int
    subch_start: int
    rx_id: int
    outcome: str
    cause: str
    tx_ue: int = -1


TRACE_COLUMNS = ("replication", "packet_id", "attempt_index", "slot",
                 "subch_start", "rx_id", "outcome", "cause")


@dataclass
class _RepResult:
    pairs: int = 0
    losses: int = 0
    hd_losses: int = 0
    int_losses: int = 0
    tx_slot_count: int = 0
    eligible_ues: int = 0

    @property
    def plr(self) -> float:
        return self.losses / self.pairs if self.pairs else math.nan


def validate_sim_config(sim_config: SimConfig) -> SimConfig:
    sc = validate_config(sim_config.scenario)
    cfg = replace(sim_config, scenario=sc)
    if cfg.num_ues < 2:
        raise ConfigError("num_ues out of range (need at least 2)")
    if cfg.num_slots < sc.window_w:
        raise ConfigError(
            f"num_slots out of range (need at least the window W={sc.window_w})")
    if cfg.replications < 1:
        raise ConfigError("replications out of range (need at least 1)")
    if not (0 <= cfg.seed < 2 ** 64):
        raise ConfigError("seed out of range (need an unsigned 64-bit integer)")
    if cfg.resolved_cutoff() < 0.0:
        raise ConfigError("interference_cutoff out of range (must be >= 0)")
    return cfg


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based generator for one replication.

    Streams are derived as Philox(SeedSequence(entropy=seed,
    spawn_key=(replication,))), so replication i is reproducible on its own
    and independent of how many replications run or in which order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(ss))


def build_topology(sim_config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """UE positions on the line: first at 0, then exponential gaps of rate phi."""
    gaps = rng.exponential(1.0 / sim_config.scenario.phi,
                           size=sim_config.num_ues - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)])


def _schedule(sc: ScenarioConfig, rng: np.random.Generator, n: int, horizon: int,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every packet's transmitter, attempt slots and subchannel starts, as
    arrays of shape (P,), (P, nu+1) and (P, nu+1), packets in order of their
    first attempt.

    Reception never feeds back into resource selection, and each UE's packets
    form a renewal process of their own: the next packet arrives an
    exponential time after the slot of the previous packet's last attempt
    (the first, after time 0) and goes out first in the next slot.  So round
    j draws the j-th packet of every UE still inside the horizon at once.
    """
    tau, nu, mean_gap = sc.slot_tau, sc.repetitions_nu, 1.0 / sc.lambda_rate
    ue, t = np.arange(n), rng.exponential(mean_gap, size=n)
    tx, slots, subs = [], [], []
    while ue.size:
        first = np.floor(t / tau).astype(np.int64) + 1
        inside = first < horizon
        ue, first = ue[inside], first[inside]
        # nu distinct repetition offsets in 1..W-1: the ranks of a row's nu
        # smallest uniforms
        ranks = np.argsort(rng.random((ue.size, sc.window_w - 1)), axis=1)[:, :nu]
        row = np.column_stack([first, first[:, None] + 1 + np.sort(ranks, axis=1)])
        tx.append(ue)
        slots.append(row)
        subs.append(rng.integers(0, sc.num_subchannels_b - sc.packet_width_m + 1,
                                 size=row.shape))
        t = (row[:, -1] + 1) * tau + rng.exponential(mean_gap, size=ue.size)
    tx, slots, subs = (np.concatenate(a) for a in (tx, slots, subs))
    order = np.argsort(slots[:, 0], kind="stable")
    return tx[order], slots[order], subs[order]


def _simulate_replication(sim_config: SimConfig, replication: int,
                          recorder: Callable[[AttemptRecord], None] | None = None,
                          ) -> _RepResult:
    sc = sim_config.scenario
    rng = replication_rng(sim_config.seed, replication)
    pos = build_topology(sim_config, rng)
    horizon, nu, m_w = sim_config.num_slots, sc.repetitions_nu, sc.packet_width_m
    sig_power = sc.tx_power_s / m_w
    cutoff = sim_config.resolved_cutoff()
    margin = 2.0 * sc.range_r

    eligible = (pos >= margin) & (pos <= pos[-1] - margin)
    # receivers measured for a transmitter: eligible UEs within range_r
    lo = np.searchsorted(pos, pos - sc.range_r, side="left")
    hi = np.searchsorted(pos, pos + sc.range_r, side="right")
    rx_lists = [ids[(ids != i) & eligible[ids]]
                for i, ids in enumerate(map(np.arange, lo, hi))]

    tx, slots, subs = _schedule(sc, rng, pos.size, horizon)

    # a packet is measured if its sender is eligible and its last attempt
    # falls inside the horizon; its (packet, receiver) pairs are stored flat,
    # packet after packet, from pair_start[packet] on
    measured = eligible[tx] & (slots[:, -1] < horizon)
    pair_count = np.where(measured, np.array([len(ids) for ids in rx_lists])[tx], 0)
    pair_start = np.cumsum(pair_count) - pair_count
    pair_rx = np.concatenate([rx_lists[ue] for ue in tx[measured]] or
                             [np.empty(0, dtype=np.intp)])
    received = np.zeros(pair_rx.size, dtype=bool)
    hd_count = np.zeros(pair_rx.size, dtype=np.int32)

    # attempts inside the horizon, by slot and, within a slot, by packet
    flat = slots.ravel()
    order = np.argsort(flat, kind="stable")
    order = order[flat[order] < horizon]
    att_slot, att_pkt, att_ai = flat[order], *np.divmod(order, nu + 1)
    bounds = np.flatnonzero(np.diff(att_slot)) + 1
    transmitting = np.zeros(pos.size, dtype=bool)
    span = np.arange(m_w)

    for a, b in zip(np.r_[0, bounds], np.r_[bounds, att_slot.size]):
        pkt = att_pkt[a:b]
        lengths = pair_count[pkt]
        if not lengths.any():
            continue
        slot = int(att_slot[a])
        tx_ues = tx[pkt]
        tx_sub = subs[pkt, att_ai[a:b]]
        # the slot's pairs, attempt by attempt: column k of the attempt and
        # index into the flat pair arrays
        k = np.repeat(np.arange(b - a), lengths)
        pair = pair_start[pkt][k] + np.arange(k.size) - (np.cumsum(lengths) - lengths)[k]
        rx = pair_rx[pair]
        transmitting[tx_ues] = True
        busy = transmitting[rx]
        transmitting[tx_ues] = False
        hd_count[pair[busy]] += 1
        free = ~busy
        success = np.zeros(k.size, dtype=bool)
        if free.any():
            involved, rows = np.unique(rx[free], return_inverse=True)
            kf = k[free]
            dist = np.abs(pos[involved][:, None] - pos[tx_ues][None, :])
            gain = sig_power * pathloss(dist, sc)
            power = np.where(dist <= cutoff, gain, 0.0)
            total = np.zeros((involved.size, sc.num_subchannels_b))
            for col, st in enumerate(tx_sub):
                total[:, st:st + m_w] += power[:, col:col + 1]
            interference = total[rows[:, None], tx_sub[kf][:, None] + span] \
                - power[rows, kf][:, None]
            # the wanted signal ignores the interference cutoff
            sinr = gain[rows, kf][:, None] / (sc.noise_sigma + interference)
            success[free] = effective_sinr(sinr, sc.eesm_gamma) > sc.sinr_threshold_t
            received[pair[success]] = True
        if recorder is not None:
            # the slot's half-duplex blocks first, then its receptions
            fields = zip(*(c.tolist() for c in (pkt[k], att_ai[a:b][k], tx_sub[k], rx,
                                                tx_ues[k], busy, success)))
            for pid, ai, sub, rx_id, ue, hd, ok in sorted(fields, key=lambda f: not f[5]):
                outcome, cause = (("fail", LOSS_HALF_DUPLEX) if hd else ("success", "") if ok
                                  else ("fail", LOSS_INTERFERENCE))
                recorder(AttemptRecord(replication, pid, ai, slot, sub, rx_id, outcome,
                                       cause, ue))

    lost = ~received
    hd_losses = int((lost & (hd_count == nu + 1)).sum())
    losses = int(lost.sum())
    return _RepResult(pairs=int(pair_rx.size), losses=losses, hd_losses=hd_losses,
                      int_losses=losses - hd_losses,
                      tx_slot_count=int(eligible[tx[att_pkt]].sum()),
                      eligible_ues=int(eligible.sum()))


def run(sim_config: SimConfig, workers: int = 1) -> SimReport:
    """Run all replications and aggregate into a SimReport.

    Replications use independent sub-seeded streams and are reduced in
    replication order, so the report does not depend on `workers`.
    """
    cfg = validate_sim_config(sim_config)
    payloads = [(cfg, rep) for rep in range(cfg.replications)]
    results = pool_map(_simulate_replication, payloads, workers)

    pairs = sum(r.pairs for r in results)
    if pairs == 0:
        raise ConfigError("no pairs measured (num_slots too small or line too short)")
    per_rep = [r.plr for r in results if r.pairs]
    mean = sum(per_rep) / len(per_rep)
    if len(per_rep) >= 2:
        var = sum((x - mean) ** 2 for x in per_rep) / (len(per_rep) - 1)
        ci = 1.96 * math.sqrt(var / len(per_rep))
    else:
        ci = math.nan
    return SimReport(
        plr_estimate=mean,
        confidence_interval_95=ci,
        pairs_measured=pairs,
        losses=sum(r.losses for r in results),
        half_duplex_losses=sum(r.hd_losses for r in results),
        interference_losses=sum(r.int_losses for r in results),
        seed=cfg.seed,
    )


def trace_to_csv(records: Iterable[AttemptRecord], stream: TextIO) -> None:
    """Write attempt records in the stable 8-column CSV layout, LF endings."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for rec in records:
        writer.writerow([getattr(rec, column) for column in TRACE_COLUMNS])


def attempt_trace(sim_config: SimConfig) -> list[AttemptRecord]:
    """Per-attempt, per-receiver event log of every measured packet, over all
    replications."""
    cfg = validate_sim_config(sim_config)
    records: list[AttemptRecord] = []
    for rep in range(cfg.replications):
        _simulate_replication(cfg, rep, recorder=records.append)
    return records
