"""Seeded Monte Carlo simulator of the slotted multichannel broadcast protocol.

Replays the protocol literally on a finite line of UEs: exponential inter-UE
gaps, arrivals after the previous delivery, a first attempt in the next slot
plus nu repetition slots drawn from the window, uniform contiguous subchannel
picks per attempt, EESM threshold reception with summed interference, and
half-duplex receivers.  Serves as the independent oracle for the analytic
chain at loss levels reachable by counting.
"""
from __future__ import annotations

import csv
import heapq
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, TextIO

import numpy as np

from .config import ConfigError, ScenarioConfig, pool_map, validate_config
from .link import effective_sinr, pathloss

LOSS_HALF_DUPLEX = "half_duplex"
LOSS_INTERFERENCE = "interference"


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description.

    edge_margin: pairs are measured only when both UEs are at least this far
    from the ends of the line (defaults to 2R, approximating an infinite
    line).  interference_cutoff: interferers beyond this distance are ignored
    (defaults to the distance at which the received power drops to
    noise_sigma / 100; math.inf disables the cutoff).
    """

    scenario: ScenarioConfig
    num_ues: int = 400
    num_slots: int = 20000
    seed: int = 1
    replications: int = 4
    edge_margin: float | None = None
    interference_cutoff: float | None = None

    def resolved_edge_margin(self) -> float:
        if self.edge_margin is None:
            return 2.0 * self.scenario.range_r
        return self.edge_margin

    def resolved_cutoff(self) -> float:
        if self.interference_cutoff is None:
            sc = self.scenario
            return (100.0 * sc.tx_power_s / sc.noise_sigma) ** (1.0 / sc.pathloss_beta) \
                / sc.pathloss_a
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
        return {
            "plr_estimate": self.plr_estimate,
            "confidence_interval_95": self.confidence_interval_95,
            "pairs_measured": self.pairs_measured,
            "losses": self.losses,
            "half_duplex_losses": self.half_duplex_losses,
            "interference_losses": self.interference_losses,
            "seed": self.seed,
        }

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
    packets_measured: int = 0

    @property
    def plr(self) -> float:
        return self.losses / self.pairs if self.pairs else math.nan


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
    if cfg.resolved_edge_margin() < sc.range_r:
        raise ConfigError("edge_margin out of range (need at least range_r)")
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


def _simulate_replication(sim_config: SimConfig, replication: int,
                          recorder: Callable[[AttemptRecord], None] | None = None,
                          packet_filter: Callable[[int, int, int], bool] | None = None,
                          ) -> _RepResult:
    sc = sim_config.scenario
    rng = replication_rng(sim_config.seed, replication)
    pos = build_topology(sim_config, rng)
    n = sim_config.num_ues
    horizon = sim_config.num_slots
    tau = sc.slot_tau
    w = sc.window_w
    nu = sc.repetitions_nu
    b_total = sc.num_subchannels_b
    m_w = sc.packet_width_m
    sig_power = sc.tx_power_s / m_w
    noise = sc.noise_sigma
    cutoff = sim_config.resolved_cutoff()
    margin = sim_config.resolved_edge_margin()

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

    result = _RepResult(eligible_ues=int(eligible.sum()))

    arrivals: list[tuple[float, int]] = [
        (t, ue) for ue, t in enumerate(rng.exponential(1.0 / sc.lambda_rate, size=n))
    ]
    heapq.heapify(arrivals)
    slot_map: dict[int, list[tuple[_Packet, int]]] = {}
    end_map: dict[int, list[_Packet]] = {}
    next_pid = 0

    def schedule(ue: int, arrival_time: float) -> None:
        nonlocal next_pid
        first = int(math.floor(arrival_time / tau)) + 1
        if nu > 0:
            offsets = np.sort(rng.choice(w - 1, size=nu, replace=False) + 1)
            slots = [first] + [first + int(o) for o in offsets]
        else:
            slots = [first]
        subs = rng.integers(0, b_total - m_w + 1, size=nu + 1)
        measured = bool(eligible[ue])
        if measured and packet_filter is not None:
            measured = bool(packet_filter(replication, next_pid, ue))
        pkt = _Packet(next_pid, ue, slots, subs, rx_lists[ue], measured, horizon)
        if pkt.measured and len(pkt.rx_ids) == 0:
            pkt.measured = False
        next_pid += 1
        for ai, s in enumerate(slots):
            if s < horizon:
                slot_map.setdefault(s, []).append((pkt, ai))
        end_map.setdefault(min(pkt.last_slot, horizon - 1), []).append(pkt)

    for slot in range(horizon):
        slot_time = slot * tau
        while arrivals and arrivals[0][0] < slot_time:
            t_arr, ue = heapq.heappop(arrivals)
            schedule(ue, t_arr)

        attempts = slot_map.pop(slot, None)
        if attempts:
            tx_ues = np.array([pkt.tx for pkt, _ in attempts])
            result.tx_slot_count += int(eligible[tx_ues].sum())
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
                    result.packets_measured += 1
                    result.pairs += len(pkt.rx_ids)
                    lost = ~pkt.received
                    n_lost = int(lost.sum())
                    result.losses += n_lost
                    if n_lost:
                        pure_hd = lost & (pkt.hd_count == nu + 1)
                        result.hd_losses += int(pure_hd.sum())
                        result.int_losses += n_lost - int(pure_hd.sum())
                if pkt.last_slot < horizon:
                    t_next = (pkt.last_slot + 1) * tau \
                        + rng.exponential(1.0 / sc.lambda_rate)
                    heapq.heappush(arrivals, (t_next, pkt.tx))
    return result


def _run_replication_payload(payload: tuple[SimConfig, int]) -> _RepResult:
    sim_config, replication = payload
    return _simulate_replication(sim_config, replication)


def run(sim_config: SimConfig, workers: int = 1) -> SimReport:
    """Run all replications and aggregate into a SimReport.

    Replications use independent sub-seeded streams and are reduced in
    replication order, so the report does not depend on `workers`.
    """
    cfg = validate_sim_config(sim_config)
    payloads = [(cfg, rep) for rep in range(cfg.replications)]
    results = pool_map(_run_replication_payload, payloads, workers)

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


def attempt_trace(sim_config: SimConfig,
                  packet_filter: Callable[[int, int, int], bool] | None = None,
                  ) -> list[AttemptRecord]:
    """Per-attempt, per-receiver event log over all replications.

    packet_filter(replication, packet_id, tx_ue) restricts which packets are
    measured and therefore traced; None traces every measured packet.
    """
    cfg = validate_sim_config(sim_config)
    records: list[AttemptRecord] = []
    for rep in range(cfg.replications):
        _simulate_replication(cfg, rep, recorder=records.append,
                              packet_filter=packet_filter)
    return records
