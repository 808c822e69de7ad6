"""Seeded Monte Carlo simulator of the slotted multichannel broadcast protocol.

Replays the protocol literally on a finite line of UEs: exponential inter-UE
gaps, arrivals after the previous delivery, a first attempt in the next slot
plus nu repetition slots drawn from the window, uniform contiguous subchannel
picks per attempt, EESM threshold reception with summed interference, and
half-duplex receivers.  Each replication draws its whole transmission
schedule first, then receives it in one pass per attempt index, each in
chunks of consecutive slots, leaving out the pairs already delivered; a
trace receives every attempt in one pass.  A chunk tests half-duplex
against its own slots' slice of the sorted transmitter keys, meets each free
pair with every attempt of its slot, keeps the attempts within the cutoff
whose M subchannels overlap the pair's, and sums each of the pair's M
subchannels from the kept attempts that cover it, one bincount per
subchannel into M long rows (subchannel-major, with no length-M trailing
axis).  It decides reception with `link.eesm_received`, the EESM threshold
test in the linear domain.
Importing the module frees one untouched 8 MiB block, which keeps glibc
from mapping and faulting in every chunk temporary afresh (see below).
Serves as the independent oracle for the analytic chain at loss levels
reachable by counting.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, TextIO

import numpy as np

from .config import (ConfigError, ScenarioConfig, float_field, integer_field, json_value,
                     pool_map, validate_config)
from .link import eesm_received, pathloss, pathloss_distance

LOSS_HALF_DUPLEX = "half_duplex"
LOSS_INTERFERENCE = "interference"

# glibc maps each block above its mmap threshold (128 KiB at start) on its
# own, and trims the heap top beyond its trim threshold; the reception
# chunks' temporaries cross that size, so each would be mapped, page-faulted
# in and returned afresh.  Freeing a mapped block raises the mmap threshold to
# its size and the trim threshold to twice that, so free one 8 MiB block once
# per process (forked pool workers inherit the thresholds).  It must come from
# np.empty: its pages are never written, so it never becomes resident memory.
np.empty(2 ** 20)


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
        """to_dict() as RFC 8259 JSON: a nan or infinite field becomes null."""
        data = {key: json_value(value) for key, value in self.to_dict().items()}
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def validate_sim_config(sim_config: SimConfig) -> SimConfig:
    counts = {name: integer_field(name, getattr(sim_config, name))
              for name in ("num_ues", "num_slots", "replications", "seed")}
    cutoff = sim_config.interference_cutoff
    if cutoff is not None:
        cutoff = float_field("interference_cutoff", cutoff)
    sc = validate_config(sim_config.scenario)
    cfg = replace(sim_config, scenario=sc, interference_cutoff=cutoff, **counts)
    if cfg.num_ues < 2:
        raise ConfigError("num_ues out of range (need at least 2)")
    if cfg.num_slots < sc.window_w:
        raise ConfigError(
            f"num_slots out of range (need at least the window W={sc.window_w})")
    if cfg.replications < 1:
        raise ConfigError("replications out of range (need at least 1)")
    if not (0 <= cfg.seed < 2 ** 64):
        raise ConfigError("seed out of range (need an unsigned 64-bit integer)")
    # written so that nan fails too; inf disables the cutoff
    if not cfg.resolved_cutoff() >= 0.0:
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
        # smallest uniforms (drawn at nu = 0 too, so the stream stays put)
        u = rng.random((ue.size, sc.window_w - 1))
        ranks = (np.sort(np.argpartition(u, nu - 1, axis=1)[:, :nu], axis=1) if nu
                 else np.empty((ue.size, 0), np.intp))
        row = np.column_stack([first, first[:, None] + 1 + ranks])
        tx.append(ue)
        slots.append(row)
        subs.append(rng.integers(0, sc.num_subchannels_b - sc.packet_width_m + 1,
                                 size=row.shape))
        t = (row[:, -1] + 1) * tau + rng.exponential(mean_gap, size=ue.size)
    tx, slots, subs = (np.concatenate(a) for a in (tx, slots, subs))
    order = np.argsort(slots[:, 0], kind="stable")
    return tx[order], slots[order], subs[order]


def _runs(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The runs start[i], start[i] + 1, ..., start[i] + length[i] - 1, one
    after another."""
    return np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length)


# bound on a chunk's pairs times attempts (see the chunking below).  Serial
# replications, 2 cores, median of 15 rounds at 2**14 / 2**15 / 2**16: 0.077 /
# 0.074 / 0.078 s at the sim-crosscheck nu = 0 point and 0.207 / 0.196 / 0.201 s
# at its nu = 2 point (8 replications each), and 0.100 / 0.093 / 0.091 s at
# nu = 5, lambda = 3, 1000 UEs x 5000 slots (2); two such runs at once read the
# same within 0.01 s.  None wins at all three; 2**16 gives small runs one chunk a pass
_CHUNK_ELEMENTS = 2 ** 15


def _simulate_replication(sim_config: SimConfig, replication: int,
                          recorder: Callable[[AttemptRecord], None] | None = None,
                          ) -> _RepResult:
    sc = sim_config.scenario
    rng = replication_rng(sim_config.seed, replication)
    pos = build_topology(sim_config, rng)
    n, horizon, nu, m_w = pos.size, sim_config.num_slots, sc.repetitions_nu, sc.packet_width_m
    sig_power = sc.tx_power_s / m_w
    cutoff = sim_config.resolved_cutoff()
    margin = 2.0 * sc.range_r

    # pos is sorted, so the eligible UEs, those at least 2R from both ends of
    # the line, are one index block [e0, e1), and an eligible UE's measured
    # receivers are the block [rx_lo, rx_hi) of eligible UEs within range_r,
    # less the UE itself
    e0 = np.searchsorted(pos, margin, side="left")
    e1 = np.searchsorted(pos, pos[-1] - margin, side="right")
    rx_lo = np.maximum(np.searchsorted(pos, pos - sc.range_r, side="left"), e0)
    rx_hi = np.minimum(np.searchsorted(pos, pos + sc.range_r, side="right"), e1)

    tx, slots, subs = _schedule(sc, rng, n, horizon)

    # a packet is measured if its sender is eligible and its last attempt
    # falls inside the horizon; its (packet, receiver) pairs are stored flat,
    # packet after packet, from pair_start[packet] on, receivers ascending
    measured = (e0 <= tx) & (tx < e1) & (slots[:, -1] < horizon)
    pair_count = np.where(measured, (rx_hi - rx_lo - 1)[tx], 0)
    pair_start = np.cumsum(pair_count) - pair_count
    pair_rx = _runs(rx_lo[tx], pair_count)
    pair_rx += pair_rx >= np.repeat(tx, pair_count)
    received = np.zeros(pair_rx.size, dtype=bool)
    # a pair is heard once an attempt finds its receiver free; a lost pair
    # takes part in every pass, so it is a half-duplex loss iff never heard
    heard = np.zeros(pair_rx.size, dtype=bool)

    # attempts inside the horizon, by slot and, within a slot, by packet
    flat = slots.ravel()
    order = np.argsort(flat, kind="stable")
    order = order[flat[order] < horizon]
    att_slot, att_pkt, att_ai = flat[order], *np.divmod(order, nu + 1)
    att_tx, att_sub, att_len = tx[att_pkt], subs[att_pkt, att_ai], pair_count[att_pkt]
    att_pos = pos[att_tx]
    # the slots that hold attempts: slot g holds attempts first[g] to
    # first[g + 1] - 1 (the last bound is att_slot.size), and a UE is busy in
    # it if its key g * n + ue is a transmitter's; those keys are sorted, so
    # slot g's are tx_keys[first[g]:first[g + 1]]
    first = np.append(np.flatnonzero(np.diff(att_slot, prepend=-1)), att_slot.size)
    count = np.diff(first)
    att_group = np.repeat(np.arange(count.size), count)
    tx_keys = np.sort(att_group * n + att_tx)

    # a trace receives every attempt in one pass; otherwise pass i receives
    # the attempts of index i, one per pair, and leaves out the pairs already
    # delivered, which no later attempt can change
    passes = ([np.arange(att_slot.size)] if recorder is not None else
              [np.flatnonzero(att_ai == i) for i in range(nu + 1)])
    for attempts in passes:
        lengths = att_len[attempts]
        # the pass's pairs, attempt by attempt: the attempt and the index into
        # the flat pair arrays
        pass_k = np.repeat(attempts, lengths)
        pass_pair = _runs(pair_start[att_pkt[attempts]], lengths)
        if recorder is None:
            pending = ~received[pass_pair]
            pass_k, pass_pair = pass_k[pending], pass_pair[pending]
        # chunks of whole slots: a chunk takes slots until its cross product,
        # bounded by the slot's pairs times its attempts, first reaches the bound
        slot_at = np.flatnonzero(np.diff(att_group[pass_k], prepend=-1))
        cost = np.diff(slot_at, append=pass_k.size) * count[att_group[pass_k[slot_at]]]
        chunk = (np.cumsum(cost) - cost) // _CHUNK_ELEMENTS
        starts = slot_at[np.flatnonzero(np.diff(chunk, prepend=-1))]
        for a, b in zip(starts.tolist(), np.r_[starts[1:], pass_k.size].tolist()):
            k, pair = pass_k[a:b], pass_pair[a:b]
            rx, group = pair_rx[pair], att_group[k]
            key = group * n + rx
            # the half-duplex test searches only the chunk's own slots' keys,
            # a slice small enough to stay in cache
            chunk_keys = tx_keys[first[group[0]]:first[group[-1] + 1]]
            busy = chunk_keys[np.minimum(np.searchsorted(chunk_keys, key),
                                         chunk_keys.size - 1)] == key
            free = ~busy
            heard[pair[free]] = True
            # each free pair against every attempt of its slot: pair after
            # pair, in attempt order
            kf, free_group, rx_pos = k[free], group[free], pos[rx[free]]
            width = count[free_group]
            cross_pair = np.repeat(np.arange(kf.size), width)
            cross_att = _runs(first[free_group], width)
            dist = np.abs(np.repeat(rx_pos, width) - att_pos[cross_att])
            # an interferer beyond the cutoff, or whose M subchannels miss the
            # pair's (its start off by M or more), would add +0.0: leave it out
            off = att_sub[cross_att] - np.repeat(att_sub[kf], width)
            near = np.flatnonzero((dist <= cutoff) & (np.abs(off) < m_w))
            near_pair, off = cross_pair[near], off[near]
            power = sig_power * pathloss(dist[near], sc)
            pair_dist = np.abs(rx_pos - att_pos[kf])
            # the wanted signal ignores the interference cutoff
            gain = sig_power * pathloss(pair_dist, sc)
            # subchannel-major: row j sums, in attempt order, every free pair's
            # interferers on its attempt's j-th subchannel, those off by
            # j - M + 1 to j (the others weigh +0.0, which leaves a sum of
            # powers as it is), less its own signal, then holds its SINR
            sinr = np.empty((m_w, kf.size))
            for j in range(m_w):
                on = (j - m_w < off) & (off <= j)
                sinr[j] = np.bincount(near_pair, np.where(on, power, 0.0), minlength=kf.size)
            sinr -= np.where(pair_dist <= cutoff, gain, 0.0)
            sinr += sc.noise_sigma
            np.divide(gain, sinr, out=sinr)
            success = np.zeros(k.size, dtype=bool)
            success[free] = eesm_received(sinr, sc.eesm_gamma, sc.sinr_threshold_t)
            received[pair[success]] = True
            if recorder is not None:
                # by slot; within a slot its half-duplex blocks first, then its
                # receptions, each in pair order
                by_slot = np.lexsort((free, group))
                fields = (att_pkt[k], att_ai[k], att_slot[k], att_sub[k], rx, att_tx[k], busy,
                          success)
                for pid, ai, s, sub, rx_id, ue, hd, ok in zip(
                        *(c[by_slot].tolist() for c in fields)):
                    outcome, cause = (("fail", LOSS_HALF_DUPLEX) if hd else ("success", "") if ok
                                      else ("fail", LOSS_INTERFERENCE))
                    recorder(AttemptRecord(replication, pid, ai, s, sub, rx_id, outcome,
                                           cause, ue))

    lost = ~received
    return _RepResult(pairs=int(pair_rx.size), losses=int(lost.sum()),
                      hd_losses=int((lost & ~heard).sum()))


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
    per_rep = [r.losses / r.pairs for r in results if r.pairs]
    mean = sum(per_rep) / len(per_rep)
    if len(per_rep) >= 2:
        var = sum((x - mean) ** 2 for x in per_rep) / (len(per_rep) - 1)
        ci = 1.96 * math.sqrt(var / len(per_rep))
    else:
        ci = math.nan
    losses = sum(r.losses for r in results)
    hd_losses = sum(r.hd_losses for r in results)
    return SimReport(
        plr_estimate=mean,
        confidence_interval_95=ci,
        pairs_measured=pairs,
        losses=losses,
        half_duplex_losses=hd_losses,
        interference_losses=losses - hd_losses,
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
