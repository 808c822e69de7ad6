import math
from collections import defaultdict

import numpy as np
import pytest

from mode2cap import (
    ConfigError,
    SimConfig,
    attempt_trace,
    build_topology,
    exclusion_radius,
    repetition_noncollision_prob,
    replication_rng,
    run,
    transmit_probability,
    validate_sim_config,
)
from mode2cap import sim
from mode2cap.sim import _runs, _schedule, _simulate_replication

from conftest import make_scenario
from oracles import schedule_reference, simulate_replication_reference


def small_sim(**kw):
    scenario_kw = kw.pop("scenario_kw", {})
    defaults = dict(scenario=make_scenario(**scenario_kw), num_ues=150,
                    num_slots=4000, seed=5, replications=2)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestTopology:
    def test_mean_gap_matches_density(self):
        cfg = small_sim(num_ues=1000)
        pos = build_topology(cfg, replication_rng(cfg.seed, 0))
        gaps = np.diff(pos)
        assert pos[0] == 0.0
        assert len(gaps) == 999
        assert np.mean(gaps) == pytest.approx(1 / 0.05, rel=0.10)

    def test_two_ues_single_gap(self):
        cfg = small_sim(num_ues=2)
        pos = build_topology(cfg, replication_rng(cfg.seed, 0))
        assert len(pos) == 2 and pos[1] > 0.0

    def test_same_seed_same_topology(self):
        cfg = small_sim()
        a = build_topology(cfg, replication_rng(cfg.seed, 0))
        b = build_topology(cfg, replication_rng(cfg.seed, 0))
        assert np.array_equal(a, b)


class TestValidation:
    def test_too_few_ues(self):
        with pytest.raises(ConfigError, match="num_ues"):
            validate_sim_config(small_sim(num_ues=1))

    def test_too_few_slots(self):
        with pytest.raises(ConfigError, match="num_slots"):
            validate_sim_config(small_sim(num_slots=10))

    def test_zero_replications(self):
        with pytest.raises(ConfigError, match="replications"):
            validate_sim_config(small_sim(replications=0))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_sim_config(small_sim(seed=-1))

    @pytest.mark.parametrize("field, value", [
        ("interference_cutoff", math.nan),
        ("num_ues", 150.5),
        ("num_slots", 4000.5),
        ("replications", 2.5),
        ("seed", 5.5),
        ("seed", None),
        ("interference_cutoff", "abc"),
        ("interference_cutoff", True),
        ("replications", True),
    ])
    def test_nan_cutoff_and_non_integral_counts_rejected(self, field, value):
        # a nan cutoff would silently drop every interferer (dist <= nan is
        # false); a non-integral count would fail later inside numpy; a
        # string cutoff would fail on its first comparison; a bool is no number
        with pytest.raises(ConfigError, match=field):
            validate_sim_config(small_sim(**{field: value}))

    def test_numeric_string_cutoff_coerced(self):
        cfg = validate_sim_config(small_sim(interference_cutoff="300"))
        assert cfg.interference_cutoff == 300.0 and cfg.resolved_cutoff() == 300.0

    def test_integral_counts_normalised_and_inf_cutoff_kept(self):
        cfg = validate_sim_config(small_sim(num_ues=150.0, seed=5.0,
                                            interference_cutoff=math.inf))
        assert (cfg.num_ues, cfg.seed) == (150, 5)
        assert type(cfg.num_ues) is int and type(cfg.seed) is int
        assert cfg.resolved_cutoff() == math.inf

    def test_default_cutoff_is_low_power_distance(self):
        cfg = small_sim()
        sc = cfg.scenario
        cut = cfg.resolved_cutoff()
        received = (sc.pathloss_a * cut) ** -sc.pathloss_beta * sc.tx_power_s
        assert received == pytest.approx(sc.noise_sigma / 100.0, rel=1e-9)

    def test_short_line_measures_nothing(self):
        with pytest.raises(ConfigError, match="no pairs measured"):
            run(small_sim(num_ues=10, num_slots=1000))


class TestDeterminism:
    def test_identical_reports_and_worker_invariance(self):
        cfg = small_sim(scenario_kw=dict(lambda_rate=20.0))
        first = run(cfg)
        assert run(cfg) == first
        assert run(cfg, workers=2) == first

    def test_trace_is_reproducible(self):
        cfg = small_sim(num_slots=2000)
        assert attempt_trace(cfg) == attempt_trace(cfg)


def _by_packet(records):
    packets = defaultdict(dict)
    for rec in records:
        packets[(rec.replication, rec.packet_id)].setdefault(
            rec.attempt_index, (rec.slot, rec.subch_start, rec.tx_ue))
    return packets


class TestSchedules:
    def test_attempt_layout(self):
        nu = 2
        cfg = small_sim(scenario_kw=dict(repetitions_nu=nu, lambda_rate=20.0))
        w = cfg.scenario.window_w
        packets = _by_packet(attempt_trace(cfg))
        assert packets
        for attempts in packets.values():
            assert set(attempts) == set(range(nu + 1))
            slots = [attempts[ai][0] for ai in sorted(attempts)]
            assert len(set(slots)) == nu + 1
            assert slots == sorted(slots)
            assert slots[0] == min(slots)
            assert max(slots) - slots[0] <= w - 1
            for _, sub, _ in attempts.values():
                assert 0 <= sub <= cfg.scenario.num_subchannels_b - cfg.scenario.packet_width_m

    def test_each_ue_is_a_renewal_process(self):
        # a UE's next packet arrives after the slot of its previous packet's
        # last attempt and goes out in a later slot, so at least 2 slots on
        cfg = validate_sim_config(small_sim(
            scenario_kw=dict(repetitions_nu=3, lambda_rate=100.0)))
        tx, slots, _ = _schedule(cfg.scenario, replication_rng(cfg.seed, 0),
                                 cfg.num_ues, cfg.num_slots)
        order = np.lexsort((slots[:, 0], tx))
        tx, slots = tx[order], slots[order]
        same_ue = tx[1:] == tx[:-1]
        assert same_ue.sum() > 10 * cfg.num_ues
        assert (slots[1:, 0] - slots[:-1, -1])[same_ue].min() >= 2

    @pytest.mark.parametrize("nu, lambda_rate", [(2, 10.0), (5, 3.0), (8, 3.0)])
    def test_met_interferer_shares_later_slots_at_closed_form_rate(self, nu, lambda_rate):
        # a packet met in the tagged packet's first slot s0 has a uniform
        # attempt index there, so nu/2 attempts left on average, all in
        # s0+1..s0+W-1; each lands on one of the tagged packet's nu
        # repetition slots with probability nu/(W-1).  Per met packet that is
        # nu**2 / (2 * (W - 1)) = p_rep * nu / 2 shared later slots, exactly
        sc = make_scenario(repetitions_nu=nu, lambda_rate=lambda_rate)
        w, horizon = sc.window_w, 40000
        tx, slots, _ = _schedule(sc, replication_rng(7, 0), 300, horizon)
        # tagged: first slot past a burn-in of 10 mean cycles, whole window
        # inside the horizon
        cycle = 1.0 / (lambda_rate * sc.slot_tau) + w * nu / (nu + 1.0)
        tagged = np.flatnonzero((slots[:, 0] >= 10 * cycle) & (slots[:, 0] <= horizon - w))
        # every attempt by slot; the met packets of each tagged packet are
        # the other UEs' packets with an attempt in its slot s0
        flat = slots.ravel()
        order = np.argsort(flat, kind="stable")
        att_slot, att_pkt = flat[order], order // (nu + 1)
        lo = np.searchsorted(att_slot, slots[tagged, 0], side="left")
        met_count = np.searchsorted(att_slot, slots[tagged, 0], side="right") - lo
        t = np.repeat(tagged, met_count)
        q = att_pkt[np.arange(t.size) + np.repeat(lo - np.cumsum(met_count) + met_count,
                                                  met_count)]
        t, q = t[tx[q] != tx[t]], q[tx[q] != tx[t]]
        # a met packet's slots up to s0 cannot match a repetition slot > s0
        shares = (slots[q][:, :, None] == slots[t][:, None, 1:]).sum(axis=(1, 2))
        expected = nu ** 2 / (2.0 * (w - 1))
        se = shares.std(ddof=1) / math.sqrt(shares.size)
        assert shares.size > 10000
        assert abs(shares.mean() - expected) <= 5.0 * se

    @pytest.mark.parametrize("seed", [3, 301, 12345])
    @pytest.mark.parametrize("nu, scenario_kw", [
        (0, dict(lambda_rate=20.0)),
        (1, dict(lambda_rate=30.0)),
        (2, dict(lambda_rate=30.0)),
        (5, dict(lambda_rate=3.0)),
        # W - 1 == nu: every slot of the window is taken
        (8, dict(lambda_rate=3.0, delay_budget=4.5e-3)),
    ], ids=["nu0", "nu1", "nu2", "nu5", "nu8_full_window"])
    def test_schedule_matches_full_sort(self, nu, scenario_kw, seed):
        # the partition-based draw of the repetition offsets against a full
        # argsort of the same uniforms: equal arrays, element for element, and
        # the generator left in the same state
        sc = make_scenario(repetitions_nu=nu, **scenario_kw)
        assert nu < 8 or sc.window_w - 1 == nu
        rng, ref_rng = replication_rng(seed, 0), replication_rng(seed, 0)
        got = _schedule(sc, rng, 300, 4000)
        want = schedule_reference(sc, ref_rng, 300, 4000)
        assert got[0].size > 1000
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
        # Philox's state holds arrays: compare it field by field
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_single_repetition_has_two_attempts(self):
        cfg = small_sim(scenario_kw=dict(repetitions_nu=1, lambda_rate=20.0))
        packets = _by_packet(attempt_trace(cfg))
        assert packets
        assert all(len(a) == 2 for a in packets.values())


class TestHalfDuplex:
    def test_busy_receiver_always_fails(self):
        # the trace reveals a subset of the transmitting UEs (unmeasured
        # packets still transmit); any receiver seen transmitting in a slot
        # must have every same-slot reception flagged half_duplex
        cfg = small_sim(scenario_kw=dict(lambda_rate=100.0, repetitions_nu=1),
                        num_slots=3000, replications=1)
        records = attempt_trace(cfg)
        transmitting = defaultdict(set)
        for (rep, _), attempts in _by_packet(records).items():
            for slot, _, tx in attempts.values():
                transmitting[(rep, slot)].add(tx)
        busy_rows = 0
        for rec in records:
            if rec.rx_id in transmitting[(rec.replication, rec.slot)]:
                busy_rows += 1
                assert rec.outcome == "fail"
                assert rec.cause == "half_duplex"
        assert busy_rows > 0

    def test_same_slot_single_attempt_pairs_block_each_other(self):
        # two in-range UEs whose only attempts share a slot never deliver to
        # each other, regardless of subchannels
        cfg = small_sim(scenario_kw=dict(lambda_rate=100.0, repetitions_nu=0),
                        num_slots=3000, replications=2)
        records = attempt_trace(cfg)
        rows = {}
        tx_of = {}
        slot_packets = defaultdict(list)
        for rec in records:
            rows[(rec.replication, rec.packet_id, rec.rx_id)] = rec
            tx_of[(rec.replication, rec.packet_id)] = rec.tx_ue
            slot_packets[(rec.replication, rec.slot)].append(rec.packet_id)
        mutual = 0
        for (rep, _), pids in slot_packets.items():
            for pa in set(pids):
                for pb in set(pids):
                    if pa >= pb:
                        continue
                    ra = rows.get((rep, pa, tx_of[(rep, pb)]))
                    rb = rows.get((rep, pb, tx_of[(rep, pa)]))
                    for rec in (ra, rb):
                        if rec is not None:
                            mutual += 1
                            assert (rec.outcome, rec.cause) == ("fail", "half_duplex")
        assert mutual > 0


class TestRuns:
    """sim._runs expands the pair, pass and cross-product runs; pin it to a
    plain loop, with zero-length runs (an unmeasured packet has no pairs)."""

    @staticmethod
    def loop(start, length):
        return [s + i for s, n in zip(start.tolist(), length.tolist()) for i in range(n)]

    @pytest.mark.parametrize("start, length", [
        ([4, 0, 9, 2], [0, 3, 0, 2]),
        ([7, 3], [2, 0]),
        ([5, 6, 1], [0, 0, 0]),
        ([], []),
    ])
    def test_matches_loop(self, start, length):
        start, length = np.array(start, dtype=np.int64), np.array(length, dtype=np.int64)
        got = _runs(start, length)
        assert got.dtype == np.int64
        assert got.tolist() == self.loop(start, length)

    def test_matches_loop_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = int(rng.integers(0, 30))
            start = rng.integers(0, 1000, size=size)
            length = np.where(rng.random(size) < 0.4, 0, rng.integers(0, 6, size=size))
            assert _runs(start, length).tolist() == self.loop(start, length)


def count_chunks(monkeypatch) -> list:
    """Count the chunks the simulator receives, by the one eesm_received
    call each makes: one entry per call in the returned list."""
    inner, calls = sim.eesm_received, []

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(sim, "eesm_received", counted)
    return calls


CHUNKING_CASES = pytest.mark.parametrize("scenario_kw", [
    dict(repetitions_nu=0, lambda_rate=20.0),
    dict(repetitions_nu=2, lambda_rate=30.0),
    dict(repetitions_nu=1, lambda_rate=100.0),
], ids=["nu0", "nu2", "half_duplex_heavy"])


class TestAgainstReference:
    @pytest.mark.parametrize("scenario_kw, sim_kw", [
        (dict(repetitions_nu=0, lambda_rate=20.0), {}),
        (dict(repetitions_nu=1, lambda_rate=30.0), {}),
        (dict(repetitions_nu=2, lambda_rate=30.0), {}),
        (dict(repetitions_nu=8, lambda_rate=10.0), {}),
        (dict(repetitions_nu=2, lambda_rate=30.0), dict(interference_cutoff=0.0)),
        # the line is about 2.4 km long: most interferers are beyond 300 m
        (dict(repetitions_nu=2, lambda_rate=30.0), dict(interference_cutoff=300.0)),
        (dict(repetitions_nu=1, lambda_rate=100.0), {}),
        (dict(repetitions_nu=2, lambda_rate=20.0, num_subchannels_b=3), {}),
        # the overlap extremes: most interferers share no subchannel with the
        # pair, and only interferers at the pair's own start share any
        (dict(repetitions_nu=2, lambda_rate=30.0, num_subchannels_b=20), {}),
        (dict(repetitions_nu=2, lambda_rate=30.0, packet_width_m=1), {}),
    ], ids=["nu0", "nu1", "nu2", "nu8", "cutoff0", "cutoff300", "half_duplex_heavy",
            "b_equals_m", "wide_band", "m_equals_1"])
    def test_matches_event_loop(self, scenario_kw, sim_kw):
        # the chunked simulator against the slot-by-slot event loop: equal
        # tallies and equal records, in the same order; and equal tallies
        # without a recorder, which receive one attempt index per pass and
        # leave out the pairs already delivered
        cfg = validate_sim_config(small_sim(scenario_kw=scenario_kw, num_ues=120,
                                            num_slots=1500, **sim_kw))
        for rep in range(cfg.replications):
            got, want = [], []
            result = _simulate_replication(cfg, rep, recorder=got.append)
            assert result == simulate_replication_reference(cfg, rep, recorder=want.append)
            assert result.pairs > 0 and got
            assert got == want
            assert _simulate_replication(cfg, rep) == result

    @CHUNKING_CASES
    def test_chunking_is_invisible(self, scenario_kw, monkeypatch):
        # one slot per chunk and one chunk per replication give the default
        # chunking's tallies and records, in the same order
        cfg = validate_sim_config(small_sim(scenario_kw=scenario_kw, num_ues=120,
                                            num_slots=1500))
        calls = count_chunks(monkeypatch)

        def replications(bound):
            monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", bound)
            calls.clear()
            out = []
            for rep in range(cfg.replications):
                records = []
                out.append((_simulate_replication(cfg, rep, recorder=records.append),
                            records))
            return out, len(calls)

        default, default_chunks = replications(sim._CHUNK_ELEMENTS)
        per_slot, slot_chunks = replications(1)
        whole, whole_chunks = replications(2 ** 40)
        assert whole_chunks == cfg.replications < default_chunks < slot_chunks
        assert per_slot == default and whole == default
        for rep, (result, records) in enumerate(default):
            want = []
            assert result == simulate_replication_reference(cfg, rep, recorder=want.append)
            assert records == want

    @CHUNKING_CASES
    def test_untraced_chunking_is_invisible(self, scenario_kw, monkeypatch):
        # without a recorder each attempt index is chunked on its own pass:
        # one slot per chunk and one chunk per pass give the default's tallies
        cfg = validate_sim_config(small_sim(scenario_kw=scenario_kw, num_ues=120,
                                            num_slots=1500))
        calls = count_chunks(monkeypatch)

        def replications(bound):
            monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", bound)
            calls.clear()
            return [_simulate_replication(cfg, rep) for rep in range(cfg.replications)], \
                len(calls)

        default, default_chunks = replications(sim._CHUNK_ELEMENTS)
        per_slot, slot_chunks = replications(1)
        whole, whole_chunks = replications(2 ** 40)
        passes = cfg.replications * (cfg.scenario.repetitions_nu + 1)
        assert whole_chunks == passes < default_chunks < slot_chunks
        assert per_slot == default and whole == default


class TestAgainstClosedForms:
    def test_empirical_transmit_frequency(self):
        # low load so the analytic cycle-length approximation is tight
        cfg = validate_sim_config(small_sim(
            scenario_kw=dict(lambda_rate=20.0, repetitions_nu=2),
            num_ues=400, num_slots=20000, replications=1))
        sc, horizon = cfg.scenario, cfg.num_slots
        # the topology and schedule of replication 0, drawn as the simulator
        # draws them; attempts inside the horizon by UEs away from the ends
        rng = replication_rng(cfg.seed, 0)
        pos = build_topology(cfg, rng)
        tx, slots, _ = _schedule(sc, rng, cfg.num_ues, horizon)
        eligible = (pos >= 2.0 * sc.range_r) & (pos <= pos[-1] - 2.0 * sc.range_r)
        tx_slots = (eligible[tx][:, None] & (slots < horizon)).sum()
        p_emp = tx_slots / (eligible.sum() * horizon)
        p = transmit_probability(cfg.scenario)
        assert p_emp == pytest.approx(p, rel=0.05)

    def test_cutoff_zero_leaves_pure_half_duplex(self):
        # without interference a nu=0 pair is lost iff the receiver transmits
        # in the packet's slot, which happens with probability ~ p
        cfg = small_sim(scenario_kw=dict(lambda_rate=20.0, repetitions_nu=0),
                        interference_cutoff=0.0, num_slots=6000, replications=3)
        report = run(cfg, workers=2)
        assert report.interference_losses == 0
        assert report.half_duplex_losses == report.losses
        p = transmit_probability(cfg.scenario)
        tol = max(3 * report.confidence_interval_95, 0.05 * p)
        assert abs(report.plr_estimate - p) <= tol

    def test_isolated_transmissions_are_always_delivered(self):
        # pinned quiet scenario: arrivals so sparse that no two packets share
        # a slot; reception is then noise-limited and within range succeeds
        cfg = small_sim(scenario_kw=dict(lambda_rate=0.02), num_ues=100,
                        num_slots=30000, seed=12, replications=1)
        records = attempt_trace(cfg)
        slots_seen = defaultdict(set)
        for (rep, _), attempts in _by_packet(records).items():
            for slot, _, tx in attempts.values():
                slots_seen[(rep, slot)].add(tx)
        assert any(slots_seen.values())
        assert all(len(txs) == 1 for txs in slots_seen.values())
        report = run(cfg)
        assert report.pairs_measured > 0
        assert report.losses == 0

    def test_report_invariants(self):
        report = run(small_sim(scenario_kw=dict(lambda_rate=30.0)))
        assert 0.0 <= report.plr_estimate <= 1.0
        assert report.losses <= report.pairs_measured
        assert report.half_duplex_losses + report.interference_losses == report.losses
        assert report.confidence_interval_95 >= 0.0


class TestTrace:
    def test_csv_layout(self):
        import io

        from mode2cap import TRACE_COLUMNS, trace_to_csv

        cfg = small_sim(num_slots=2000)
        records = attempt_trace(cfg)
        buf = io.StringIO()
        trace_to_csv(records, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "replication,packet_id,attempt_index,slot,subch_start,rx_id,outcome,cause"
        assert len(lines) == len(records) + 2 and lines[-1] == ""
        first = lines[1].split(",")
        assert len(first) == len(TRACE_COLUMNS) == 8
        assert "\r" not in buf.getvalue()

    def test_trace_counts_match_report(self):
        cfg = small_sim(scenario_kw=dict(lambda_rate=30.0), num_slots=3000)
        report = run(cfg)
        outcomes = defaultdict(list)
        for rec in attempt_trace(cfg):
            outcomes[(rec.replication, rec.packet_id, rec.rx_id)].append(rec)
        assert len(outcomes) == report.pairs_measured
        lost = {key: recs for key, recs in outcomes.items()
                if not any(r.outcome == "success" for r in recs)}
        assert len(lost) == report.losses
        pure_hd = sum(1 for recs in lost.values()
                      if all(r.cause == "half_duplex" for r in recs))
        assert pure_hd == report.half_duplex_losses


@pytest.mark.slow
class TestRepetitionCorrelation:
    def test_conditional_repetition_collision_matches_model(self):
        """Frequency of repeated collisions with the UE that broke the first
        attempt, conditioned the way the analytic term is defined."""
        scenario = make_scenario(lambda_rate=15.0, repetitions_nu=2)
        cfg = validate_sim_config(SimConfig(
            scenario=scenario, num_ues=150, num_slots=6000, seed=9, replications=3))
        m_w = scenario.packet_width_m
        records = attempt_trace(cfg)

        by_rep = defaultdict(list)
        for rec in records:
            by_rep[rec.replication].append(rec)

        events = 0
        collisions = 0
        expected = 0.0
        for rep, recs in sorted(by_rep.items()):
            pos = build_topology(cfg, replication_rng(cfg.seed, rep))
            attempts = defaultdict(dict)   # pid -> ai -> (slot, sub, tx)
            outcome = {}
            slot_attempts = defaultdict(list)
            for rec in recs:
                attempts[rec.packet_id][rec.attempt_index] = (
                    rec.slot, rec.subch_start, rec.tx_ue)
                outcome[(rec.packet_id, rec.rx_id, rec.attempt_index)] = (
                    rec.outcome, rec.cause)
                slot_attempts[rec.slot].append((rec.packet_id, rec.subch_start, rec.tx_ue))
            for rec in recs:
                if rec.attempt_index != 0 or rec.cause != "interference":
                    continue
                slot0, sub0, tx = attempts[rec.packet_id][0]
                r_pair = abs(pos[tx] - pos[rec.rx_id])
                # radii for overlaps 1..M in one call, equal to scalar calls
                rho = exclusion_radius(r_pair, np.arange(1, m_w + 1), scenario).tolist()
                candidates = set()
                for pid2, sub2, tx2 in slot_attempts[slot0]:
                    if pid2 == rec.packet_id:
                        continue
                    ov = max(0, min(sub0, sub2) + m_w - max(sub0, sub2))
                    if ov == 0:
                        continue
                    if abs(pos[tx2] - pos[rec.rx_id]) <= rho[ov - 1]:
                        candidates.add(pid2)
                if len(candidates) != 1:
                    continue
                other = candidates.pop()
                other_slots = {s for s, _, _ in attempts[other].values()}
                for ai in range(1, scenario.repetitions_nu + 1):
                    slot_i = attempts[rec.packet_id][ai][0]
                    if slot_i not in other_slots:
                        continue
                    got = outcome.get((rec.packet_id, rec.rx_id, ai))
                    if got is None or got[1] == "half_duplex":
                        continue
                    events += 1
                    expected += 1.0 - repetition_noncollision_prob(r_pair, scenario)
                    if got == ("fail", "interference"):
                        collisions += 1

        assert events >= 100
        observed_rate = collisions / events
        expected_rate = expected / events
        sigma = math.sqrt(expected_rate * (1 - expected_rate) / events)
        assert abs(observed_rate - expected_rate) <= 3 * sigma + 0.08
