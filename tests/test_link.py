import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mode2cap import (
    eesm_received,
    exclusion_radius,
    pathloss,
    pathloss_distance,
    reception_breakpoints,
    sinr_no_interference,
)

from conftest import make_scenario
from oracles import effective_sinr, eesm_receive, exclusion_profile, sinr_one_interferer


class TestPathloss:
    def test_hand_value(self, scenario):
        assert pathloss(100.0, scenario) == pytest.approx(
            (36.0 * 100.0) ** -3.0, rel=1e-14)

    def test_unit_distance_point(self, scenario):
        assert pathloss(1.0 / scenario.pathloss_a, scenario) == pytest.approx(1.0, rel=1e-14)

    def test_power_law_halving(self, scenario):
        assert pathloss(160.0, scenario) == pytest.approx(
            pathloss(80.0, scenario) / 8.0, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, -5.0])
    def test_nonpositive_distance(self, scenario, r):
        with pytest.raises(ValueError):
            pathloss(r, scenario)

    def test_distance_inverts_gain(self, scenario):
        r = np.array([0.5, 1.0 / scenario.pathloss_a, 80.0, 200.0, 1623.0])
        assert np.allclose(pathloss_distance(pathloss(r, scenario), scenario), r,
                           rtol=1e-14, atol=0.0)
        # a scalar call equals the matching element of an array call
        assert pathloss_distance(pathloss(80.0, scenario), scenario) \
            == pathloss_distance(pathloss(r, scenario), scenario)[2]


class TestSinr:
    def test_noise_only_hand_value(self, scenario):
        expect = pathloss(100.0, scenario) * scenario.tx_power_s / (3 * 1e-13)
        got = sinr_no_interference(100.0, scenario)
        assert got == pytest.approx(expect, rel=1e-14)
        assert got == pytest.approx(14.255, rel=1e-3)

    def test_huge_noise_kills_sinr(self):
        cfg = make_scenario(noise_sigma=1e3)
        assert sinr_no_interference(100.0, cfg) < 1e-12

    def test_width_scaling(self):
        one = make_scenario(packet_width_m=1)
        three = make_scenario(packet_width_m=3)
        ratio = sinr_no_interference(50.0, one) / sinr_no_interference(50.0, three)
        assert ratio == pytest.approx(3.0, rel=1e-12)

    def test_single_interferer_consistency(self, scenario):
        far = sinr_one_interferer(100.0, 1e9, scenario)
        assert far == pytest.approx(sinr_no_interference(100.0, scenario), rel=1e-6)
        near = sinr_one_interferer(100.0, 10.0, scenario)
        assert near < far


class TestExclusionRadius:
    def test_zero_threshold_means_no_exclusion(self, scenario):
        cfg = replace(scenario, sinr_threshold_t=0.0)
        for m in range(1, cfg.packet_width_m + 1):
            assert exclusion_radius(100.0, m, cfg) == 0.0

    def test_reference_full_overlap_value(self, scenario):
        # hand evaluation: xi = exp(-T/gamma), solve the EESM threshold for the
        # interferer distance
        got = exclusion_radius(100.0, 3, scenario)
        xi = math.exp(-scenario.sinr_threshold_t / scenario.eesm_gamma)
        bracket = -pathloss(100.0, scenario) / (scenario.eesm_gamma * math.log(xi)) \
            - scenario.noise_sigma * 3 / scenario.tx_power_s
        expect = bracket ** (-1 / 3.0) / scenario.pathloss_a
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(124.46, rel=0.01)

    def test_noise_limited_distance_is_infinite(self, scenario):
        # beyond the coverage edge SINR0 <= T and no interferer distance helps
        r = 250.0
        assert sinr_no_interference(r, scenario) <= scenario.sinr_threshold_t
        assert exclusion_radius(r, 3, scenario) == math.inf

    def test_negative_xi_is_infinite(self):
        # large threshold with weak signal: even one interfered subchannel is fatal
        cfg = make_scenario(sinr_threshold_t=10.0)
        r = 190.0
        assert exclusion_radius(r, 1, cfg) == math.inf

    def test_profile_entries(self, scenario):
        prof = exclusion_profile(100.0, scenario)
        assert len(prof.rho) == scenario.packet_width_m
        assert all(r >= 0.0 for r in prof.rho)
        assert not prof.any_infinite
        assert prof.max_finite == max(prof.rho)
        for m in range(1, 4):
            assert prof.for_overlap(m) == prof.rho[m - 1]

    def test_overlap_bounds(self, scenario):
        with pytest.raises(ValueError):
            exclusion_radius(100.0, 0, scenario)
        with pytest.raises(ValueError):
            exclusion_radius(100.0, 4, scenario)
        with pytest.raises(ValueError):
            exclusion_radius(100.0, np.array([1, 2, 4]), scenario)

    def test_array_distances_rejected_if_any_nonpositive(self, scenario):
        with pytest.raises(ValueError):
            exclusion_radius(np.array([50.0, 0.0]), 3, scenario)

    def test_array_matches_scalar_reference(self):
        # a low threshold makes small overlaps survivable at short range, so
        # the grid covers radius 0, finite radii and unbounded radii
        cfg = make_scenario(sinr_threshold_t=0.5)
        r = np.linspace(0.5, 400.0, 800)
        m = np.arange(1, cfg.packet_width_m + 1)
        got = exclusion_radius(r[:, None], m, cfg)
        assert got.shape == (r.size, m.size)
        ref = np.array([[_reference_exclusion_radius(ri, mi, cfg) for mi in m.tolist()]
                        for ri in r.tolist()])
        want, kappa = ref[..., 0], ref[..., 1]
        assert np.any(want == 0.0) and np.any(np.isinf(want))
        finite = np.isfinite(want) & (want > 0.0)
        assert np.any(finite)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        # numpy's exp/log/pow may differ from libm's by an ulp; 4 ulp per unit
        # of the formula's condition number bounds what that can do
        err = np.abs(got[finite] - want[finite])
        assert np.all(err <= 4.0 * kappa[finite] * np.spacing(want[finite]))


def _regime(r: float, cfg) -> tuple[bool, ...]:
    """Which reception regime distance r is in: SINR0 > T, and for each
    overlap m = 1..M whether its exclusion radius is 0, or unbounded."""
    rho = exclusion_radius(r, np.arange(1, cfg.packet_width_m + 1), cfg)
    return (bool(sinr_no_interference(r, cfg) > cfg.sinr_threshold_t),
            *(rho == 0.0).tolist(), *np.isinf(rho).tolist())


class TestReceptionBreakpoints:
    CONFIGS = [dict(), dict(packet_width_m=5), dict(sinr_threshold_t=0.5),
               dict(num_subchannels_b=20, packet_width_m=8)]

    @pytest.mark.parametrize("kwargs", CONFIGS, ids=["default", "m5", "t05", "m8"])
    def test_each_point_switches_one_regime(self, kwargs):
        # r_T flips SINR0 > T and makes the full overlap M's radius unbounded;
        # each other point turns one overlap's radius from 0 to positive, for
        # each m < M with (M/m) e^(-T/gamma) > 1
        cfg = make_scenario(**kwargs)
        m_w, t = cfg.packet_width_m, cfg.sinr_threshold_t
        points = reception_breakpoints(cfg)
        zero_left = [m for m in range(1, m_w)
                     if m_w / m * math.exp(-t / cfg.eesm_gamma) > 1.0]
        assert len(points) == 1 + len(zero_left)
        assert list(points) == sorted(points)
        switched = []
        for b in points:
            near, far = b * (1.0 - 1e-9), b * (1.0 + 1e-9)
            rho_near = exclusion_radius(near, np.arange(1, m_w + 1), cfg)
            rho_far = exclusion_radius(far, np.arange(1, m_w + 1), cfg)
            if sinr_no_interference(near, cfg) > t >= sinr_no_interference(far, cfg):
                assert np.array_equal(rho_near == 0.0, rho_far == 0.0)
                assert np.isfinite(rho_near[-1]) and np.isinf(rho_far[-1])
                switched.append(m_w)
            else:
                changed = np.flatnonzero((rho_near == 0.0) & (rho_far > 0.0)) + 1
                assert changed.size == 1 and np.all(np.isfinite(rho_far))
                switched.append(int(changed[0]))
        assert sorted(switched) == zero_left + [m_w]

    @pytest.mark.parametrize("kwargs", CONFIGS, ids=["default", "m5", "t05", "m8"])
    def test_no_regime_change_between_points(self, kwargs):
        cfg = make_scenario(**kwargs)
        points = np.array(reception_breakpoints(cfg))
        r = np.linspace(1.0, 2.0 * points.max(), 4001)
        regimes = [_regime(ri, cfg) for ri in r.tolist()]
        changes = [i for i in range(r.size - 1) if regimes[i] != regimes[i + 1]]
        assert len(changes) == points.size
        for i, b in zip(changes, points.tolist()):
            assert r[i] < b < r[i + 1]


def _reference_exclusion_radius(r: float, m: int, cfg) -> tuple[float, float]:
    """The scalar exclusion radius written with the math module, one call per
    (distance, overlap): the reference for the broadcasting implementation.

    Also returns kappa, the first-order bound on the radius's relative error
    in units of the relative error of each exp, log and pow it evaluates.
    kappa is of order 1 in the bulk of the range and grows without bound
    next to the regime boundaries, where the bracket or log(xi) cancels.
    """
    m_w = cfg.packet_width_m
    gamma = cfg.eesm_gamma
    gain = (cfg.pathloss_a * r) ** (-cfg.pathloss_beta)
    sinr0 = gain * cfg.tx_power_s / (m_w * cfg.noise_sigma)
    ratio = m_w / m
    exp_sinr0 = math.exp(-sinr0 / gamma)
    xi = ratio * math.exp(-cfg.sinr_threshold_t / gamma) - (ratio - 1.0) * exp_sinr0
    if xi >= 1.0:
        return 0.0, 1.0
    if xi <= 0.0:
        return math.inf, 1.0
    log_xi = math.log(xi)
    q = -gain / (gamma * log_xi)
    bracket = q - cfg.noise_sigma * m_w / cfg.tx_power_s
    if bracket <= 0.0:
        return math.inf, 1.0
    xi_error = (ratio - 1.0) * exp_sinr0 * (1.0 + sinr0 / gamma) / (xi * abs(log_xi))
    kappa = 1.0 + q / (cfg.pathloss_beta * bracket) * (2.0 + xi_error)
    return bracket ** (-1.0 / cfg.pathloss_beta) / cfg.pathloss_a, kappa


class TestEesm:
    def test_constant_vector_is_identity(self, scenario):
        out = eesm_receive([2.5, 2.5, 2.5], scenario)
        assert out.effective_sinr == pytest.approx(2.5, rel=1e-12)
        assert out.success  # T is ~1.7

    def test_matches_two_level_closed_form(self, scenario):
        # M - m clean subchannels and m interfered ones
        r, r_int, m = 120.0, 90.0, 2
        s0 = sinr_no_interference(r, scenario)
        s1 = sinr_one_interferer(r, r_int, scenario)
        out = eesm_receive([s0, s1, s1], scenario)
        g = scenario.eesm_gamma
        expect = -g * math.log((1 / 3) * math.exp(-s0 / g) + (2 / 3) * math.exp(-s1 / g))
        assert out.effective_sinr == pytest.approx(expect, rel=1e-12)

    def test_no_interference_equals_sinr0(self, scenario):
        s0 = sinr_no_interference(140.0, scenario)
        out = eesm_receive([s0] * scenario.packet_width_m, scenario)
        assert out.effective_sinr == pytest.approx(s0, rel=1e-9)

    def test_threshold_is_strict(self, scenario):
        t = scenario.sinr_threshold_t
        assert not eesm_receive([t, t, t], scenario).success
        assert eesm_receive([t * (1 + 1e-9)] * 3, scenario).success

    def test_flip_across_exclusion_radius(self, scenario):
        for r, m in [(50.0, 1), (100.0, 2), (150.0, 3)]:
            rho = exclusion_radius(r, m, scenario)
            assert 0.0 < rho < math.inf
            s0 = sinr_no_interference(r, scenario)
            for eps, expect in [(1e-6, True), (-1e-6, False)]:
                s1 = sinr_one_interferer(r, rho * (1 + eps), scenario)
                sinrs = [s0] * (3 - m) + [s1] * m
                assert eesm_receive(sinrs, scenario).success is expect

    def test_huge_sinrs_do_not_overflow(self, scenario):
        out = eesm_receive([5e4, 5e4, 5e4], scenario)
        assert out.effective_sinr == pytest.approx(5e4, rel=1e-9)
        assert out.success

    def test_empty_input_rejected(self, scenario):
        with pytest.raises(ValueError):
            eesm_receive([], scenario)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=8))
    def test_bounded_by_min_and_max(self, sinrs):
        eff = effective_sinr(sinrs, 1.15)
        assert min(sinrs) - 1e-9 <= eff <= max(sinrs) + 1e-9

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_monotone_in_each_subchannel(self, sinrs, idx, bump):
        idx = idx % len(sinrs)
        base = effective_sinr(sinrs, 1.15)
        raised = list(sinrs)
        raised[idx] += bump
        assert effective_sinr(raised, 1.15) >= base - 1e-12

    def test_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(5)
        sinrs = rng.exponential(4.0, size=(64, 3))
        sinrs[0] = np.inf
        sinrs[1, 2] = 1e5
        got = effective_sinr(sinrs, 1.15)
        assert got.shape == (64,)
        assert np.array_equal(got, [effective_sinr(row, 1.15) for row in sinrs])
        assert got[0] == math.inf

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            effective_sinr(np.empty((4, 0)), 1.15)
        with pytest.raises(ValueError):
            effective_sinr(5.0, 1.15)

    def test_numpy_input_accepted(self, scenario):
        out = eesm_receive(np.array([3.0, 4.0, 5.0]), scenario)
        assert 3.0 <= out.effective_sinr <= 5.0


class TestEesmDecision:
    """eesm_received, the linear-domain test over the first axis, against
    the log-domain effective_sinr(rows) > T over the last."""

    GAMMA, T = 1.15, 1.7

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_log_domain_test(self, m):
        rng = np.random.default_rng(m)
        rows = rng.exponential(3.0, size=(4000, m))
        # one subchannel per row moved onto T's neighbourhood, so that many
        # rows sit near the decision boundary
        rows[::2, 0] = self.T * rng.uniform(0.5, 1.5, size=2000)
        # keep rows whose effective SINR is at least 1e-9 relative away from T
        eff = effective_sinr(rows, self.GAMMA)
        rows = rows[np.abs(eff / self.T - 1.0) >= 1e-9]
        want = effective_sinr(rows, self.GAMMA) > self.T
        assert 0 < want.sum() < want.size
        assert np.array_equal(eesm_received(rows.T, self.GAMMA, self.T), want)
        for row, ok in zip(rows[:50], want[:50]):
            assert eesm_received(row, self.GAMMA, self.T) == ok

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_large_and_infinite_sinrs_are_received(self, m):
        # exp((T - sinr) / gamma) underflows to 0 for these
        rows = np.array([[5e4] * m, [1e300] * m, [np.inf] * m,
                         [np.inf] + [5e4] * (m - 1)])
        assert (effective_sinr(rows, self.GAMMA) > self.T).all()
        assert eesm_received(rows.T, self.GAMMA, self.T).tolist() == [True] * 4

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_threshold_is_strict(self, m):
        t = self.T
        assert not eesm_received([t] * m, self.GAMMA, t)
        assert eesm_received([t * (1 + 1e-9)] * m, self.GAMMA, t)
        # one subchannel far below T is a loss, even where its term overflows
        assert not eesm_received([0.0] + [5e4] * (m - 1), self.GAMMA, 1e3)

    def test_empty_subchannel_axis_rejected(self):
        with pytest.raises(ValueError):
            eesm_received(np.empty((0, 4)), self.GAMMA, self.T)
        with pytest.raises(ValueError):
            eesm_received([], self.GAMMA, self.T)
        with pytest.raises(ValueError):
            eesm_received(5.0, self.GAMMA, self.T)
