import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import mode2cap
from mode2cap import (
    ConfigError,
    PlrCurvePoint,
    TrafficIntensityError,
    capacity,
    capacity_sweep,
    exclusion_radius,
    loss_recursion,
    overlap_distribution,
    plr,
    reception_breakpoints,
    repetition_noncollision_prob,
    success_prob,
    transmit_probability,
    truncation_depth,
    validate_config,
)
from mode2cap.analytic import (
    _SHARED_NODES,
    LAMBDA_CAP,
    LAMBDA_START,
    MAX_TRUNCATION_DEPTH,
    REL_TOL,
    _binomial_rows,
    _diagonal_index,
    _load_free_key,
    _noncollision_from_profile,
    _PlrNodes,
    _RecursionOperator,
)

from conftest import make_scenario
from oracles import loss_recursion_per_node, plr_composite, success_prob_series


class TestSuccessProb:
    def test_no_neighbors_means_certain_success(self):
        cfg = make_scenario(phi=1e-12)
        assert success_prob(100.0, cfg) > 1.0 - 1e-9

    def test_vanishing_load_means_certain_success(self):
        cfg = make_scenario(lambda_rate=1e-9)
        assert success_prob(100.0, cfg) > 1.0 - 1e-9

    def test_matches_hand_composed_exponent(self, scenario):
        p = transmit_probability(scenario)
        probs = overlap_distribution(10, 3)
        exponent = 2.0 * scenario.phi * p * sum(
            probs[m] * exclusion_radius(100.0, m, scenario) for m in range(1, 4))
        assert success_prob(100.0, scenario) == pytest.approx(
            math.exp(-exponent), rel=1e-12)

    def test_noise_limited_distance_fails(self, scenario):
        assert success_prob(250.0, scenario) == 0.0

    def test_decreasing_in_load(self, scenario):
        values = [success_prob(100.0, scenario.with_lambda(lam))
                  for lam in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]

    def test_array_matches_scalar_calls(self, scenario):
        # 250 m and beyond is noise-limited, so the zero branch is covered too
        r = np.linspace(1.0, 300.0, 97)
        got = success_prob(r, scenario)
        assert got.shape == r.shape
        assert np.array_equal(got, [success_prob(ri, scenario) for ri in r.tolist()])
        assert np.any(got == 0.0) and np.any(got > 0.0)
        grid = r.reshape(1, 97)
        assert np.array_equal(success_prob(grid, scenario), got[None, :])


class TestSeriesCancellation:
    def test_series_matches_closed_form_for_any_r_bar(self, scenario):
        closed = success_prob(100.0, scenario)
        for r_bar in (200.0, 350.0, 500.0):
            series = success_prob_series(100.0, scenario, r_bar=r_bar)
            assert series == pytest.approx(closed, abs=1e-9)

    def test_r_bar_below_largest_radius_rejected(self, scenario):
        with pytest.raises(ValueError, match="r_bar"):
            success_prob_series(100.0, scenario, r_bar=50.0)

    def test_infinite_radius_rejected(self, scenario):
        with pytest.raises(ValueError, match="finite"):
            success_prob_series(250.0, scenario, r_bar=1e4)


class TestRepetitionNonCollision:
    def test_full_band_packets_always_recollide(self):
        cfg = make_scenario(num_subchannels_b=3, packet_width_m=3)
        assert repetition_noncollision_prob(100.0, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_equal_radii_identity(self):
        weights = np.array(overlap_distribution(10, 3)[1:])
        value = _noncollision_from_profile(weights, np.array([50.0, 50.0, 50.0]))
        assert value == pytest.approx(1.0 - weights.sum(), rel=1e-12)

    def test_zero_denominator_means_no_collision_possible(self, scenario):
        cfg = replace(scenario, sinr_threshold_t=0.0)  # all exclusion radii 0
        assert repetition_noncollision_prob(100.0, cfg) == 1.0

    def test_unbounded_radii_limit(self):
        value = _noncollision_from_profile(
            np.array([0.2, 0.3, 0.5]), np.array([10.0, math.inf, 20.0]))
        assert value == pytest.approx(1.0 - 0.3, rel=1e-12)

    def test_reference_point_is_interior(self, scenario):
        value = repetition_noncollision_prob(100.0, scenario)
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("kwargs", [dict(), dict(sinr_threshold_t=0.5),
                                        dict(num_subchannels_b=5)])
    def test_array_matches_scalar_calls(self, kwargs):
        cfg = make_scenario(**kwargs)
        r = np.linspace(1.0, 300.0, 97)
        got = repetition_noncollision_prob(r, cfg)
        assert got.shape == r.shape
        assert np.array_equal(
            got, [repetition_noncollision_prob(ri, cfg) for ri in r.tolist()])


EPS = np.finfo(float).eps
# the mixing probabilities the recursion uses: nu/(W-1) at the default W = 20,
# and 1/(nu+1)
MIXING_QS = [nu / 19.0 for nu in range(1, 9)] + [1.0 / (nu + 1.0) for nu in range(1, 9)]


class TestBinomialRows:
    """The mixing rows built by Pascal's rule, row c = (1-q) a + q b from the
    entries a, b of row c-1.  1-q, the two nonnegative products and their sum
    are each rounded to nearest, so the relative error grows by at most
    3 eps/2 per row, and 2 c eps bounds row c."""

    @pytest.mark.parametrize("q", MIXING_QS)
    def test_within_2c_eps_of_exact_values(self, q):
        width = 46  # (8+1)*5+1: nu = 8 at truncation depth 5
        pmf = _binomial_rows(width, q)
        exact_q = Fraction(q)
        for c in range(width):
            bound = 2 * c * Fraction(EPS)
            for i in range(width):
                exact = (math.comb(c, i) * exact_q ** i * (1 - exact_q) ** (c - i)
                         if i <= c else Fraction(0))
                assert abs(Fraction(pmf[c, i]) - exact) <= bound * exact, (c, i)

    # p_rep and q_last at nu = 8, the only nu that reaches the cap width
    @pytest.mark.parametrize("q", [8.0 / 19.0, 1.0 / 9.0])
    def test_cap_width_rows_are_distributions_that_match_scipy(self, q):
        width = 9 * MAX_TRUNCATION_DEPTH + 1  # nu = 8 at the truncation cap
        pmf = _binomial_rows(width, q)
        c = np.arange(width)
        assert np.all(pmf >= 0.0)
        sums = np.array([math.fsum(row) for row in pmf])
        assert np.all(np.abs(sums - 1.0) <= 2 * c * EPS)
        # Pascal's rule is within 2 c eps <= 1.03e-12 of the exact value.
        # scipy's pmf has no stated bound; against exact rationals it was off
        # by up to 6.3e-13 relative (2800 eps, at c = 172, i = 0, q = 1/19),
        # so it is allowed 2e-12, three times that.  Entries above 1e-250 are
        # far from the subnormal range, where underflow adds absolute error.
        ref = stats.binom.pmf(c[None, :], c[:, None], q)
        big = ref > 1e-250
        rel = np.abs(pmf - ref)[big] / ref[big]
        assert rel.max() <= 2 * (width - 1) * EPS + 2e-12


class TestLossRecursion:
    def test_zero_attempts_row_is_one(self, scenario):
        table = loss_recursion(100.0, scenario)
        assert np.all(table.values[0] == 1.0)

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_half_duplex_only_collapse(self, nu):
        # perfect reception and repetition escape leave only self-blocking
        cfg = make_scenario(repetitions_nu=nu, lambda_rate=100.0)
        p = transmit_probability(cfg)
        table = loss_recursion(100.0, cfg, p_s=1.0, p_nc=1.0)
        assert table.plr_r == pytest.approx(p ** (nu + 1), abs=1e-12)
        assert not table.clamped

    def test_single_attempt_geometric_identity(self):
        cfg = make_scenario(repetitions_nu=0, lambda_rate=100.0)
        p = transmit_probability(cfg)
        k = truncation_depth(cfg)
        p_s = 0.83
        table = loss_recursion(100.0, cfg, p_s=p_s)
        expect = p + (1.0 - p_s) * (1.0 - p ** k)
        assert table.plr_r == pytest.approx(expect, abs=1e-12)
        assert abs(table.plr_r - (p + (1.0 - p_s))) <= p ** k

    def test_forced_overload_sets_validity_flag(self):
        # with hopeless reception the truncated geometric sum exceeds 1
        cfg = make_scenario(repetitions_nu=0, lambda_rate=400.0)
        table = loss_recursion(100.0, cfg, p_s=0.0)
        assert table.clamped
        assert table.plr_r <= 1.0

    def test_values_are_probabilities(self, scenario):
        table = loss_recursion(150.0, scenario.with_lambda(50.0))
        assert np.all(table.values >= 0.0)
        assert np.all(table.values <= 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(lambda_rate=100.0),
        dict(repetitions_nu=6, lambda_rate=4.0),
        dict(num_subchannels_b=5, repetitions_nu=4, lambda_rate=2.0),
    ])
    def test_nonincreasing_in_attempts_on_valid_region(self, kwargs):
        cfg = make_scenario(**kwargs)
        table = loss_recursion(120.0, cfg)
        rows = table.values
        for t in range(1, rows.shape[0]):
            c_hi = max(0, table.valid_c_max(t))
            assert np.all(rows[t, :c_hi + 1] <= rows[t - 1, :c_hi + 1] + 1e-12)

    @pytest.mark.parametrize("kwargs", [{}, dict(range_r=300.0), dict(packet_width_m=5)],
                             ids=["reference", "range300", "width5"])
    def test_collision_probs_are_the_public_ones(self, kwargs):
        # bit for bit and of the same numpy scalar type, on both sides of the
        # breakpoints (width 5: 131 m and 171 m) and beyond r_T
        cfg = make_scenario(**kwargs)
        for r in (10.0, 120.0, 150.0, 190.0, 250.0):
            table = loss_recursion(r, cfg)
            for got, want in ((table.p_s, success_prob(r, cfg)),
                              (table.p_nc, repetition_noncollision_prob(r, cfg))):
                assert type(got) is type(want)
                assert float(got).hex() == float(want).hex()

    def test_truncation_override(self, scenario):
        base = loss_recursion(100.0, scenario)
        deeper = loss_recursion(100.0, scenario, truncation_k=2 * base.truncation_k)
        assert deeper.truncation_k == 2 * base.truncation_k
        assert abs(deeper.plr_r - base.plr_r) < scenario.plr_target / 10


class TestBatchedRecursion:
    """The loss recursion run on all nodes of a plr grid at once: node by node
    it equals loss_recursion on that node alone and the per-node reference,
    and splitting the grid into chunks does not change plr."""

    @staticmethod
    def _grid(cfg, panels=8, points=16):
        x, _ = np.polynomial.legendre.leggauss(points)
        width = cfg.range_r / panels
        r = (((np.arange(panels) + 0.5) * width)[:, None] + 0.5 * width * x).ravel()
        p_s = np.broadcast_to(success_prob(r, cfg), r.shape)
        p_nc = np.broadcast_to(repetition_noncollision_prob(r, cfg), r.shape)
        return r, p_s, p_nc

    @pytest.mark.parametrize("kwargs, p_s_scale", [
        (dict(repetitions_nu=0), 1.0),
        (dict(repetitions_nu=2), 1.0),
        (dict(repetitions_nu=8), 1.0),
        # overload: with reception this poor some nodes clamp and some do not
        (dict(repetitions_nu=2, lambda_rate=50.0), 0.25),
        # beyond 203 m noise alone breaks reception, so p_s = 0 there
        (dict(repetitions_nu=2, range_r=300.0), 1.0),
    ], ids=["nu0", "nu2", "nu8", "overload", "zero_p_s"])
    def test_grid_matches_single_node(self, kwargs, p_s_scale):
        cfg = make_scenario(**kwargs)
        r, p_s, p_nc = self._grid(cfg)
        p_s = p_s * p_s_scale
        values, clamped = _RecursionOperator(cfg).plr_r(p_s, p_nc)
        single = [loss_recursion(ri, cfg, p_s=a, p_nc=b)
                  for ri, a, b in zip(r.tolist(), p_s.tolist(), p_nc.tolist())]
        np.testing.assert_array_max_ulp(values, [t.plr_r for t in single], maxulp=4)
        assert clamped.tolist() == [t.clamped for t in single]
        if "lambda_rate" in kwargs:
            assert 0 < clamped.sum() < clamped.size
        if "range_r" in kwargs:
            assert np.any(p_s == 0.0) and np.any(p_s > 0.0)

    @pytest.mark.parametrize("kwargs, truncation_k", [
        (dict(repetitions_nu=0), None),
        (dict(repetitions_nu=2), None),
        (dict(repetitions_nu=8), None),
        (dict(num_subchannels_b=5, repetitions_nu=4, lambda_rate=2.0), None),
        (dict(repetitions_nu=2, range_r=300.0), None),
        # width 136, far wider than K: the banded u-term matrix is mostly zeros
        (dict(repetitions_nu=2), 45),
    ], ids=["nu0", "nu2", "nu8", "b5nu4", "zero_p_s", "wide"])
    def test_matches_per_node_reference(self, kwargs, truncation_k):
        # each level sums up to width**2 positive products in another order
        # than the reference; 1e-13 is about width * (nu + 1) ulp at nu = 8
        cfg = make_scenario(**kwargs)
        op = _RecursionOperator(cfg, truncation_k)
        _, p_s, p_nc = self._grid(cfg)
        levels, clamped = op.levels(p_s[::8], p_nc[::8])
        rows = np.stack(levels)
        for n, (a, b) in enumerate(zip(p_s[::8].tolist(), p_nc[::8].tolist())):
            want, want_clamped = loss_recursion_per_node(a, b, cfg, op.k)
            np.testing.assert_allclose(rows[:, n, :], want, rtol=1e-13, atol=0.0)
            assert clamped[n] == want_clamped

    @pytest.mark.parametrize("shape", [(3, 2, 7, 7), (4, 1, 1)], ids=["batched", "width1"])
    def test_diagonal_index_is_exact(self, shape):
        a = np.random.default_rng(5).random(shape)
        want = np.zeros(shape)
        for c in range(shape[-1]):
            for d in range(c + 1):
                want[..., c, d] = a[..., c, c - d]
        assert np.array_equal(_diagonal_index(a), want)

    def test_plr_independent_of_blas_threads(self, tmp_path):
        # the recursion's matrix products run on BLAS; at width 136 (K = 45,
        # nu = 2) they are large enough for a threaded BLAS to split them
        code = ("from mode2cap import ScenarioConfig, plr, validate_config\n"
                "pt = plr(10.0, validate_config(ScenarioConfig()), truncation_k=45)\n"
                "print(pt.plr.hex(), pt.error_estimate.hex(), pt.validity_warning)")
        src = str(Path(mode2cap.__file__).parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                                 capture_output=True, text=True, check=True)
            outs.append(out.stdout)
        assert outs[0] == outs[1]

    def test_chunked_grid_equals_one_chunk(self, scenario, monkeypatch):
        # K = 60 at nu = 2 makes the state 181 wide: 32 nodes per chunk, so
        # the 56 nodes of both rules run in 2 chunks
        k, nodes = 60, len(_PlrNodes(scenario).r)
        assert -(-nodes // _RecursionOperator(scenario, truncation_k=k).chunk) == 2
        chunked = plr(10.0, scenario, truncation_k=k)
        monkeypatch.setattr(_RecursionOperator, "_BATCH_ELEMENTS", 2 ** 40)
        assert _RecursionOperator(scenario, truncation_k=k).chunk >= nodes
        assert plr(10.0, scenario, truncation_k=k) == chunked


class TestPlr:
    def test_constant_integrand_is_identity(self, scenario, monkeypatch):
        # plr takes p_s from the nodes' load-free terms and p_nc from their
        # exclusion radii, through these two helpers
        monkeypatch.setattr("mode2cap.analytic._success_from_terms",
                            lambda doomed, radius_sum, cfg: np.full(radius_sum.shape, 0.7))
        monkeypatch.setattr("mode2cap.analytic._noncollision_from_profile",
                            lambda weights, rho: np.full(rho.shape[:-1], 0.4))
        expect = loss_recursion(100.0, scenario, p_s=0.7, p_nc=0.4).plr_r
        point = plr(scenario.lambda_rate, scenario)
        assert point.plr == pytest.approx(expect, abs=1e-12)
        assert point.error_estimate < 1e-12

    @pytest.mark.parametrize("lam", [0.1, 3.0, 30.0])
    @pytest.mark.parametrize("kwargs", [{}, dict(range_r=300.0), dict(packet_width_m=5)],
                             ids=["reference", "range300", "width5"])
    def test_node_success_prob_is_success_prob(self, monkeypatch, kwargs, lam):
        # a solve's plr calls take p_s at its nodes from their doomed mask
        # and radius sum, kept across loads: bit for bit success_prob's; the
        # nodes' p_nc is repetition_noncollision_prob's
        cfg = make_scenario(**kwargs)
        nodes, seen, plr_r = _PlrNodes(cfg), [], _RecursionOperator.plr_r

        def recording(op, p_s, p_nc, hy=None):
            seen.append(p_s)
            return plr_r(op, p_s, p_nc, hy)

        monkeypatch.setattr(_RecursionOperator, "plr_r", recording)
        token = _SHARED_NODES.set({_load_free_key(cfg): nodes})
        try:
            plr(lam, cfg)
        finally:
            _SHARED_NODES.reset(token)
        want = success_prob(nodes.r, cfg.with_lambda(lam))
        assert np.array_equal(seen[0], want)
        # beyond r_T < R noise alone breaks reception
        assert np.any(want == 0.0) == bool(kwargs)
        assert np.array_equal(nodes.p_nc, repetition_noncollision_prob(nodes.r, cfg))

    def test_vanishing_load_vanishing_loss(self, scenario):
        assert plr(1e-6, scenario).plr < 1e-8

    def test_refinement_error_is_small(self, scenario):
        point = plr(10.0, scenario)
        assert 0.0 <= point.plr <= 1.0
        assert point.error_estimate <= 1e-3 * point.plr

    @pytest.mark.parametrize("nu, lam", [(0, 0.5), (0, 3.0), (0, 30.0), (2, 0.5), (2, 3.0),
                                         (2, 30.0), (5, 0.5), (5, 3.0), (5, 10.0),
                                         (8, 0.5), (8, 1.0), (8, 3.0)])
    def test_matches_composite_reference(self, nu, lam):
        # the reference scenario has no breakpoint inside (0, R]: one 56-node
        # piece; 1e-5 = REL_TOL / 100 moves a capacity by under a hundredth
        # of the solver's step
        cfg = make_scenario(repetitions_nu=nu)
        assert len(_PlrNodes(cfg).r) == 56
        point = plr(lam, cfg)
        assert not point.validity_warning
        assert point.plr == pytest.approx(plr_composite(lam, cfg), rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    @pytest.mark.parametrize("nu", [2, 5])
    @pytest.mark.parametrize("kwargs, points", [
        # r_T = 203 m: noise alone breaks reception beyond it
        (dict(range_r=300.0), 1),
        # overlap 1's exclusion radius leaves 0 at 131 m, and r_T = 171 m
        (dict(packet_width_m=5), 2),
    ], ids=["range300", "width5"])
    def test_kinked_loss_matches_adaptive_quadrature(self, kwargs, points, nu, lam):
        cfg = make_scenario(repetitions_nu=nu, **kwargs)
        inside = [b for b in reception_breakpoints(cfg) if 0.0 < b < cfg.range_r]
        assert len(inside) == points
        assert len(_PlrNodes(cfg).r) == 56 * (points + 1)
        loaded = cfg.with_lambda(lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            ref, _ = integrate.quad(lambda r: loss_recursion(r, loaded).plr_r, 0.0,
                                    cfg.range_r, points=inside, epsabs=0.0, epsrel=1e-9,
                                    limit=200)
        assert plr(lam, cfg).plr == pytest.approx(ref / cfg.range_r, rel=REL_TOL, abs=0.0)

    @pytest.mark.parametrize("kwargs, nu, lam", [
        (dict(packet_width_m=5), 5, 1.0),
        (dict(range_r=300.0), 2, 1.0),
        (dict(packet_width_m=5), 2, 0.1),
        (dict(range_r=300.0), 5, 0.3),
    ], ids=["width5-nu5", "range300-nu2", "width5-nu2", "range300-nu5"])
    def test_boundary_layer_at_r_t_matches_adaptive_quadrature(self, kwargs, nu, lam):
        # r_T < R: p_s falls to 0 at r_T as exp(-k (r_T - r)^(-1/3)), which
        # ungraded nodes on the piece ending there missed by 6.5e-7..1.1e-4
        cfg = make_scenario(repetitions_nu=nu, **kwargs)
        ends = [0.0, *(b for b in reception_breakpoints(cfg) if 0.0 < b < cfg.range_r),
                cfg.range_r]
        assert ends[-2] == max(reception_breakpoints(cfg))
        loaded = cfg.with_lambda(lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            ref = sum(integrate.quad(lambda r: loss_recursion(r, loaded).plr_r, a, b,
                                     epsabs=0.0, epsrel=1e-11, limit=200)[0]
                      for a, b in zip(ends, ends[1:]))
        assert plr(lam, cfg).plr == pytest.approx(ref / cfg.range_r, rel=1e-6, abs=0.0)

    def test_truncation_doubling_stability(self, scenario):
        k = truncation_depth(scenario.with_lambda(10.0))
        base = plr(10.0, scenario)
        deeper = plr(10.0, scenario, truncation_k=2 * k)
        assert abs(deeper.plr - base.plr) < scenario.plr_target / 10

    def test_monotone_in_load_on_grid(self, scenario):
        values = [plr(lam, scenario).plr for lam in (0.5, 1, 2, 5, 10, 20, 50)]
        assert all(a <= b * (1 + 1e-9) for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("load", [0.0, -5.0, math.nan, math.inf])
    def test_load_not_finite_and_positive_rejected(self, scenario, load):
        with pytest.raises(ConfigError, match="lambda_rate must be finite and > 0"):
            plr(load, scenario)

    def test_overload_propagates(self):
        cfg = make_scenario(repetitions_nu=0)
        from mode2cap import TrafficIntensityError
        with pytest.raises(TrafficIntensityError):
            plr(5000.0, cfg)


class TestCapacity:
    def test_infeasible_at_lower_bound_gives_zero(self):
        cfg = make_scenario(plr_target=1e-12)
        result = capacity(cfg)
        assert result.capacity == 0.0

    def test_trivial_target_hits_search_cap(self, scenario):
        cfg = replace(scenario, plr_target=1.0)
        result = capacity(cfg)
        assert result.capacity == 1e6
        assert result.above_search_limit
        assert "above_search_limit" in result.flags

    def test_capacity_is_feasibility_boundary(self):
        cfg = make_scenario(repetitions_nu=2, plr_target=1e-2)
        result = capacity(cfg)
        assert not result.above_search_limit
        assert plr(result.capacity, cfg).plr <= cfg.plr_target
        assert plr(result.capacity * 1.01, cfg).plr > cfg.plr_target

    def test_dip_on_a_sampled_load_is_flagged(self, scenario, monkeypatch):
        # PLR = lambda / 50 meets 1e-2 up to lambda = 0.5; the search always
        # samples LAMBDA_START = 1, where the dipped PLR is 0.6 times lower
        # (still infeasible), so it steps down from there either way and the
        # dipped PLR rises again to its next load
        def fake(dip):
            def plr_fake(lam, cfg):
                value = lam / 50.0 * (0.6 if dip and 0.9 < lam < 1.1 else 1.0)
                return PlrCurvePoint(lam, value, 0.0)
            return plr_fake

        cfg = replace(scenario, plr_target=1e-2)
        results = {}
        for dip in (False, True):
            monkeypatch.setattr("mode2cap.analytic.plr", fake(dip))
            results[dip] = result = capacity(cfg)
            assert fake(dip)(result.capacity, cfg).plr <= cfg.plr_target
            assert fake(dip)(result.capacity * (1.0 + REL_TOL), cfg).plr > cfg.plr_target
        assert LAMBDA_START == 1.0
        assert results[False].flags == ()
        assert results[True].flags == ("nonmonotonic_plr",)
        assert results[False].capacity == pytest.approx(0.5, rel=1e-3)

    def test_each_plr_call_evaluates_a_new_load(self, monkeypatch):
        cfg = make_scenario(repetitions_nu=2, plr_target=1e-2)
        loads = []

        def counting(lam, config):
            loads.append(lam)
            return plr(lam, config)

        monkeypatch.setattr("mode2cap.analytic.plr", counting)
        result = capacity(cfg)
        assert len(loads) == len(set(loads))
        # from lambda = 1 a decade up brackets the capacity, and the secant
        # closes the bracket in at most 4 more loads here
        assert 10.0 < result.capacity < 100.0
        assert len(loads) <= 6

    def test_solve_on_a_truncation_step_takes_10_loads(self, monkeypatch):
        # B = 3, PLR 1e-2, nu = 8: the capacity sits where the truncation
        # depth K steps from 1 to 2 and PLR jumps by 7 % within 0.1 % of load,
        # so the secant cannot use the slope there and bisects
        cfg = make_scenario(num_subchannels_b=3, repetitions_nu=8, plr_target=1e-2)
        loads = []

        def counting(lam, config):
            loads.append(lam)
            return plr(lam, config)

        monkeypatch.setattr("mode2cap.analytic.plr", counting)
        cap = capacity(cfg).capacity
        monkeypatch.undo()
        assert len(loads) == len(set(loads)) == 10
        assert truncation_depth(cfg.with_lambda(cap)) == 1
        assert truncation_depth(cfg.with_lambda(cap * (1.0 + REL_TOL))) == 2
        assert plr(cap, cfg).plr <= cfg.plr_target < plr(cap * (1.0 + REL_TOL), cfg).plr

    @pytest.mark.parametrize("nu", range(9))
    @pytest.mark.parametrize("target", [1e-2, 1e-5])
    def test_optimal_nu_solves_take_at_most_12_loads(self, monkeypatch, nu, target):
        # the nu sweep of criterion 6 and the optimal-nu benchmark; they take
        # 4-6 loads each (the name predates two tighter bounds and is kept
        # with its test ids)
        cfg = make_scenario(num_subchannels_b=10, repetitions_nu=nu, plr_target=target)
        loads = []

        def counting(lam, config):
            loads.append(lam)
            return plr(lam, config)

        monkeypatch.setattr("mode2cap.analytic.plr", counting)
        capacity(cfg)
        assert len(loads) <= 6

    @pytest.mark.parametrize("shape", ["steep", "jump", "model_edge", "flat"])
    def test_hard_plr_shapes_end_within_worst_case(self, scenario, monkeypatch, shape):
        # steep: PLR = target * (lambda / 3.7)^60; jump: PLR steps from
        # target / 10 to 10 * target at 3.7; model_edge: PLR = target / 2 up
        # to 3.7 and no PLR (p >= 1) above, which only bisection can narrow;
        # flat: PLR = target * (1 - 1e-9) up to the search cap, where every
        # step is the smallest the search allows
        target, knee = 1e-5, 3.7
        cfg = replace(scenario, plr_target=target)
        loads = []

        def plr_fake(lam, config):
            loads.append(lam)
            if shape == "flat":
                return PlrCurvePoint(lam, target * (1.0 - 1e-9 if lam <= LAMBDA_CAP else 10.0), 0.0)
            if shape == "steep":
                return PlrCurvePoint(lam, target * (lam / knee) ** 60, 0.0)
            if lam <= knee:
                return PlrCurvePoint(lam, target / (10.0 if shape == "jump" else 2.0), 0.0)
            if shape == "jump":
                return PlrCurvePoint(lam, 10.0 * target, 0.0)
            raise TrafficIntensityError("traffic too intense for model (p >= 1)")

        monkeypatch.setattr("mode2cap.analytic.plr", plr_fake)
        result = capacity(cfg)
        cap = result.capacity
        assert result.above_search_limit is (shape == "flat")
        # the bracketing steps from lambda = 1 are at least 0.1 * 2^i in
        # log(lambda) and at most a decade, so 10 of them reach 1e6 and 8 reach
        # 1e-4; the bracket they leave is at most a decade wide, and the secant
        # takes at most 3 loads per halving of its log width, of which 12 take
        # it below log(1 + REL_TOL)
        steps = [min(0.1 * 2.0 ** i, math.log(10.0)) for i in range(10)]
        assert sum(steps[:9]) < math.log(LAMBDA_CAP) <= sum(steps)
        halvings = math.ceil(math.log2(math.log(10.0) / math.log1p(REL_TOL)))
        assert halvings == 12
        assert len(loads) <= 1 + len(steps) + 3 * halvings
        assert plr_fake(cap, cfg).plr <= target
        try:
            above = plr_fake(cap * (1.0 + REL_TOL), cfg).plr
        except TrafficIntensityError:
            above = math.inf
        assert above > target

    @pytest.mark.parametrize("nu, target", [(2, 1e-5), (8, 1e-2)])
    def test_plr_inside_a_solve_equals_standalone(self, monkeypatch, nu, target):
        # the solve's plr calls share its node arrays; a call on another
        # config inside the solve must not
        cfg = make_scenario(num_subchannels_b=10, repetitions_nu=nu, plr_target=target)
        other = replace(cfg, num_subchannels_b=12)
        inside = []

        def recording(lam, config):
            inside.append((lam, plr(lam, config), plr(lam, other)))
            return inside[-1][1]

        monkeypatch.setattr("mode2cap.analytic.plr", recording)
        result = capacity(cfg)
        monkeypatch.undo()
        assert _SHARED_NODES.get() is None
        assert result.capacity in [lam for lam, _, _ in inside]
        for lam, point, point_other in inside:
            assert point == plr(lam, cfg)
            assert point_other == plr(lam, other)

    @pytest.mark.parametrize("nu, flagged", [(8, True), (2, False)])
    def test_validity_is_that_of_the_capacity_point(self, nu, flagged):
        cfg = make_scenario(num_subchannels_b=10, repetitions_nu=nu, plr_target=1e-2)
        result = capacity(cfg)
        assert result.validity_warning is flagged
        assert result.validity_warning == plr(result.capacity, cfg).validity_warning

    def test_sweep_rows_in_grid_order(self, scenario):
        rows = capacity_sweep(scenario, {"repetitions_nu": [0, 1]})
        assert [ov["repetitions_nu"] for ov, _ in rows] == [0, 1]
        assert rows[0][1].capacity < rows[1][1].capacity

    def test_sweep_is_bitwise_parallel_invariant(self, scenario):
        grid = {"repetitions_nu": [0, 1]}
        serial = capacity_sweep(scenario, grid, workers=1)
        parallel = capacity_sweep(scenario, grid, workers=2)
        assert serial == parallel

    def test_sweep_batches_equal_per_row_solves(self, scenario):
        # two load-free configs (B = 5, 10), each met by consecutive rows of
        # one batch on one worker; there a nu = 1 row at 1e-5 (K = 2) ends
        # on recursion width 5 and the nu = 3 row at 1e-2 after it (K = 1)
        # starts on width 5, so hy keyed on the width alone would carry over
        grid = {"num_subchannels_b": [5, 10], "repetitions_nu": [1, 3],
                "plr_target": [1e-2, 1e-5]}
        combos = [dict(zip(grid, values)) for values in product(*grid.values())]
        configs = [validate_config(replace(scenario, **o)) for o in combos]
        per_row = [capacity(cfg) for cfg in configs]
        for b in grid["num_subchannels_b"]:
            i = combos.index({"num_subchannels_b": b, "repetitions_nu": 1, "plr_target": 1e-5})
            end = _RecursionOperator(configs[i].with_lambda(per_row[i].capacity))
            start = _RecursionOperator(configs[i + 1].with_lambda(LAMBDA_START))
            assert (end.width, end.nu) == (5, 1) and (start.width, start.nu) == (5, 3)
        for workers in (1, 2, 3):
            rows = capacity_sweep(scenario, grid, workers=workers)
            assert [o for o, _ in rows] == combos
            assert [r for _, r in rows] == per_row

    def test_sweeping_lambda_rejected(self, scenario):
        with pytest.raises(ValueError, match="lambda_rate"):
            capacity_sweep(scenario, {"lambda_rate": [1.0, 2.0]})
