import concurrent.futures
import math

import pytest
from hypothesis import given, strategies as st

from mode2cap import (
    ConfigError,
    ScenarioConfig,
    TrafficIntensityError,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    repetition_probability,
    transmit_probability,
    truncation_depth,
    validate_config,
    watts_to_dbm,
)
from mode2cap.config import pool_map

from conftest import make_scenario


class TestValidation:
    def test_paper_style_window(self):
        cfg = make_scenario(slot_tau=0.5e-3, delay_budget=10e-3, repetitions_nu=2)
        assert cfg.window_w == 20

    def test_zero_packet_width_rejected(self):
        with pytest.raises(ConfigError, match="packet_width_m out of range"):
            validate_config(ScenarioConfig(packet_width_m=0))

    def test_width_beyond_bandwidth_rejected(self):
        with pytest.raises(ConfigError, match="packet_width_m out of range"):
            validate_config(ScenarioConfig(packet_width_m=11, num_subchannels_b=10))

    def test_repetitions_beyond_window_rejected(self):
        with pytest.raises(ConfigError, match="repetitions do not fit delay budget"):
            validate_config(ScenarioConfig(repetitions_nu=20))

    @pytest.mark.parametrize("field,value,message", [
        ("pathloss_beta", 1.5, "pathloss_beta"),
        ("plr_target", 0.0, "plr_target"),
        ("plr_target", 1.0, "plr_target"),
        ("noise_sigma", 0.0, "noise_sigma"),
        ("phi", -0.1, "phi"),
        ("repetitions_nu", -1, "repetitions_nu"),
        ("lambda_rate", math.inf, "lambda_rate must be finite"),
        ("lambda_rate", math.nan, "lambda_rate must be finite"),
        ("pathloss_beta", math.nan, "pathloss_beta must be finite"),
        ("range_r", math.inf, "range_r must be finite"),
        ("plr_target", math.nan, "plr_target must be finite"),
        ("num_subchannels_b", 10.5, "num_subchannels_b must be an integer"),
        ("packet_width_m", math.nan, "packet_width_m must be an integer"),
        ("repetitions_nu", math.inf, "repetitions_nu must be an integer"),
        ("lambda_rate", "abc", "lambda_rate must be a number"),
    ])
    def test_invariants_named_in_errors(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(ScenarioConfig(**{field: value}))

    def test_dataclass_and_mapping_coerced_alike(self):
        # an integral float is normalised to int on both input paths
        from_dataclass = validate_config(ScenarioConfig(repetitions_nu=2.0))
        assert from_dataclass == validate_config({"repetitions_nu": 2.0})
        assert type(from_dataclass.repetitions_nu) is int

    def test_infinite_load_rejected_from_mapping_at_nu_0(self):
        # an infinite load would otherwise reach 1 / (lambda * tau) at nu = 0
        with pytest.raises(ConfigError, match="lambda_rate must be finite"):
            validate_config({"lambda_rate": math.inf, "repetitions_nu": 0})

    def test_saturating_load_rejected(self):
        # nu=0 and lambda*tau = 1 give p = 1
        with pytest.raises(ConfigError, match="traffic too intense"):
            validate_config(ScenarioConfig(repetitions_nu=0, lambda_rate=2000.0))

    def test_mapping_with_unit_dicts(self):
        cfg = validate_config({
            "tx_power_s": {"dbm": 23.0},
            "noise_sigma": {"watts": 1e-13},
            "sinr_threshold_t": {"db": 2.3},
        })
        assert cfg.tx_power_s == pytest.approx(dbm_to_watts(23.0), rel=1e-15)
        assert cfg.noise_sigma == 1e-13
        assert cfg.sinr_threshold_t == pytest.approx(db_to_linear(2.3), rel=1e-15)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            validate_config({"phi": 0.05, "bandwidth": 10})

    def test_bad_unit_key_rejected(self):
        with pytest.raises(ConfigError, match="tx_power_s"):
            validate_config({"tx_power_s": {"mw": 200.0}})

    def test_config_is_immutable(self, scenario):
        with pytest.raises(AttributeError):
            scenario.phi = 0.1


class TestTransmitProbability:
    def test_no_repetitions_reduces_to_lambda_tau(self):
        cfg = make_scenario(repetitions_nu=0, lambda_rate=100.0)
        assert transmit_probability(cfg) == pytest.approx(
            100.0 * cfg.slot_tau, rel=1e-15)

    def test_hand_value(self):
        # lambda=100/s, tau=0.5 ms, nu=2, W=20: 3 / (20 + 40/3) = 0.09
        cfg = make_scenario(repetitions_nu=2, lambda_rate=100.0)
        assert transmit_probability(cfg) == pytest.approx(0.09, abs=1e-12)

    def test_vanishing_load(self):
        cfg = make_scenario(lambda_rate=1e-9)
        assert transmit_probability(cfg) < 1e-11

    def test_saturated_load_raises(self):
        cfg = make_scenario(repetitions_nu=0, lambda_rate=10.0)
        with pytest.raises(TrafficIntensityError, match="p >= 1"):
            transmit_probability(cfg.with_lambda(3000.0))

    def test_monotone_in_load_and_repetitions(self):
        # low-load grid; p is not monotone in nu once lambda*tau*W exceeds 1
        lams = [1.0, 5.0, 20.0, 50.0, 80.0]
        for nu in range(9):
            ps = [transmit_probability(make_scenario(repetitions_nu=nu, lambda_rate=lam))
                  for lam in lams]
            assert all(a < b for a, b in zip(ps, ps[1:]))
        for lam in lams:
            ps = [transmit_probability(make_scenario(repetitions_nu=nu, lambda_rate=lam))
                  for nu in range(9)]
            assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_repetition_probability(self):
        assert repetition_probability(make_scenario(repetitions_nu=0)) == 0.0
        cfg = make_scenario(repetitions_nu=2)
        assert repetition_probability(cfg) == pytest.approx(2 / 19, rel=1e-15)

    def test_derived_constants(self):
        cfg = make_scenario(repetitions_nu=2, lambda_rate=100.0, plr_target=1e-2)
        assert cfg.window_w == 20
        assert transmit_probability(cfg) == pytest.approx(0.09, abs=1e-12)
        assert repetition_probability(cfg) == pytest.approx(2 / 19, rel=1e-15)
        # ceil(ln 1e-2 / ln 0.09) = ceil(1.912) = 2
        assert truncation_depth(cfg) == 2
        assert truncation_depth(cfg) >= 1
        assert 0.0 <= repetition_probability(cfg) <= 1.0


class TestUnitConversions:
    @given(st.floats(min_value=-120.0, max_value=60.0))
    def test_dbm_round_trip(self, dbm):
        back = watts_to_dbm(dbm_to_watts(dbm))
        assert back == pytest.approx(dbm, abs=1e-12 * max(1.0, abs(dbm)))

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_db_round_trip(self, db):
        back = linear_to_db(db_to_linear(db))
        assert back == pytest.approx(db, abs=1e-12 * max(1.0, abs(db)))

    def test_reference_points(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
        assert db_to_linear(0.0) == 1.0
        assert math.isclose(db_to_linear(3.0), 2.0, rel_tol=0.01)


class _RecordingPool:
    """ProcessPoolExecutor stand-in that records its size and maps in this
    process, so no worker is started."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestPoolMap:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        return _RecordingPool

    @pytest.mark.parametrize("workers, n, size", [(8, 2, 2), (2, 5, 2), (3, 3, 3)])
    def test_pool_never_larger_than_payload_count(self, pool, workers, n, size):
        payloads = [(10 * i + 7, i + 2) for i in range(n)]
        assert pool_map(divmod, payloads, workers) == [divmod(a, b) for a, b in payloads]
        assert pool.sizes == [size]

    @pytest.mark.parametrize("workers, n", [(1, 4), (8, 1), (8, 0)])
    def test_serial_cases_start_no_pool(self, pool, workers, n):
        payloads = [(i, 3) for i in range(n)]
        assert pool_map(divmod, payloads, workers) == [divmod(i, 3) for i in range(n)]
        assert pool.sizes == []
