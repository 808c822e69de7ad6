import concurrent.futures
import concurrent.futures.process
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

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
from mode2cap import config
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
        ("num_subchannels_b", True, "num_subchannels_b must be an integer"),
        ("phi", True, "phi must be a number"),
    ])
    def test_invariants_named_in_errors(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(ScenarioConfig(**{field: value}))

    @pytest.mark.parametrize("raw, message", [
        ({"num_subchannels_b": True}, "num_subchannels_b must be an integer"),
        ({"packet_width_m": False}, "packet_width_m must be an integer"),
        ({"repetitions_nu": True}, "repetitions_nu must be an integer"),
        ({"phi": True}, "phi must be a number"),
        ({"tx_power_s": {"dbm": True}}, "tx_power_s must be a number"),
        ({"noise_sigma": True}, "noise_sigma must be a number"),
    ])
    def test_json_booleans_are_not_numbers(self, raw, message):
        # bool is an int subclass, so True would otherwise read as 1
        with pytest.raises(ConfigError, match=message):
            validate_config(raw)

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

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestPoolMap:
    @pytest.fixture
    def pool(self, monkeypatch):
        # hide the shared pool an earlier test may have started, so the
        # stand-in is built, and put the real one back after the test, so
        # the stand-in is never cached for a later test
        monkeypatch.setattr(config, "_pool", None)
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


def _pid_after(seconds):
    """This worker's pid, after a pause long enough that a second idle
    worker takes the next payload."""
    time.sleep(seconds)
    return os.getpid()


class TestSharedPool:
    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        config._shutdown_pool()
        yield
        config._shutdown_pool()

    def test_successive_calls_run_in_the_same_workers(self):
        first = pool_map(_pid_after, [(0.2,), (0.2,)], 2)
        second = pool_map(_pid_after, [(0.2,), (0.2,)], 2)
        assert len(set(first)) == 2
        assert set(second) == set(first)

    def test_other_size_replaces_the_pool_and_never_exceeds_payloads(self):
        # active_children also counts the workers of a pool not yet joined
        pool_map(_pid_after, [(0.0,), (0.0,)], 8)
        two = config._pool[1]
        assert len(multiprocessing.active_children()) <= 2
        pids = pool_map(_pid_after, [(0.2,)] * 3, 3)
        assert config._pool[1] is not two and len(set(pids)) == 3
        assert len(multiprocessing.active_children()) == 3
        pool_map(_pid_after, [(0.0,)] * 5, 2)
        assert len(multiprocessing.active_children()) <= 2

    def test_worker_exception_reaches_caller_and_pool_stays_usable(self):
        with pytest.raises(ZeroDivisionError):
            pool_map(divmod, [(1, 0), (1, 1)], 2)
        pool = config._pool[1]
        assert pool_map(divmod, [(7, 2), (9, 4)], 2) == [(3, 1), (2, 1)]
        assert config._pool[1] is pool

    def test_dead_worker_breaks_the_call_and_the_next_starts_afresh(self):
        with pytest.raises(concurrent.futures.process.BrokenProcessPool):
            pool_map(os._exit, [(1,), (1,)], 2)
        assert config._pool is None
        assert pool_map(divmod, [(7, 2), (9, 4)], 2) == [(3, 1), (2, 1)]

    def test_cli_process_exits_cleanly_and_leaves_no_worker(self):
        # validate runs one 2-worker simulation per load, on one pool; the
        # process runs in its own group, which its workers join
        proc = subprocess.Popen(
            [sys.executable, "-m", "mode2cap", "validate", "--lambda", "10,20",
             "--num-ues", "200", "--slots", "3000", "--replications", "2",
             "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == 0
        assert err == ""
        assert len(out.splitlines()) == 3
        try:  # a worker left in the group is a failure; take it down too
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        pytest.fail("a pool worker outlived the CLI process")
