"""Scenario configuration, unit conversion, derived protocol constants, and
the fan-out that sweeps, PLR curves and simulator replications share: one
process pool per process, reused from call to call.

Everything downstream (analytic chain and simulator) works in SI linear
units: watts, meters, seconds, linear power ratios.  dB / dBm values are
accepted only at the config boundary and converted here.
"""
from __future__ import annotations

import atexit
import concurrent.futures
import math
import threading
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping, Sequence


class ConfigError(ValueError):
    """Invalid scenario or simulation configuration."""


class TrafficIntensityError(ValueError):
    """Offered load breaks the model's per-slot transmit probability (p >= 1)."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts * 1e3)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and protocol parameters of one scenario, SI linear units.

    phi               UE density on the line, 1/m (rate of the exponential
                      inter-UE gaps).
    lambda_rate       packet generation rate after the previous delivery, 1/s.
    range_r           broadcast communication range, m.
    pathloss_a        path loss scale A, 1/m; gain at distance r is (A*r)**-beta.
    pathloss_beta     path loss exponent, >= 2.
    tx_power_s        total transmit power, W (spread over the M subchannels).
    noise_sigma       noise power per subchannel, W.
    slot_tau          slot duration, s.
    delay_budget      delivery deadline, s; defines the window W = floor(budget/tau).
    num_subchannels_b subchannels per slot.
    packet_width_m    contiguous subchannels occupied by one packet.
    repetitions_nu    blind repetitions per packet (0 = single attempt).
    sinr_threshold_t  post-EESM reception threshold, linear ratio.
    eesm_gamma        EESM calibration constant.
    plr_target        QoS packet loss rate bound, in (0, 1).
    """

    phi: float = 0.05
    lambda_rate: float = 10.0
    range_r: float = 200.0
    pathloss_a: float = 36.0
    pathloss_beta: float = 3.0
    tx_power_s: float = dbm_to_watts(23.0)
    noise_sigma: float = 1e-13
    slot_tau: float = 0.5e-3
    delay_budget: float = 10e-3
    num_subchannels_b: int = 10
    packet_width_m: int = 3
    repetitions_nu: int = 2
    sinr_threshold_t: float = db_to_linear(2.3)
    eesm_gamma: float = 1.15
    plr_target: float = 1e-2

    @property
    def window_w(self) -> int:
        """Slots available per packet: first attempt plus W-1 repetition slots."""
        # guard against 19.999999 from binary rounding of budget/tau
        return int(math.floor(self.delay_budget / self.slot_tau + 1e-9))

    def with_lambda(self, lambda_rate: float) -> "ScenarioConfig":
        """This config at another load: a copy of its fields, unchecked."""
        loaded = object.__new__(type(self))
        loaded.__dict__.update(self.__dict__, lambda_rate=lambda_rate)
        return loaded


def transmit_probability(config: ScenarioConfig) -> float:
    """Per-slot transmit probability of a UE under sporadic load.

    One delivery cycle spends on average 1/(lambda*tau) slots waiting for the
    next packet and W*nu/(nu+1) slots spanning the repetitions, during which
    the UE transmits 1+nu times.
    """
    nu = config.repetitions_nu
    w = config.window_w
    cycle_slots = 1.0 / (config.lambda_rate * config.slot_tau) + w * nu / (nu + 1.0)
    p = (1.0 + nu) / cycle_slots
    if p >= 1.0:
        raise TrafficIntensityError("traffic too intense for model (p >= 1)")
    return p


def repetition_probability(config: ScenarioConfig) -> float:
    """Per-slot transmit probability of a UE known to be mid-repetition.

    Defined as 0 for nu = 0: without repetitions there is no active phase.
    """
    nu = config.repetitions_nu
    if nu == 0:
        return 0.0
    return nu / (config.window_w - 1.0)


def truncation_depth(config: ScenarioConfig) -> int:
    """Number of geometric terms needed to resolve losses down to plr_target.

    ceil(log_p target); the tail beyond it is below the QoS resolution.
    """
    p = transmit_probability(config)
    return max(1, math.ceil(math.log(config.plr_target) / math.log(p)))


_UNIT_FIELDS = {"tx_power_s": ("watts", "dbm", dbm_to_watts),
                "noise_sigma": ("watts", "dbm", dbm_to_watts),
                "sinr_threshold_t": ("linear", "db", db_to_linear)}
_INT_FIELDS = ("num_subchannels_b", "packet_width_m", "repetitions_nu")


def _coerce_unit(name: str, value: Any) -> float:
    """Accept a bare number or a single-key {unit: value} dict for power/ratio fields."""
    linear_key, log_key, conv = _UNIT_FIELDS[name]
    if isinstance(value, Mapping):
        if set(value.keys()) == {linear_key}:
            return float_field(name, value[linear_key])
        if set(value.keys()) == {log_key}:
            return conv(float_field(name, value[log_key]))
        raise ConfigError(
            f"{name}: expected {{'{linear_key}': x}} or {{'{log_key}': x}}, got {dict(value)!r}"
        )
    return float_field(name, value)


def float_field(name: str, value: Any) -> float:
    """value as a float, if it is a number other than a bool; ConfigError
    naming the field otherwise."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def integer_field(name: str, value: Any) -> int:
    """value as an int, if it is one (2.0 gives 2) and not a bool; ConfigError
    naming the field otherwise."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        ival = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if ival != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return ival


def json_value(value: Any) -> Any:
    """value, or None for a float nan or infinity, which RFC 8259 JSON lacks."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def validate_config(raw: Mapping[str, Any] | ScenarioConfig) -> ScenarioConfig:
    """Check every invariant and return an immutable, unit-normalized config.

    Accepts either a ScenarioConfig or a mapping with the field names of
    ScenarioConfig; in mappings the power fields take {"watts": x} / {"dbm": x}
    and the SINR threshold takes {"linear": x} / {"db": x}. Unknown keys are
    rejected.  Missing keys fall back to the field defaults.  A ScenarioConfig
    is read as its field mapping, so both inputs get the same coercion and
    checks.
    """
    if isinstance(raw, ScenarioConfig):
        raw = {f.name: getattr(raw, f.name) for f in fields(raw)}
    unknown = set(raw.keys()) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        if key in _INT_FIELDS:
            kwargs[key] = integer_field(key, value)
        elif key not in _UNIT_FIELDS:
            kwargs[key] = float_field(key, value)
        else:
            try:
                kwargs[key] = _coerce_unit(key, value)
            except OverflowError as exc:  # a {"dbm": x} too large to convert
                raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    cfg = ScenarioConfig(**kwargs)

    for f in fields(ScenarioConfig):
        if f.name not in _INT_FIELDS and not math.isfinite(getattr(cfg, f.name)):
            raise ConfigError(f"{f.name} must be finite, got {getattr(cfg, f.name)!r}")
    for name in ("phi", "lambda_rate", "range_r", "pathloss_a", "tx_power_s",
                 "noise_sigma", "slot_tau", "delay_budget", "sinr_threshold_t",
                 "eesm_gamma"):
        if not getattr(cfg, name) > 0.0:
            raise ConfigError(f"{name} must be strictly positive")
    if cfg.pathloss_beta < 2.0:
        raise ConfigError("pathloss_beta out of range (must be >= 2)")
    if not (1 <= cfg.packet_width_m <= cfg.num_subchannels_b):
        raise ConfigError("packet_width_m out of range (need 1 <= M <= B)")
    if cfg.repetitions_nu < 0:
        raise ConfigError("repetitions_nu out of range (must be >= 0)")
    if not (0.0 < cfg.plr_target < 1.0):
        raise ConfigError("plr_target out of range (must be in (0, 1))")
    if cfg.window_w < cfg.repetitions_nu + 1:
        raise ConfigError(
            "repetitions do not fit delay budget "
            f"(window W={cfg.window_w} < nu+1={cfg.repetitions_nu + 1})"
        )
    try:
        transmit_probability(cfg)
    except TrafficIntensityError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


_pool: tuple[int, concurrent.futures.Executor] | None = None  # (size, executor)
_pool_lock = threading.Lock()


@atexit.register
def _shutdown_pool() -> None:
    """Shut the shared pool down, joining its workers, if there is one."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def pool_map(worker: Callable, payloads: Sequence, workers: int) -> list:
    """worker(*payload) for every payload tuple, in input order.

    Runs in this process when workers == 1 or there is a single payload;
    otherwise on the process's one pool of min(workers, len(payloads))
    processes, started with the platform's default start method at the first
    call that needs it and replaced when a call needs another size or after
    it broke (BrokenProcessPool).  Its workers see module state as it was
    when it started.  worker and payloads must be picklable.
    """
    global _pool
    if workers < 2 or len(payloads) < 2:
        return [worker(*p) for p in payloads]
    size = min(workers, len(payloads))
    with _pool_lock:
        if _pool is None or _pool[0] != size:
            _shutdown_pool()
            _pool = (size, concurrent.futures.ProcessPoolExecutor(max_workers=size))
        try:
            return list(_pool[1].map(worker, *zip(*payloads)))
        except concurrent.futures.BrokenExecutor:  # BrokenProcessPool
            _shutdown_pool()
            raise
