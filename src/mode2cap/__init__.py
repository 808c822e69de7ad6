"""Analytic model and Monte Carlo simulator for packet loss rate and network
capacity of sporadic broadcast traffic on a multichannel slotted random-access
sidelink (5G NR V2X Mode 2 style)."""

from .config import (
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
from .link import (
    eesm_received,
    effective_sinr,
    exclusion_radius,
    overlap_distribution,
    pathloss,
    pathloss_distance,
    reception_breakpoints,
    sinr_no_interference,
)
from .analytic import (
    CapacityResult,
    PlrCurvePoint,
    RecursionTable,
    capacity,
    capacity_sweep,
    loss_recursion,
    plr,
    repetition_noncollision_prob,
    success_prob,
)
from .sim import (
    TRACE_COLUMNS,
    AttemptRecord,
    SimConfig,
    SimReport,
    attempt_trace,
    build_topology,
    replication_rng,
    run,
    trace_to_csv,
    validate_sim_config,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
