"""Reference outputs of the analytic chain and the simulator, and the script
that writes them to tests/golden.json for test_golden.py to compare against.

    PYTHONPATH=src python tests/make_golden.py

Run it from the root of a source tree, with one BLAS thread.  A change that
moves outputs on purpose regenerates the file with this script and records
the diff (what moved, why, and the largest moves) in CHANGES.md.

The file holds:
  * plr: value, error estimate and validity flag at nu 0..8 x B 3..20 x
    PLR target 1e-2, 1e-5 x lambda {0.5, 3, 12, 40}, on the reference
    scenario;
  * loss_recursion: K, clamp flag, plr_r and a digest of the whole table
    (rounded to float32, so that an ulp of build noise leaves it alone) at
    r = 150 m, some with p_s and p_nc forced (p_s = 0 overloads every
    level) or the truncation depth given;
  * capacity: the capacity and flags of the benchmark's optimal-nu sweep
    (nu 0..8 x PLR 1e-2, 1e-5 at B = 10, phi = 0.05), solved serially;
  * sim: serial seeded reports at the two points of the benchmark's
    sim-crosscheck workload (criterion 5's nu = 0 and nu = 2 loads).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import numpy as np

from mode2cap import (ScenarioConfig, SimConfig, capacity_sweep, loss_recursion, plr, run,
                      validate_config)

GOLDEN = Path(__file__).with_name("golden.json")

NUS = range(9)
BANDWIDTHS = range(3, 21)
LOADS = (0.5, 3.0, 12.0, 40.0)
TARGETS = (1e-2, 1e-5)
# (nu, lambda, num_ues, num_slots, replications), as in sim-crosscheck
SIM_POINTS = ((0, 10.0, 300, 2000, 8), (2, 30.0, 200, 1500, 8))
SIM_SEED = 7
# loss_recursion at r = 150 m, PLR target 1e-5: (nu, lambda, p_s, p_nc,
# truncation_k), None where the config decides
TABLE_R = 150.0
TABLES = (*((nu, lam, None, None, None) for nu in (0, 2, 5, 8) for lam in (3.0, 40.0)),
          (2, 40.0, 0.0, 0.5, None), (5, 3.0, 0.0, 1.0, None), (8, 40.0, 0.0, 0.0, None),
          (5, 40.0, 1.0, 0.0, None), (2, 12.0, None, None, 7), (5, 12.0, 0.0, 0.5, 2))


def table_digest(values: np.ndarray) -> str:
    """SHA-256 of a loss table rounded to float32, first 16 hex digits."""
    return hashlib.sha256(values.astype(np.float32).tobytes()).hexdigest()[:16]


def golden_outputs() -> dict:
    """Every reference output, in the layout of golden.json."""
    base = ScenarioConfig()
    plr_rows = []
    for target in TARGETS:
        for nu in NUS:
            for b in BANDWIDTHS:
                cfg = validate_config(ScenarioConfig(repetitions_nu=nu, num_subchannels_b=b,
                                                     plr_target=target))
                for lam in LOADS:
                    point = plr(lam, cfg)
                    plr_rows.append([nu, b, target, lam, point.plr, point.error_estimate,
                                     point.validity_warning])
    table_rows = []
    for nu, lam, p_s, p_nc, k in TABLES:
        cfg = validate_config(ScenarioConfig(repetitions_nu=nu, lambda_rate=lam,
                                             plr_target=1e-5))
        table = loss_recursion(TABLE_R, cfg, p_s=p_s, p_nc=p_nc, truncation_k=k)
        table_rows.append([nu, lam, p_s, p_nc, k, table.truncation_k, table.clamped,
                           table.plr_r, table_digest(table.values)])
    sweep = capacity_sweep(base, {"repetitions_nu": list(NUS), "plr_target": list(TARGETS)})
    capacity_rows = [[o["repetitions_nu"], o["plr_target"], c.capacity, list(c.flags)]
                     for o, c in sweep]
    sim_rows = []
    for nu, lam, ues, slots, reps in SIM_POINTS:
        cfg = validate_config(ScenarioConfig(repetitions_nu=nu, lambda_rate=lam))
        report = run(SimConfig(cfg, num_ues=ues, num_slots=slots, seed=SIM_SEED,
                               replications=reps))
        sim_rows.append([nu, lam, *astuple(report)])
    return {"plr": plr_rows, "loss_recursion": table_rows, "capacity": capacity_rows,
            "sim": sim_rows}


def _dumps(outputs: dict) -> str:
    """outputs as JSON, one row per line."""
    sections = (f"{json.dumps(key)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]"
                for key, rows in outputs.items())
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dumps(golden_outputs()))
    print(f"wrote {GOLDEN}")
