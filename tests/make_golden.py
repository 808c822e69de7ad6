"""Reference outputs of the analytic chain and the simulator, and the script
that writes them to tests/golden.json for test_golden.py to compare against.

    PYTHONPATH=src python tests/make_golden.py

Run it from the root of a source tree, with one BLAS thread.  A change that
moves outputs on purpose regenerates the file with this script and records
the diff (what moved, why, and the largest moves) in CHANGES.md.

The file holds:
  * plr: value, error estimate and validity flag at nu 0..8 x B 3..20 x
    lambda {0.5, 3, 12, 40}, PLR target 1e-2, on the reference scenario;
  * capacity: the capacity and flags of the benchmark's optimal-nu sweep
    (nu 0..8 x PLR 1e-2, 1e-5 at B = 10, phi = 0.05), solved serially;
  * sim: serial seeded reports at the two points of the benchmark's
    sim-crosscheck workload (criterion 5's nu = 0 and nu = 2 loads).
"""
from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path

from mode2cap import (ScenarioConfig, SimConfig, capacity_sweep, plr, run,
                      validate_config)

GOLDEN = Path(__file__).with_name("golden.json")

NUS = range(9)
BANDWIDTHS = range(3, 21)
LOADS = (0.5, 3.0, 12.0, 40.0)
TARGETS = (1e-2, 1e-5)
# (nu, lambda, num_ues, num_slots, replications), as in sim-crosscheck
SIM_POINTS = ((0, 10.0, 300, 2000, 8), (2, 30.0, 200, 1500, 8))
SIM_SEED = 7


def golden_outputs() -> dict:
    """Every reference output, in the layout of golden.json."""
    base = ScenarioConfig()
    plr_rows = []
    for nu in NUS:
        for b in BANDWIDTHS:
            cfg = validate_config(ScenarioConfig(repetitions_nu=nu, num_subchannels_b=b))
            for lam in LOADS:
                point = plr(lam, cfg)
                plr_rows.append([nu, b, lam, point.plr, point.error_estimate,
                                 point.validity_warning])
    sweep = capacity_sweep(base, {"repetitions_nu": list(NUS), "plr_target": list(TARGETS)})
    capacity_rows = [[o["repetitions_nu"], o["plr_target"], c.capacity, list(c.flags)]
                     for o, c in sweep]
    sim_rows = []
    for nu, lam, ues, slots, reps in SIM_POINTS:
        cfg = validate_config(ScenarioConfig(repetitions_nu=nu, lambda_rate=lam))
        report = run(SimConfig(cfg, num_ues=ues, num_slots=slots, seed=SIM_SEED,
                               replications=reps))
        sim_rows.append([nu, lam, *astuple(report)])
    return {"plr": plr_rows, "capacity": capacity_rows, "sim": sim_rows}


def _dumps(outputs: dict) -> str:
    """outputs as JSON, one row per line."""
    sections = (f"{json.dumps(key)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]"
                for key, rows in outputs.items())
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dumps(golden_outputs()))
    print(f"wrote {GOLDEN}")
