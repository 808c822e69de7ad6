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
  * acceptance_capacity: the other capacity sweeps of the acceptance suite
    (criteria 6, 7a and 7b: B = 3..12 at PLR 1e-2 and B = 3, 4, 5, 6 at
    1e-5, phi = 0.05) and the optimal-nu sweep at the jittered phi of
    benchmark seeds 3 and 17, nu 0..8 each, solved serially;
  * sim: serial seeded reports at the two points of the benchmark's
    sim-crosscheck workload (criterion 5's nu = 0 and nu = 2 loads);
  * trace: the record count and the SHA-256 of the trace_to_csv text of
    attempt_trace at the sim-crosscheck nu = 2 size, at the
    half_duplex_heavy load of test_sim (nu = 1, lambda = 100, 120 UEs x
    1500 slots), and at the nu = 2 size with a 300 m interference cutoff,
    two replications each; the text is hashed row by row as the trace's
    recorder delivers it, not held as a list of records.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import astuple
from pathlib import Path

import numpy as np

from mode2cap import (ScenarioConfig, SimConfig, capacity_sweep, loss_recursion, plr, run,
                      trace_to_csv, validate_config)
from mode2cap.sim import (TRACE_COLUMNS, AttemptRecord, _simulate_replication,
                          validate_sim_config)

GOLDEN = Path(__file__).with_name("golden.json")

NUS = range(9)
BANDWIDTHS = range(3, 21)
LOADS = (0.5, 3.0, 12.0, 40.0)
TARGETS = (1e-2, 1e-5)
# (nu, lambda, num_ues, num_slots, replications), as in sim-crosscheck
SIM_POINTS = ((0, 10.0, 300, 2000, 8), (2, 30.0, 200, 1500, 8))
SIM_SEED = 7
# (nu, lambda, num_ues, num_slots, replications, interference_cutoff)
TRACE_POINTS = ((2, 30.0, 200, 1500, 2, None), (1, 100.0, 120, 1500, 2, None),
                (2, 30.0, 200, 1500, 2, 300.0))
# (B, PLR target) of the acceptance sweeps not in the capacity section
ACCEPTANCE_GRIDS = (*((b, 1e-2) for b in range(3, 13) if b != 10),
                    *((b, 1e-5) for b in (3, 4, 5, 6)))
# optimal-nu draws phi = 0.05 (1 +- 0.5 %) from random.Random(seed)
JITTER_SEEDS = (3, 17)
# loss_recursion at r = 150 m, PLR target 1e-5: (nu, lambda, p_s, p_nc,
# truncation_k), None where the config decides
TABLE_R = 150.0
TABLES = (*((nu, lam, None, None, None) for nu in (0, 2, 5, 8) for lam in (3.0, 40.0)),
          (2, 40.0, 0.0, 0.5, None), (5, 3.0, 0.0, 1.0, None), (8, 40.0, 0.0, 0.0, None),
          (5, 40.0, 1.0, 0.0, None), (2, 12.0, None, None, 7), (5, 12.0, 0.0, 0.5, 2))


def table_digest(values: np.ndarray) -> str:
    """SHA-256 of a loss table rounded to float32, first 16 hex digits."""
    return hashlib.sha256(values.astype(np.float32).tobytes()).hexdigest()[:16]


def jittered_phi(seed: int) -> float:
    """The phi of the benchmark's optimal-nu workload at a seed."""
    return 0.05 * (1.0 + 0.005 * (2.0 * random.Random(seed).random() - 1.0))


class _HashStream:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha.update(text.encode())


def trace_digest(sim_config: SimConfig) -> list:
    """Record count and SHA-256 of attempt_trace's trace_to_csv text, each
    row hashed as the recorder delivers it, replication by replication, so
    that no record outlives its row."""
    cfg, stream, count = validate_sim_config(sim_config), _HashStream(), 0
    trace_to_csv((), stream)  # the header row
    writer = csv.writer(stream, lineterminator="\n")

    def recorder(rec: AttemptRecord) -> None:
        nonlocal count
        count += 1
        writer.writerow([getattr(rec, column) for column in TRACE_COLUMNS])

    for rep in range(cfg.replications):
        _simulate_replication(cfg, rep, recorder=recorder)
    return [count, stream.sha.hexdigest()]


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
    acceptance_rows = []
    grids = [(b, base.phi, (target,)) for b, target in ACCEPTANCE_GRIDS]
    grids += [(10, jittered_phi(seed), TARGETS) for seed in JITTER_SEEDS]
    for b, phi, targets in grids:
        sweep = capacity_sweep(ScenarioConfig(num_subchannels_b=b, phi=phi),
                               {"repetitions_nu": list(NUS), "plr_target": list(targets)})
        acceptance_rows += [[b, phi, o["repetitions_nu"], o["plr_target"], c.capacity,
                             list(c.flags)] for o, c in sweep]
    sim_rows = []
    for nu, lam, ues, slots, reps in SIM_POINTS:
        cfg = validate_config(ScenarioConfig(repetitions_nu=nu, lambda_rate=lam))
        report = run(SimConfig(cfg, num_ues=ues, num_slots=slots, seed=SIM_SEED,
                               replications=reps))
        sim_rows.append([nu, lam, *astuple(report)])
    trace_rows = []
    for nu, lam, ues, slots, reps, cutoff in TRACE_POINTS:
        cfg = validate_config(ScenarioConfig(repetitions_nu=nu, lambda_rate=lam))
        digest = trace_digest(SimConfig(cfg, num_ues=ues, num_slots=slots, seed=SIM_SEED,
                                        replications=reps, interference_cutoff=cutoff))
        trace_rows.append([nu, lam, ues, slots, reps, cutoff, *digest])
    return {"plr": plr_rows, "loss_recursion": table_rows, "capacity": capacity_rows,
            "acceptance_capacity": acceptance_rows, "sim": sim_rows, "trace": trace_rows}


def _dumps(outputs: dict) -> str:
    """outputs as JSON, one row per line."""
    sections = (f"{json.dumps(key)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]"
                for key, rows in outputs.items())
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dumps(golden_outputs()))
    print(f"wrote {GOLDEN}")
