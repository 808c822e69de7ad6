"""The benchmark's child processes, started by run.py with `src` on PYTHONPATH.

    child.py probe WORKLOAD SEED
        Imports mode2cap and validates the workload's configs, then exits;
        run.py times it from launch to exit as the set-up time.

    child.py measure WORKLOAD SEED SECONDS TRACE OUTDIR
        Runs the workload and prints one JSON line with its measurements.
        TRACE 0: whole rounds on two workers while they fit in SECONDS (at
        least one), timed with nothing wrapped.  TRACE 1: one round on two
        workers, one serial round, and one serial round with every layer
        boundary traced; spans go to OUTDIR.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from mode2cap import validate_config
from tracing import SPAN_NAMES, Tracer


def probe(name: str, seed: int) -> None:
    for cfg in workloads.WORKLOADS[name](seed, Path(".")).scenarios():
        validate_config(cfg)


def _peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest pool child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def _compare(rounds, label: str) -> list[str]:
    first = rounds[0].outputs
    return [f"{label} round {i} output differs from round 0"
            for i, rnd in enumerate(rounds[1:], 1) if rnd.outputs != first]


def measure_untraced(wl, seconds: float) -> dict:
    rounds = []
    t0 = time.perf_counter()
    while True:
        rnd = wl.run_round(workloads.WORKERS)
        rounds.append(rnd)
        if time.perf_counter() - t0 + rnd.wall_s > seconds:
            break
    peak = _peak_rss_mib()
    problems = wl.check(rounds[0].outputs) + _compare(rounds, "2-worker")
    # the mean over the whole measured window, not the median of its few
    # rounds: this machine's speed drifts over tens of seconds, and the
    # longer the window a figure averages, the steadier it is from run to run
    wall = sum(r.wall_s for r in rounds) / len(rounds)
    return {
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "attempted": wl.ops_per_round * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "metrics": {
            "wall_s": (wall, "s"),
            "ops_per_s": (wl.ops_per_round / wall, "1/s"),
            "peak_rss_mib": (peak, "MiB"),
        },
    }


def measure_traced(wl, outdir: Path) -> dict:
    par = wl.run_round(workloads.WORKERS)
    ser = wl.run_round(1)
    with Tracer() as tracer:
        traced = wl.run_round(1)
    tracer.save(outdir / f"spans-{wl.name}-seed{wl.seed}.npz")
    rounds = (par, ser, traced)
    problems = wl.check(par.outputs) + _compare(rounds, "2-worker/serial/traced")

    spans = tracer.summary()
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (spans[span]["calls"], "count")
        metrics[f"{span}.self_s"] = (spans[span]["self_s"], "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def median(values) -> float:
        return float(statistics.median(values)) if len(values) else 0.0

    plr_calls = spans["analytic.plr"]["calls"]
    cap_calls = spans["analytic.capacity"]["calls"]
    metrics["analytic.plr.median_ms"] = (1e3 * median(spans["analytic.plr"]["durations"]), "ms")
    metrics["analytic.quadrature_nodes_per_plr"] = (
        ratio(spans["analytic.success_prob"]["calls"], plr_calls), "count")
    metrics["analytic.capacity.median_s"] = (median(spans["analytic.capacity"]["durations"]), "s")
    metrics["analytic.plr_evals_per_capacity"] = (ratio(plr_calls, cap_calls), "count")

    reps = sum(n for n, _, _ in traced.sim_calls)
    metrics["sim.replication_s"] = (ratio(sum(s for _, s, _ in traced.sim_calls), reps), "s")
    metrics["sim.pairs_measured"] = (sum(r.pairs_measured for _, _, r in traced.sim_calls), "count")
    metrics["sim.losses"] = (sum(r.losses for _, _, r in traced.sim_calls), "count")

    metrics["pool.busy_fraction"] = (par.cpu_s / (par.wall_s * workloads.WORKERS), "ratio")
    metrics["pool.speedup"] = (ser.wall_s / par.wall_s, "ratio")
    metrics["pool.serial_wall_s"] = (ser.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - ser.wall_s, "s")

    # each workload's own operation rate on two workers, untraced; the
    # other two rates read 0 because the workload performs none of them
    ops_rate = wl.ops_per_round / par.wall_s
    metrics["capacity_solves_per_s"] = (ops_rate if wl.name == "optimal-nu" else 0.0, "1/s")
    metrics["plr_points_per_s"] = (ops_rate if wl.name == "plr-curves" else 0.0, "1/s")
    metrics["sim_pairs_per_s"] = (ratio(sum(r.pairs_measured for _, _, r in par.sim_calls),
                                        sum(s for _, s, _ in par.sim_calls)), "1/s")
    return {
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "attempted": wl.ops_per_round * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    role, name, seed = argv[0], argv[1], int(argv[2])
    if role == "probe":
        probe(name, seed)
        return 0
    seconds, trace, outdir = float(argv[3]), argv[4] == "1", Path(argv[5])
    workdir = outdir / "work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.prepare()
    result = measure_traced(wl, outdir) if trace else measure_untraced(wl, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
