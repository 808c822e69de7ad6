"""mode2cap benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  It measures the package under `src/`
as it stands (pure Python, nothing to build), writes its files under
`benchmarks/out/`, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
ops_per_s, peak_rss_mib); with --trace 1 they are the per-layer ones from a
traced serial round.  See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("optimal-nu", "plr-curves", "sim-crosscheck")
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, probes included


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread per process: the matrices are small, and two pool
    # workers on two cores must not each start a thread per core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(args: list[str], timeout: float) -> str:
    """Run child.py with ARGS; return its stdout.  On a timeout, kill its
    whole process group (pool workers included) and wait until it is gone."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    finally:
        # reached on a timeout or a SIGTERM too: take the pool workers down
        # with the child, since they run in its process group
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited with code {proc.returncode}")
    return out


def _reap_group(pgid: int) -> None:
    """Wait until no process of the group is left (pool workers outlive
    their parent only briefly, and only when it died abnormally); kill what
    is still there after 5 s."""
    for attempt in range(400):
        try:
            os.killpg(pgid, signal.SIGKILL if attempt == 100 else 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "mode2cap" / "__init__.py").is_file():
        print(f"error: no mode2cap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            run_child(["probe", args.workload, str(args.seed)], timeout=60.0)
            setup.append(time.perf_counter() - start)

    remaining = DEADLINE_S - (time.perf_counter() - t0)
    out = run_child(["measure", args.workload, str(args.seed), str(args.seconds),
                     str(args.trace), str(OUT)], timeout=remaining)
    raw = json.loads(out.strip().splitlines()[-1])

    for problem in raw["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in raw["metrics"].items()}
    if setup:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    result = {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=raw["rounds"], round_wall_s=raw["round_wall_s"],
                  setup_samples_s=setup, problems=raw["problems"])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
