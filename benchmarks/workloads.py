"""The three benchmark workloads: inputs made from a seed, one round of calls
into mode2cap, and output checks against independent computations.

A round is the fixed list of calls one closed-loop caller makes; every round
of a run repeats the same calls on the same inputs, so later rounds must
reproduce the first round's outputs exactly.  The program only ever sees the
generated inputs, never the seed.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import mode2cap.analytic
import mode2cap.cli
from mode2cap import (
    ScenarioConfig,
    TrafficIntensityError,
    loss_recursion,
    plr,
    success_prob,
    transmit_probability,
    truncation_depth,
    validate_config,
)

# The scenario constants the acceptance suite pins.
PHI = 0.05
SIGMA = 1e-13
WORKERS = 2


@dataclass
class Round:
    """What one round returned, plus the timings the metrics need."""

    wall_s: float
    cpu_s: float
    outputs: object
    failed: int = 0
    sim_calls: list = field(default_factory=list)  # (replications, seconds, SimReport)


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Workload:
    """One workload: its inputs for a seed, one round of calls, its checks."""

    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)

    def scenarios(self) -> list[ScenarioConfig]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Validate every scenario and write whatever files the calls read."""
        for cfg in self.scenarios():
            validate_config(cfg)

    def run_round(self, workers: int) -> Round:
        for stale in self.workdir.glob("*.csv"):
            stale.unlink()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        outputs, failed, sim_calls = self._calls(workers)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        return Round(wall, cpu, self._read(outputs), failed, sim_calls)

    def _calls(self, workers: int):
        raise NotImplementedError

    def _read(self, outputs):
        return outputs

    def check(self, outputs) -> list[str]:
        """Problems found in one round's outputs; empty when all is correct."""
        raise NotImplementedError


# ---------------------------------------------------------------- optimal-nu

class OptimalNu(Workload):
    """capacity_sweep over nu = 0..8 at B = 10, PLR targets 1e-2 and 1e-5."""

    name = "optimal-nu"
    NUS = tuple(range(9))
    TARGETS = (1e-2, 1e-5)
    EXPECTED_ARGMAX = {1e-2: {3, 4}, 1e-5: {6, 7}}
    REL_TOL = 1e-3  # capacity()'s default bisection tolerance
    ops_per_round = len(NUS) * len(TARGETS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # +-0.5 % on phi keeps every capacity well clear of the decade
        # boundaries the bracket search steps over, so each seed makes the
        # same number of PLR evaluations
        phi = PHI * (1.0 + 0.005 * (2.0 * self.rng.random() - 1.0))
        self.base = ScenarioConfig(phi=phi, noise_sigma=SIGMA, num_subchannels_b=10)

    def _grid(self):
        return {"repetitions_nu": list(self.NUS), "plr_target": list(self.TARGETS)}

    def scenarios(self):
        return [replace(self.base, repetitions_nu=nu, plr_target=t)
                for nu in self.NUS for t in self.TARGETS]

    def _calls(self, workers):
        rows = mode2cap.analytic.capacity_sweep(self.base, self._grid(), workers=workers)
        out = tuple((o["repetitions_nu"], o["plr_target"], r.capacity, r.flags)
                    for o, r in rows)
        return out, 0, []

    def check(self, rows):
        problems = []
        if len(rows) != self.ops_per_round:
            return [f"{len(rows)} rows, expected {self.ops_per_round}"]
        for target, expected in self.EXPECTED_ARGMAX.items():
            mine = [row for row in rows if row[1] == target]
            best = max(mine, key=lambda row: row[2])
            if best[0] not in expected:
                problems.append(f"target {target:g}: argmax nu {best[0]}, want {sorted(expected)}")
            bad = {"model_validity", "nonmonotonic_plr"} & set(best[3])
            if bad:
                problems.append(f"target {target:g}: argmax row flagged {sorted(bad)}")
        for nu, target, cap, _ in rows:
            cfg = validate_config(replace(self.base, repetitions_nu=nu, plr_target=target))
            below = plr(cap, cfg).plr
            try:
                above = plr(cap * (1.0 + self.REL_TOL), cfg).plr
            except TrafficIntensityError:
                above = math.inf
            if not below <= target < above:
                problems.append(f"nu={nu} target={target:g}: C={cap!r} gives "
                                f"plr(C)={below:.6g}, plr(C(1+tol))={above:.6g}")
        return problems


# ---------------------------------------------------------------- plr-curves

def _write_config(path: Path, cfg: ScenarioConfig) -> None:
    path.write_text(json.dumps(cfg.__dict__, sort_keys=True) + "\n")


def _read_csv(path: Path) -> tuple[dict, ...]:
    """Rows of a CLI output file; none when the call failed and wrote nothing."""
    try:
        with open(path, newline="") as fh:
            return tuple(csv.DictReader(fh))
    except FileNotFoundError:
        return ()


class PlrCurves(Workload):
    """CLI `plr` curves at nu = 0 and 1 over a spread of B and lambda."""

    name = "plr-curves"
    NUS = (0, 1)
    BANDWIDTHS = (3, 5, 10, 20)
    # lambda from 0.5 to 30 1/s at B = 10, scaled with B: PLR spans about
    # 1e-4..1e-1 and no point reaches the clamped (model_validity) region
    BASE_LAMBDAS = tuple(0.5 * 60.0 ** (i / 7) for i in range(8))
    # A correct PLR within 1e-4 relative moves no capacity by as much as a
    # tenth of the solver's 1e-3 step, since PLR grows at least linearly in
    # lambda; a quadrature with fewer nodes that keeps that accuracy passes.
    REL_TOL = 1e-4
    ops_per_round = len(NUS) * len(BANDWIDTHS) * len(BASE_LAMBDAS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.curves = []
        for nu in self.NUS:
            for b in self.BANDWIDTHS:
                # +-5 % per point keeps the lambdas in order (the grid steps by 1.8x)
                lams = [g * b / 10.0 * (1.0 + 0.05 * (2.0 * self.rng.random() - 1.0))
                        for g in self.BASE_LAMBDAS]
                cfg = ScenarioConfig(phi=PHI, noise_sigma=SIGMA, repetitions_nu=nu,
                                     num_subchannels_b=b)
                self.curves.append((cfg, lams, f"nu{nu}-b{b}"))

    def scenarios(self):
        return [cfg.with_lambda(lam) for cfg, lams, _ in self.curves for lam in lams]

    def prepare(self):
        super().prepare()
        for cfg, _, tag in self.curves:
            _write_config(self.workdir / f"{tag}.json", cfg)

    def _calls(self, workers):
        failed = 0
        for _, lams, tag in self.curves:
            rc = mode2cap.cli.main([
                "plr", "--config", str(self.workdir / f"{tag}.json"),
                "--lambda", ",".join(repr(lam) for lam in lams),
                "--workers", str(workers), "--out", str(self.workdir / f"{tag}.csv")])
            if rc != 0:
                failed += len(lams)
        return None, failed, []

    def _read(self, _):
        return tuple(_read_csv(self.workdir / f"{tag}.csv") for _, _, tag in self.curves)

    def check(self, tables):
        problems = []
        for (cfg, lams, tag), rows in zip(self.curves, tables):
            if not rows:
                continue  # the call failed; its points are counted as failed
            got = [float(row["lambda"]) for row in rows]
            if got != lams:
                problems.append(f"{tag}: lambda column {got} != inputs {lams}")
                continue
            values = [float(row["plr"]) for row in rows]
            for lam, row, value in zip(lams, rows, values):
                ref = quad_plr(lam, cfg)
                if not abs(value - ref) <= self.REL_TOL * ref:
                    problems.append(f"{tag} lambda={lam:.6g}: plr {value!r} vs quad {ref!r}")
                if not float(row["error_estimate"]) <= 1e-3 * value:
                    problems.append(f"{tag} lambda={lam:.6g}: error_estimate "
                                    f"{row['error_estimate']} > 1e-3 * plr")
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append(f"{tag}: PLR decreases along lambda: {values}")
        return problems


def quad_plr(lam: float, config: ScenarioConfig) -> float:
    """PLR by adaptive quadrature of the per-distance loss over (0, R], / R.

    nu = 0 uses the closed form p + (1-p) min(1, (1-p_s)(1-p^K)/(1-p)), which
    does not go through the loss-recursion operator; nu >= 1 uses
    loss_recursion(r).plr_r.  Both are integrated by scipy's adaptive
    Gauss-Kronrod rule, not the package's fixed Gauss-Legendre panels.
    """
    from scipy import integrate  # imported here so that set-up time excludes it

    cfg = validate_config(config.with_lambda(lam))
    if cfg.repetitions_nu == 0:
        p = transmit_probability(cfg)
        k = min(truncation_depth(cfg), mode2cap.analytic.MAX_TRUNCATION_DEPTH)

        def loss(r):
            return p + (1 - p) * min(1.0, (1 - success_prob(r, cfg)) * (1 - p ** k) / (1 - p))
    else:
        def loss(r):
            return loss_recursion(r, cfg).plr_r
    value, _ = integrate.quad(loss, 0.0, cfg.range_r, epsabs=0.0, epsrel=1e-10, limit=200)
    return value / cfg.range_r


# ------------------------------------------------------------ sim-crosscheck

class SimCrosscheck(Workload):
    """CLI `validate` at acceptance criterion 5's nu = 0 and nu = 2 points."""

    name = "sim-crosscheck"
    # (nu, lambdas, num_ues, slots, replications): the criterion 5 loads whose
    # analytic PLR is about 0.037, sized so one round takes a few seconds on
    # two workers and the relative 95 % CI stays well under 30 %
    POINTS = ((0, (10.0,), 300, 2000, 8),
              (2, (30.0,), 200, 1500, 8))
    ops_per_round = sum(len(p[1]) for p in POINTS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sim_seed = self.rng.getrandbits(32)

    def scenarios(self):
        return [ScenarioConfig(phi=PHI, noise_sigma=SIGMA, repetitions_nu=nu,
                               lambda_rate=lam)
                for nu, lams, *_ in self.POINTS for lam in lams]

    def prepare(self):
        super().prepare()
        for nu, *_ in self.POINTS:
            _write_config(self.workdir / f"nu{nu}.json",
                          ScenarioConfig(phi=PHI, noise_sigma=SIGMA, repetitions_nu=nu))

    def _calls(self, workers):
        failed = 0
        captured = []
        inner = mode2cap.cli.sim_run

        def sim_run(sim_config, workers=1):
            t0 = time.perf_counter()
            report = inner(sim_config, workers=workers)
            captured.append((sim_config.replications, time.perf_counter() - t0, report))
            return report

        # the CLI resolves sim_run at call time; recording its reports is the
        # only way to see pairs and loss causes, which the CSV leaves out
        mode2cap.cli.sim_run = sim_run
        try:
            for nu, lams, ues, slots, reps in self.POINTS:
                rc = mode2cap.cli.main([
                    "validate", "--config", str(self.workdir / f"nu{nu}.json"),
                    "--lambda", ",".join(repr(lam) for lam in lams),
                    "--num-ues", str(ues), "--slots", str(slots),
                    "--replications", str(reps), "--seed", str(self.sim_seed),
                    "--workers", str(workers), "--out", str(self.workdir / f"nu{nu}.csv")])
                if rc != 0:
                    failed += len(lams)
        finally:
            mode2cap.cli.sim_run = inner
        # reports are compared across rounds and worker counts, timings are not
        return tuple(r.to_dict() for _, _, r in captured), failed, captured

    def _read(self, reports):
        tables = tuple(_read_csv(self.workdir / f"nu{nu}.csv") for nu, *_ in self.POINTS)
        return tables, reports

    def check(self, outputs):
        tables, reports = outputs
        problems = []
        rows = [row for table in tables for row in table]
        if len(rows) != len(reports):
            return [f"{len(rows)} CSV rows but {len(reports)} simulator reports"]
        for row, rep in zip(rows, reports):
            tag = f"lambda={row['lambda']}"
            analytic, sim = float(row["plr_analytic"]), float(row["plr_sim"])
            ratio = analytic / sim if sim > 0 else math.nan
            ci_rel = float(row["ci"]) / sim if sim > 0 else math.nan
            if not 0.5 <= ratio <= 2.0:
                problems.append(f"{tag}: analytic/sim ratio {ratio:.3f} outside [0.5, 2]")
            if not ci_rel < 0.3:
                problems.append(f"{tag}: relative CI {ci_rel:.3f} not below 0.3")
            if sim != rep["plr_estimate"]:
                problems.append(f"{tag}: CSV plr_sim {sim!r} != report {rep['plr_estimate']!r}")
            losses, pairs = rep["losses"], rep["pairs_measured"]
            if losses != rep["half_duplex_losses"] + rep["interference_losses"]:
                problems.append(f"{tag}: losses {losses} != half-duplex + interference")
            if not 0 < losses < pairs:
                problems.append(f"{tag}: losses {losses} not in (0, pairs={pairs})")
        return problems


WORKLOADS = {cls.name: cls for cls in (OptimalNu, PlrCurves, SimCrosscheck)}
