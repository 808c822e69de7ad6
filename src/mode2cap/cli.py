"""Command-line front end: PLR curves, capacity, sweeps, simulation, and
analytic-vs-simulation validation, emitted as CSV or JSON.

Flag precedence is flags > config file > built-in defaults.  Exit codes:
0 success, 2 usage or configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from pathlib import Path
from typing import Sequence

from .analytic import capacity_sweep, plr
from .config import (
    ConfigError,
    ScenarioConfig,
    TrafficIntensityError,
    _INT_FIELDS,
    json_value,
    pool_map,
    validate_config,
)
from .sim import SimConfig, run as sim_run, validate_sim_config

# CLI sweep names -> ScenarioConfig fields
SWEEP_PARAMETERS = {
    "nu": "repetitions_nu",
    "bandwidth_b": "num_subchannels_b",
    "plr_target": "plr_target",
}

_BELOW_MEASURABLE = 1e-6


def parse_sweep(text: str) -> tuple[str, tuple]:
    """Parse NAME=START..STOP[:STEP] (inclusive) or NAME=v1,v2,... into the
    CLI name and its values."""
    if "=" not in text:
        raise ConfigError(f"sweep spec needs NAME=RANGE, got {text!r}")
    name, _, spec = text.partition("=")
    name = name.strip()
    if name not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter {name!r} (choose from {sorted(SWEEP_PARAMETERS)})")
    integral = SWEEP_PARAMETERS[name] in _INT_FIELDS
    conv = int if integral else float
    try:
        if ".." in spec:
            lo_text, _, rest = spec.partition("..")
            hi_text, _, step_text = rest.partition(":")
            # float bounds and step become their shortest round-trip decimals,
            # so lo + i * step is exact and each value is rounded only once
            exact = int if integral else lambda t: Decimal(repr(float(t)))
            lo, hi = exact(lo_text), exact(hi_text)
            step = exact(step_text) if step_text else exact(1)
            if step <= 0:
                raise ConfigError(f"sweep step must be positive in {text!r}")
            count = int((hi - lo) // step) + 1 if hi >= lo else 0
            values = [conv(lo + i * step) for i in range(count)]
        else:
            values = [conv(part) for part in spec.split(",") if part.strip()]
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"cannot parse sweep spec {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"sweep spec {text!r} produced no values")
    return name, tuple(values)


def parse_lambda_list(chunks: Sequence[str] | None) -> list[float]:
    values: list[float] = []
    for chunk in chunks or []:
        for part in chunk.split(","):
            part = part.strip()
            if part:
                try:
                    value = float(part)
                except ValueError as exc:
                    raise ConfigError(f"bad lambda value {part!r}") from exc
                if not 0.0 < value < math.inf:
                    raise ConfigError(
                        f"lambda value {part!r} out of range (need a finite load > 0)")
                values.append(value)
    return values


def load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    """Config file merged under CLI overrides, validated."""
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    if getattr(args, "phi", None) is not None:
        data["phi"] = args.phi
    return validate_config(data)


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_rows(columns: Sequence[str], rows: Sequence[Sequence], args) -> None:
    """Write rows as CSV (17 significant digits, LF endings) or JSON, where a
    nan or infinite value is null."""
    if args.format == "json":
        payload = [{col: json_value(v) for col, v in zip(columns, row)} for row in rows]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(format_value(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, args.out)


def _write(text: str, path: str | None) -> None:
    """text to path with no newline translation, or to stdout without one;
    ConfigError naming the path if it cannot be written."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_sidecar(args, scenario: ScenarioConfig, extra: dict | None = None) -> None:
    """Log the fully-resolved configuration next to the output file."""
    if args.out is None:
        return
    payload = {"command": args.command, "scenario": scenario.__dict__}
    if extra:
        payload.update(extra)
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", str(args.out) + ".config.json")


def cmd_plr(args) -> int:
    cfg = load_scenario(args)
    lambdas = parse_lambda_list(args.lambda_list)
    points = pool_map(plr, [(lam, cfg) for lam in lambdas], args.workers)
    rows = [
        (pt.lambda_rate, pt.plr, pt.error_estimate,
         "model_validity" if pt.validity_warning else "")
        for pt in points
    ]
    emit_rows(("lambda", "plr", "error_estimate", "validity_flag"), rows, args)
    write_sidecar(args, cfg, {"lambda": lambdas})
    return 0


def cmd_capacity(args) -> int:
    cfg = load_scenario(args)
    sweeps: dict[str, tuple] = {}  # CLI name -> values
    for name, values in map(parse_sweep, args.vary or []):
        if name in sweeps:
            raise ConfigError(f"sweep parameter {name!r} is given more than once")
        sweeps[name] = values
    # with no --vary the grid is empty and the sweep gives one row
    grid = {SWEEP_PARAMETERS[name]: list(values) for name, values in sweeps.items()}
    rows = [tuple(overrides.values()) + (result.capacity, ";".join(result.flags))
            for overrides, result in capacity_sweep(cfg, grid, workers=args.workers)]
    rows.sort(key=lambda row: row[:len(sweeps)])
    emit_rows(tuple(sweeps) + ("capacity", "flag"), rows, args)
    write_sidecar(args, cfg, {"vary": [f"{n}={list(v)}" for n, v in sweeps.items()]})
    return 0


def _sim_fields(args) -> dict:
    """The simulation flags as SimConfig fields."""
    return {"num_ues": args.num_ues, "num_slots": args.slots, "seed": args.seed,
            "replications": args.replications}


def _build_sim_config(args, cfg: ScenarioConfig) -> SimConfig:
    return validate_sim_config(SimConfig(scenario=cfg, **_sim_fields(args)))


def cmd_simulate(args) -> int:
    cfg = load_scenario(args)
    report = sim_run(_build_sim_config(args, cfg), workers=args.workers)
    _write(report.to_json(), args.out)
    write_sidecar(args, cfg, _sim_fields(args))
    return 0


def cmd_validate(args) -> int:
    cfg = load_scenario(args)
    lambdas = parse_lambda_list(args.lambda_list)
    rows = []
    for lam in lambdas:
        analytic_pt = plr(lam, cfg)
        sim_cfg = _build_sim_config(args, cfg.with_lambda(lam))
        report = sim_run(sim_cfg, workers=args.workers)
        sim_plr = report.plr_estimate
        ratio = analytic_pt.plr / sim_plr if sim_plr > 0 else math.nan
        flags = []
        if analytic_pt.plr < _BELOW_MEASURABLE and sim_plr < _BELOW_MEASURABLE:
            flags.append("below_measurable")
        if analytic_pt.validity_warning:
            flags.append("model_validity")
        rows.append((lam, analytic_pt.plr, sim_plr,
                     report.confidence_interval_95, ratio, ";".join(flags)))
    emit_rows(("lambda", "plr_analytic", "plr_sim", "ci", "ratio", "flag"),
              rows, args)
    write_sidecar(args, cfg, {"lambda": lambdas, **_sim_fields(args)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mode2cap",
        description="Packet loss rate and capacity for sporadic broadcast "
                    "traffic on a multichannel slotted random-access sidelink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON scenario config")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel workers for independent evaluations")

    def sim_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--slots", type=int, default=20000, help="slots per replication")
        p.add_argument("--seed", type=int, default=1, help="base RNG seed")
        p.add_argument("--replications", type=int, default=4)
        p.add_argument("--num-ues", type=int, default=400, dest="num_ues")
        p.add_argument("--phi", type=float, default=None,
                       help="override UE density, 1/m")

    p_plr = sub.add_parser("plr", help="PLR over a list of loads")
    common(p_plr)
    p_plr.add_argument("--lambda", dest="lambda_list", action="append",
                       metavar="LIST", help="comma-separated loads, 1/s (repeatable)")

    p_cap = sub.add_parser("capacity", help="capacity, optionally over a parameter grid")
    common(p_cap)
    p_cap.add_argument("--vary", action="append", metavar="NAME=START..STOP[:STEP]",
                       help="sweep spec; repeat for a grid "
                            f"(names: {', '.join(sorted(SWEEP_PARAMETERS))})")

    p_sim = sub.add_parser("simulate", help="Monte Carlo run, JSON report")
    common(p_sim)
    sim_flags(p_sim)

    p_val = sub.add_parser("validate", help="analytic vs simulated PLR side by side")
    common(p_val)
    sim_flags(p_val)
    p_val.add_argument("--lambda", dest="lambda_list", action="append",
                       metavar="LIST", help="comma-separated loads, 1/s (repeatable)")

    p_plr.set_defaults(func=cmd_plr)
    p_cap.set_defaults(func=cmd_capacity)
    p_sim.set_defaults(func=cmd_simulate)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("workers out of range (need at least 1)")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrafficIntensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
