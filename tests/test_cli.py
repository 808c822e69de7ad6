import json
import subprocess
import sys

import pytest

from mode2cap import cli
from mode2cap.cli import parse_sweep

CMD = [sys.executable, "-m", "mode2cap"]


def invoke(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def write_config(tmp_path, **fields):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(fields))
    return str(path)


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON lacks."""
    def reject(name):
        raise ValueError(f"not RFC 8259 JSON: {name}")
    return json.loads(text, parse_constant=reject)


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestPlrCommand:
    def test_rows_and_monotone_column(self, tmp_path):
        cfg = write_config(tmp_path, lambda_rate=10.0)
        out = invoke("plr", "--config", cfg, "--lambda", "1,5", "--lambda", "10")
        assert out.returncode == 0
        header, rows = parse_csv(out.stdout)
        assert header == ["lambda", "plr", "error_estimate", "validity_flag"]
        assert [float(r[0]) for r in rows] == [1.0, 5.0, 10.0]
        plrs = [float(r[1]) for r in rows]
        assert plrs == sorted(plrs)
        assert all(0.0 <= v <= 1.0 for v in plrs)

    def test_empty_lambda_list_gives_header_only(self):
        out = invoke("plr")
        assert out.returncode == 0
        assert out.stdout == "lambda,plr,error_estimate,validity_flag\n"

    def test_invalid_config_exits_2_and_names_field(self, tmp_path):
        cfg = write_config(tmp_path, packet_width_m=0)
        out = invoke("plr", "--config", cfg, "--lambda", "1")
        assert out.returncode == 2
        assert "packet_width_m" in out.stderr

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, bandwidth=12)
        out = invoke("plr", "--config", cfg)
        assert out.returncode == 2
        assert "unknown config keys" in out.stderr

    @pytest.mark.parametrize("key, value", [
        ("lambda_rate", "abc"),
        ("num_subchannels_b", None),
        ("tx_power_s", {"dbm": "x"}),
        ("phi", [1]),
        ("num_subchannels_b", True),
        ("phi", True),
    ], ids=["string", "null", "unit_string", "list", "bool_integer", "bool_number"])
    def test_malformed_config_value_exits_2_and_names_key(self, tmp_path, key, value):
        cfg = write_config(tmp_path, **{key: value})
        out = invoke("plr", "--config", cfg, "--lambda", "1")
        assert out.returncode == 2
        assert key in out.stderr
        assert "Traceback" not in out.stderr

    def test_overload_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, repetitions_nu=0)
        out = invoke("plr", "--config", cfg, "--lambda", "2500")
        assert out.returncode == 3
        assert "traffic too intense" in out.stderr

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_nonpositive_or_nan_load_exits_2_and_names_value(self, value):
        out = invoke("plr", "--lambda", f"1,{value}")
        assert out.returncode == 2
        assert f"lambda value {value!r} out of range" in out.stderr
        assert "Traceback" not in out.stderr

    def test_csv_is_17_digit_lf_stable(self, tmp_path):
        target = tmp_path / "out.csv"
        out = invoke("plr", "--lambda", "7", "--out", str(target))
        assert out.returncode == 0
        raw = target.read_bytes()
        assert b"\r" not in raw
        value = raw.decode().splitlines()[1].split(",")[1]
        # 17 significant digits round-trip doubles exactly
        assert float(value) == float(f"{float(value):.17g}")
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_parallel_workers_identical_output(self, tmp_path):
        args = ("plr", "--lambda", "2,4,8")
        assert invoke(*args).stdout == invoke(*args, "--workers", "2").stdout

    def test_sidecar_config_written(self, tmp_path):
        target = tmp_path / "curve.csv"
        out = invoke("plr", "--lambda", "3", "--out", str(target))
        assert out.returncode == 0
        sidecar = json.loads((tmp_path / "curve.csv.config.json").read_text())
        assert sidecar["command"] == "plr"
        assert sidecar["scenario"]["phi"] == 0.05
        assert sidecar["lambda"] == [3.0]

    def test_unwritable_out_exits_2_and_names_path(self, tmp_path):
        target = tmp_path / "no-such-dir" / "curve.csv"
        out = invoke("plr", "--lambda", "1", "--out", str(target))
        assert out.returncode == 2
        assert out.stderr == f"error: cannot write {target}: No such file or directory\n"

    def test_unwritable_sidecar_exits_2_and_names_path(self, tmp_path):
        target = tmp_path / "curve.csv"
        sidecar = tmp_path / "curve.csv.config.json"
        sidecar.mkdir()
        out = invoke("plr", "--lambda", "1", "--out", str(target))
        assert out.returncode == 2
        assert out.stderr == f"error: cannot write {sidecar}: Is a directory\n"
        assert not target.exists()


class TestWritePath:
    """main checks that --out and its sidecar open before any work, and writes
    them only once the whole result is there."""

    @pytest.mark.parametrize("args", [
        ("plr", "--lambda", "1,2"),
        ("capacity", "--vary", "nu=0..8"),
        ("simulate", "--num-ues", "120", "--slots", "3000"),
        ("validate", "--lambda", "10", "--num-ues", "120", "--slots", "3000"),
    ], ids=lambda args: args[0])
    def test_missing_out_dir_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                     args):
        def fail(*_, **__):
            raise AssertionError("work started before --out was checked")
        for name in ("capacity_sweep", "pool_map", "plr", "sim_run"):
            monkeypatch.setattr(cli, name, fail)
        target = tmp_path / "missing" / "out.csv"
        assert cli.main([*args, "--out", str(target)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {target}: No such file or directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_failure_after_check_keeps_out_and_writes_no_sidecar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, repetitions_nu=0)
        target = tmp_path / "curve.csv"
        target.write_bytes(b"keep,me\r\n")
        assert cli.main(["plr", "--config", cfg, "--lambda", "1,5000",
                         "--out", str(target)]) == 3
        assert "traffic too intense" in capsys.readouterr().err
        assert target.read_bytes() == b"keep,me\r\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["curve.csv", "scenario.json"]


class TestCapacityCommand:
    def test_single_row(self):
        out = invoke("capacity")
        assert out.returncode == 0
        header, rows = parse_csv(out.stdout)
        assert header == ["capacity", "flag"]
        assert len(rows) == 1
        assert float(rows[0][0]) > 0.0

    def test_sweep_grid_sorted(self):
        out = invoke("capacity", "--vary", "nu=1..2", "--vary", "bandwidth_b=8,10")
        assert out.returncode == 0
        header, rows = parse_csv(out.stdout)
        assert header == ["nu", "bandwidth_b", "capacity", "flag"]
        assert [(r[0], r[1]) for r in rows] == [
            ("1", "8"), ("1", "10"), ("2", "8"), ("2", "10")]

    def test_lambda_sweep_rejected(self):
        out = invoke("capacity", "--vary", "lambda=1..2")
        assert out.returncode == 2
        assert "lambda" in out.stderr

    def test_bad_sweep_spec_rejected(self):
        out = invoke("capacity", "--vary", "nu=5..1")
        assert out.returncode == 2

    def test_unknown_sweep_name_rejected(self):
        out = invoke("capacity", "--vary", "mcs=1..2")
        assert out.returncode == 2
        assert "mcs" in out.stderr

    def test_sweep_values_must_satisfy_invariants(self):
        out = invoke("capacity", "--vary", "bandwidth_b=2,3")
        assert out.returncode == 2
        assert "packet_width_m" in out.stderr

    def test_float_range_values_are_exact(self):
        assert parse_sweep("plr_target=0.1..0.5:0.1") == ("plr_target", (0.1, 0.2, 0.3, 0.4, 0.5))
        _, values = parse_sweep("plr_target=0.001..0.01:0.001")
        assert len(values) == 10
        assert values[-1] == 0.01
        assert parse_sweep("nu=1..8:3") == ("nu", (1, 4, 7))

    def test_repeated_sweep_name_rejected(self):
        out = invoke("capacity", "--vary", "nu=1,2", "--vary", "nu=3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "'nu'" in out.stderr

    def test_json_format(self):
        out = invoke("capacity", "--vary", "nu=0,1", "--format", "json")
        assert out.returncode == 0
        rows = json.loads(out.stdout)
        assert [row["nu"] for row in rows] == [0, 1]
        assert all("capacity" in row for row in rows)


SIM_ARGS = ("--num-ues", "120", "--slots", "3000", "--replications", "2",
            "--seed", "3")


class TestSimulateCommand:
    def test_deterministic_json(self):
        first = invoke("simulate", *SIM_ARGS)
        second = invoke("simulate", *SIM_ARGS)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert set(report) == {
            "plr_estimate", "confidence_interval_95", "pairs_measured",
            "losses", "half_duplex_losses", "interference_losses", "seed"}
        assert report["seed"] == 3

    def test_single_replication_writes_null_interval(self):
        out = invoke("simulate", "--num-ues", "120", "--slots", "3000",
                     "--replications", "1")
        assert out.returncode == 0
        report = strict_json(out.stdout)
        assert report["confidence_interval_95"] is None
        assert report["plr_estimate"] > 0.0

    def test_zero_replications_usage_error(self):
        out = invoke("simulate", "--replications", "0", "--num-ues", "120",
                     "--slots", "3000")
        assert out.returncode == 2
        assert "replications" in out.stderr

    def test_negative_seed_usage_error(self):
        out = invoke("simulate", "--seed", "-4", "--num-ues", "120",
                     "--slots", "3000")
        assert out.returncode == 2
        assert "seed" in out.stderr

    def test_zero_workers_usage_error(self):
        out = invoke("plr", "--lambda", "1", "--workers", "0")
        assert out.returncode == 2
        assert "workers" in out.stderr

    def test_infinite_config_load_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, lambda_rate=float("inf"))
        assert "Infinity" in open(cfg).read()
        out = invoke("simulate", "--config", cfg, "--num-ues", "120", "--slots", "3000")
        assert out.returncode == 2
        assert "lambda_rate must be finite" in out.stderr
        assert "Traceback" not in out.stderr

    def test_short_line_exits_2(self):
        out = invoke("simulate", "--num-ues", "10", "--slots", "1000")
        assert out.returncode == 2
        assert out.stderr == "error: no pairs measured (num_slots too small or line too short)\n"

    def test_format_option_rejected(self):
        out = invoke("simulate", "--format", "csv", "--num-ues", "120", "--slots", "3000",
                     "--replications", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "--format" in out.stderr

    def test_phi_override(self, tmp_path):
        dense = invoke("simulate", "--num-ues", "300", "--slots", "3000",
                       "--replications", "2", "--seed", "3", "--phi", "0.1")
        sparse = invoke("simulate", "--num-ues", "300", "--slots", "3000",
                        "--replications", "2", "--seed", "3")
        assert dense.returncode == sparse.returncode == 0
        assert json.loads(dense.stdout)["pairs_measured"] > \
            json.loads(sparse.stdout)["pairs_measured"]


class TestValidateCommand:
    def test_side_by_side_table(self, tmp_path):
        cfg = write_config(tmp_path, lambda_rate=10.0)
        out = invoke("validate", "--config", cfg, "--lambda", "10",
                     "--num-ues", "200", "--slots", "6000",
                     "--replications", "2", "--workers", "2")
        assert out.returncode == 0
        header, rows = parse_csv(out.stdout)
        assert header == ["lambda", "plr_analytic", "plr_sim", "ci", "ratio", "flag"]
        (lam, a, s, ci, ratio, flag), = rows
        assert float(lam) == 10.0
        assert float(ratio) == pytest.approx(float(a) / float(s), rel=1e-12)

    def test_tiny_load_flagged_below_measurable(self, tmp_path):
        out = invoke("validate", "--lambda", "0.02", "--num-ues", "150",
                     "--slots", "20000", "--replications", "2")
        assert out.returncode == 0
        _, rows = parse_csv(out.stdout)
        assert rows[0][5] == "below_measurable"

    def test_json_writes_null_for_undefined_ratio(self):
        out = invoke("validate", "--lambda", "0.02", "--num-ues", "150",
                     "--slots", "3000", "--replications", "1", "--format", "json")
        assert out.returncode == 0
        row, = strict_json(out.stdout)
        assert row["plr_sim"] == 0.0
        assert row["ratio"] is None and row["ci"] is None
        assert row["flag"] == "below_measurable"

    def test_unmeasured_load_keeps_every_row(self, tmp_path):
        # at lambda = 1e-6 no packet's last attempt falls inside the horizon
        cfg = write_config(tmp_path, repetitions_nu=2, num_subchannels_b=20)
        out = invoke("validate", "--config", cfg, "--lambda", "30,1e-6", "--num-ues", "200",
                     "--slots", "1500", "--replications", "2", "--seed", "7")
        assert out.returncode == 0
        _, (measured, unmeasured) = parse_csv(out.stdout)
        assert float(measured[2]) > 0.0 and measured[5] == ""
        assert float(unmeasured[0]) == 1e-6
        assert float(unmeasured[1]) < 1e-6
        assert unmeasured[2:] == ["nan", "nan", "nan", "below_measurable"]

    def test_no_load_measured_exits_2(self, tmp_path):
        out = invoke("validate", "--lambda", "1e-6", "--num-ues", "200", "--slots", "1500",
                     "--replications", "2")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "no pairs measured" in out.stderr

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_nonpositive_or_nan_load_exits_2_and_names_value(self, value):
        out = invoke("validate", "--lambda", value, "--num-ues", "200",
                     "--slots", "3000")
        assert out.returncode == 2
        assert f"lambda value {value!r} out of range" in out.stderr
        assert "Traceback" not in out.stderr

    def test_invalid_sim_override_exits_2(self):
        out = invoke("validate", "--lambda", "10", "--num-ues", "1",
                     "--slots", "3000")
        assert out.returncode == 2
