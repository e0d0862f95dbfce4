import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aicg
from aicg.cli import main, parse_angle, parse_grid, fmt_float


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


class TestParsing:
    def test_angles(self):
        assert parse_angle("2pi") == pytest.approx(2 * math.pi)
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle("pi/3") == pytest.approx(math.pi / 3)
        assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_angle("1.25") == 1.25

    def test_grid(self):
        assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
        assert parse_grid("0:0:1") == [0.0]

    def test_float_formatting_digits(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(1.0) == "1"


class TestBiasCommand:
    def test_t1_boundary(self, tmp_path):
        code, text = run_cli(["bias", "--model", "t1", "--mu0y", "0"], tmp_path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "model,mu0y,method,bias,std_error,settings_hash"
        fields = lines[1].split(",")
        assert fields[0] == "t1:1" and fields[3] == "1"

    def test_halflines_single_ray(self, tmp_path):
        code, text = run_cli(["bias", "--model", "halflines", "--angles", "2pi",
                              "--mu0y", "0"], tmp_path)
        assert code == 0
        assert text.splitlines()[1].split(",")[3] == "1"

    def test_halflines_away_from_origin(self, tmp_path):
        base = ["bias", "--model", "halflines", "--angles", "2.8,4.5,2pi", "--mu0y"]
        code, text = run_cli([*base, "1"], tmp_path, "quad.csv")
        assert code == 0
        fields = text.splitlines()[1].split(",")
        assert fields[-4] == "quadrature"
        code, mc_text = run_cli([*base, "1", "--method", "monte-carlo", "--samples", "1000000",
                                 "--seed", "7"], tmp_path, "mc.csv")
        assert code == 0
        mc = mc_text.splitlines()[1].split(",")
        assert abs(float(fields[-3]) - float(mc[-3])) <= 4.0 * float(mc[-2])
        # the origin keeps the closed form's bytes
        code, text = run_cli([*base, "0"], tmp_path, "origin.csv")
        assert code == 0
        assert text.splitlines()[1] == ('"halflines:2.8,4.5,6.28318530718",0,closed-form,'
                                        '2.7334442533918448,,b1a179f83865')

    @pytest.mark.parametrize("angles", ["3.2,2pi", "3.1516,2pi", "3.15,3.2,2pi"])
    def test_halflines_wide_sector(self, tmp_path, angles):
        # a gap just under pi puts a step of width 1/tan b in the window
        from aicg.quadrature import bias_ray_cone
        code, text = run_cli(["bias", "--model", "halflines", "--angles", angles,
                              "--mu0y", "1"], tmp_path)
        assert code == 0
        rays = [parse_angle(a) for a in angles.split(",")]
        want = bias_ray_cone([(1.0, 0.0)], rays)[0]
        assert text.splitlines()[1].split(",")[-3] == fmt_float(want)

    def test_t3_singular_constant(self, tmp_path):
        code, text = run_cli(["bias", "--model", "t3", "--mu0y", "0"], tmp_path)
        assert code == 0
        value = float(text.splitlines()[1].split(",")[3])
        assert value == pytest.approx(2.8269933, abs=1e-6)

    def test_conflicting_inputs_exit_2(self, tmp_path):
        code, _ = run_cli(["bias", "--model", "t1", "--mu0y", "1", "--phi0", "0.5",
                           "--n", "10"], tmp_path)
        assert code == 2

    def test_counts_plugin(self, tmp_path):
        code, text = run_cli(["bias", "--model", "t1:1", "--counts", "30,35,35",
                              "--method", "plugin"], tmp_path)
        assert code == 0
        assert float(text.splitlines()[1].split(",")[3]) == 1.0

    @pytest.mark.parametrize("method", ["aic", "llf", "ulf", "uo", "minimax", "consistent",
                                        "bootstrap"])
    def test_counts_report_observed_distance(self, tmp_path, method):
        base = ["bias", "--model", "t1", "--counts", "60,20,20", "--seed", "1",
                "--samples", "200"]
        _, plugin = run_cli([*base, "--method", "plugin"], tmp_path, "plugin.csv")
        code, text = run_cli([*base, "--method", method], tmp_path, f"{method}.csv")
        assert code == 0
        mu_plugin = float(plugin.splitlines()[1].split(",")[1])
        assert mu_plugin == pytest.approx(5.4433, abs=1e-4)
        assert float(text.splitlines()[1].split(",")[1]) == mu_plugin

    def test_counts_at_vertex_exit_2(self, tmp_path, capsys):
        code, text = run_cli(["bias", "--model", "t3", "--counts", "0,0,5",
                              "--method", "aic"], tmp_path)
        assert code == 2 and text == ""
        assert "simplex vertex" in capsys.readouterr().err

    def test_t3_nonconvergence_exit_3(self, tmp_path, capsys):
        code, text = run_cli(["bias", "--model", "t3", "--mu0y", "1", "--abs-tol", "1e-16"],
                             tmp_path)
        assert code == 3 and text == ""
        assert "rules differ by more than abs_tol=1e-16" in capsys.readouterr().err

    def test_monte_carlo_requires_seed(self, tmp_path):
        code, _ = run_cli(["bias", "--model", "t1", "--mu0y", "1",
                           "--method", "monte-carlo", "--samples", "1000"], tmp_path)
        assert code == 2


class TestTargetCommand:
    def test_header_exact(self, tmp_path):
        code, text = run_cli(["target", "--model", "t1", "--n", "1000",
                              "--grid", "0:0:1", "--samples", "20000", "--seed", "3"],
                             tmp_path)
        assert code == 0
        assert text.splitlines()[0] == "mu0y,target,target_se,aicg_bias,aic_bias"

    def test_single_point_near_one(self, tmp_path):
        code, text = run_cli(["target", "--model", "t1", "--n", "1000",
                              "--grid", "0:0:1", "--samples", "100000", "--seed", "3"],
                             tmp_path)
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1.0, abs=0.03)
        assert float(row[3]) == 1.0
        assert float(row[4]) == 2.0

    def test_estimator_columns(self, tmp_path):
        code, text = run_cli(["target", "--model", "t1", "--n", "500",
                              "--grid", "0:1:1", "--samples", "5000", "--seed", "3",
                              "--method", "aic,uo"], tmp_path)
        assert code == 0
        assert text.splitlines()[0] == \
            "mu0y,target,target_se,aicg_bias,aic_bias,aic,aic_se,uo,uo_se"

    def test_determinism_same_seed(self, tmp_path):
        args = ["target", "--model", "t3", "--n", "300", "--grid", "0:1:0.5",
                "--samples", "20000", "--seed", "17"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second

    def test_determinism_across_workers(self, tmp_path):
        base = ["target", "--model", "t1", "--n", "300", "--grid", "0:1:0.5",
                "--samples", "50000", "--seed", "17"]
        _, one = run_cli([*base, "--workers", "1"], tmp_path, "w1.csv")
        _, three = run_cli([*base, "--workers", "3"], tmp_path, "w3.csv")
        assert one == three

    def test_consistent_column_needs_n_3(self, tmp_path, capsys):
        # the column's radius is consistent_radius, as under bias --counts
        code, text = run_cli(["target", "--model", "t1", "--n", "2", "--grid", "0:1:1",
                              "--samples", "100", "--seed", "1", "--method", "consistent"],
                             tmp_path)
        assert code == 2 and text == ""
        assert "consistent estimation needs n >= 3" in capsys.readouterr().err
        code, _ = run_cli(["bias", "--model", "t1", "--counts", "1,1,0",
                           "--method", "consistent"], tmp_path, "bias.csv")
        assert code == 2
        assert "consistent estimation needs n >= 3" in capsys.readouterr().err


class TestSelectCommand:
    def test_strong_signal(self, tmp_path):
        code, text = run_cli(["select", "--counts", "120,40,40",
                              "--models", "t1:1,polytomy", "--method", "plugin"], tmp_path)
        assert code == 0
        data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        top = data_rows[1].split(",")
        assert top[0] == "t1:1" and top[6] == "1"

    def test_vertex_counts_keep_other_rows(self, tmp_path):
        code, text = run_cli(["select", "--counts", "0,0,5", "--models", "t3,t1:1,polytomy"],
                             tmp_path)
        assert code == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines[1:]))
        assert [(r[0], r[2], r[6], r[8]) for r in rows] == [
            ("polytomy", "plug-in", "1", ""), ("t1:1", "plug-in", "2", ""),
            ("t3", "", "", "p1=1.0 outside [1/3, 1)")]

    def test_error_row_with_comma_keeps_header_width(self, tmp_path):
        code, text = run_cli(["select", "--counts", "0,0,5", "--models", "t3,t1:1"], tmp_path)
        assert code == 0
        rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
        assert len(rows) == 3 and all(len(r) == len(rows[0]) for r in rows)
        assert rows[2][0] == "t3" and rows[2][-1] == "p1=1.0 outside [1/3, 1)"

    def test_near_centroid(self, tmp_path):
        code, text = run_cli(["select", "--counts", "67,67,66",
                              "--models", "t1:1,polytomy", "--method", "plugin"], tmp_path)
        data_rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert data_rows[1].split(",")[0] == "polytomy"

    def test_empty_models_exit_2(self, tmp_path):
        code, _ = run_cli(["select", "--counts", "1,1,1", "--models", ""], tmp_path)
        assert code == 2

    def test_malformed_counts_exit_2(self, tmp_path):
        code, _ = run_cli(["select", "--counts", "1,2", "--models", "t1:1"], tmp_path)
        assert code == 2

    def test_json_format_sorted_keys(self, tmp_path):
        code, text = run_cli(["select", "--counts", "30,20,10", "--models",
                              "t1:1,unconstrained", "--format", "json"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert {row["model_id"] for row in doc["rows"]} == {"t1:1", "unconstrained"}

    def test_n_mismatch_exit_2(self, tmp_path):
        code, _ = run_cli(["select", "--counts", "10,10,10", "--n", "31",
                           "--models", "t1:1"], tmp_path)
        assert code == 2


class TestRegionsCommand:
    def test_header_and_centroid(self, tmp_path):
        code, text = run_cli(["regions", "--pair", "t1:1,polytomy", "--n", "60",
                              "--resolution", "60"], tmp_path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "p1,p2,p3,winner"
        rows = {tuple(l.split(",")[:3]): l.split(",")[3] for l in lines[1:]}
        third = fmt_float(20 / 60)
        assert rows[(third, third, third)] == "polytomy"

    def test_low_resolution_exit_2(self, tmp_path):
        code, _ = run_cli(["regions", "--pair", "t1:1,polytomy", "--n", "200",
                           "--resolution", "10"], tmp_path)
        assert code == 2


    def test_eta_exponent_flag_and_config_key(self, tmp_path):
        from aicg.estimators import EstimatorRule
        from aicg.models import t3_model, unconstrained_model
        from aicg.selection import region_grid
        base = ["regions", "--pair", "t3,unconstrained", "--n", "200", "--resolution", "50",
                "--method", "consistent"]

        def winners(text):
            return tuple(line.split(",")[3] for line in text.splitlines()[1:])
        models = [t3_model(), unconstrained_model()]
        want = region_grid(models, 200, 50, EstimatorRule("consistent", eta_exponent=0.1)).winners
        assert want != region_grid(models, 200, 50, EstimatorRule("consistent")).winners
        code, text = run_cli([*base, "--eta-exponent", "0.1"], tmp_path, "flag.csv")
        assert code == 0 and winners(text) == want
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_exponent": 0.1}), encoding="utf-8")
        code, text = run_cli([*base, "--config", str(cfg)], tmp_path, "config.csv")
        assert code == 0 and winners(text) == want


class TestRadiiCommand:
    def test_t1_values(self, tmp_path):
        code, text = run_cli(["radii", "--model", "t1", "--grid", "0:5:0.1"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert abs(doc["minimax_radius"] - 0.95) <= 0.05
        assert doc["uo_radius"] < 0.2

    def test_polytomy_not_applicable(self, tmp_path):
        code, text = run_cli(["radii", "--model", "polytomy"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["uo_radius"] is None and doc["minimax_radius"] is None

    def test_halflines_exit_2_names_the_models(self, tmp_path, capsys):
        code, text = run_cli(["radii", "--model", "halflines", "--angles", "2.8,4.5,2pi"],
                             tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "t1 and t3 only" in err and "constant bias" not in err

    def test_t3_far_grid_exit_0(self, tmp_path):
        # far out the t3 truth scatters by about 3e-14 about 2, so r = 0 is
        # feasible only within the quadrature's tolerance
        code, text = run_cli(["radii", "--model", "t3", "--grid", "0:50:1"], tmp_path, "far.json")
        assert code == 0
        code, near = run_cli(["radii", "--model", "t3", "--grid", "0:5:1"], tmp_path, "near.json")
        assert code == 0
        far, near = json.loads(text), json.loads(near)
        assert (far["uo_radius"], far["minimax_radius"]) == (near["uo_radius"],
                                                             near["minimax_radius"])
        assert far["uo_diagnostics"]["violation_tol"] == 1e-8

    def test_infeasible_exit_3_with_error_json(self, tmp_path):
        code, text = run_cli(["radii", "--model", "t3", "--grid", "0:1:0.5",
                              "--violation-tol", "-1"], tmp_path)
        assert code == 3
        assert "error" in json.loads(text)

    def test_nonconvergence_exit_3_with_error_json(self, tmp_path):
        code, text = run_cli(["radii", "--model", "t3", "--abs-tol", "1e-16"], tmp_path)
        assert code == 3
        assert "rules differ by more than abs_tol" in json.loads(text)["error"]


class TestImports:
    def test_cli_import_skips_thread_pool(self):
        # the pool is imported only by a run with --workers above 1
        src = str(Path(aicg.__file__).resolve().parents[1])
        code = "import sys, aicg.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "t1:2", "mu0y": 0.0}), encoding="utf-8")
        code, text = run_cli(["bias", "--config", str(cfg), "--model", "t1:1"], tmp_path)
        assert code == 0
        assert text.splitlines()[1].startswith("t1:1,")

    def test_config_supplies_missing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu0y": 0.0}), encoding="utf-8")
        code, text = run_cli(["bias", "--config", str(cfg), "--model", "t3"], tmp_path)
        assert code == 0
        assert float(text.splitlines()[1].split(",")[3]) == pytest.approx(2.8269933, abs=1e-6)

    @pytest.mark.parametrize("key", ["samplez", "resolution"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, key):
        # a misspelling, and a key only another subcommand takes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu0y": 0.0, key: 5}), encoding="utf-8")
        code, text = run_cli(["bias", "--config", str(cfg), "--model", "t1"], tmp_path)
        assert code == 2 and text == ""
        assert repr(key) in capsys.readouterr().err


    @pytest.mark.parametrize("args,key", [
        (["bias", "--model", "t1", "--mu0y", "1"], "format"),
        (["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100",
          "--seed", "1"], "format"),
        (["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "60"], "format"),
        (["radii", "--model", "t1"], "format"),
        (["radii", "--model", "t1"], "samples")])
    def test_flags_a_subcommand_does_not_read_exit_2(self, tmp_path, capsys, args, key):
        # only select reads --format; radii draws nothing, so takes no --samples
        value = "json" if key == "format" else "10"
        with pytest.raises(SystemExit) as exc:
            main([*args, f"--{key}", value, "--out", str(tmp_path / "flag.out")])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code, text = run_cli([*args, "--config", str(cfg)], tmp_path)
        assert code == 2 and text == ""
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["bias", "target", "select", "regions", "radii"])
    def test_seed_and_workers_on_every_subcommand(self, cmd):
        from aicg.cli import build_parser
        args = build_parser().parse_args([cmd, "--seed", "3", "--workers", "1"])
        assert (args.seed, args.workers) == (3, 1)


class TestOutputDiscipline:
    def test_lf_endings_and_trailing_newline(self, tmp_path):
        _, text = run_cli(["bias", "--model", "t1", "--mu0y", "0.5"], tmp_path)
        assert "\r" not in text and text.endswith("\n")

    def test_seventeen_significant_digits(self, tmp_path):
        _, text = run_cli(["bias", "--model", "t1", "--mu0y", "0.3"], tmp_path)
        bias_field = text.splitlines()[1].split(",")[3]
        mantissa = bias_field.replace(".", "").lstrip("0")
        assert len(mantissa) == 17
