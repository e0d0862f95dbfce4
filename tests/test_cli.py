import csv
import gc
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import aicg
from aicg.cli import main, parse_grid, fmt_float
from aicg.geometry import DomainError, alpha_from_phi0, phi_from_mu0y
from aicg.models import parse_angle, parse_model_id

from oracles import TransformedPoint, cone_of, mc_bias_gaussian, ray_cone_bias_dblquad


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
        assert lines[0] == "model,mu0y,method,bias,settings_hash"
        fields = lines[1].split(",")
        assert fields[0] == "t1:1" and fields[3] == "1"

    def test_halflines_single_ray(self, tmp_path):
        code, text = run_cli(["bias", "--model", "halflines:2pi", "--mu0y", "0"], tmp_path)
        assert code == 0
        assert text.splitlines()[1].split(",")[3] == "1"

    def test_halflines_away_from_origin(self, tmp_path):
        base = ["bias", "--model", "halflines:2.8,4.5,2pi", "--mu0y"]
        code, text = run_cli([*base, "1"], tmp_path, "quad.csv")
        assert code == 0
        fields = text.splitlines()[1].split(",")
        assert fields[-3] == "closed-form"
        # the generating point (1, 0), on the 2pi ray
        mc = mc_bias_gaussian(cone_of(parse_model_id("halflines:2.8,4.5,2pi")),
                              TransformedPoint(1.0, 0.0), 7, 10**6)
        assert abs(float(fields[-2]) - mc.value) <= 4.0 * mc.std_error
        # the origin keeps the closed form's bytes
        code, text = run_cli([*base, "0"], tmp_path, "origin.csv")
        assert code == 0
        assert text.splitlines()[1] == ('"halflines:2.8,4.5,6.28318530718",0,closed-form,'
                                        '2.7334442533918448,4d6e2bdc1f19')

    @pytest.mark.parametrize("angles", ["3.2,2pi", "3.1516,2pi", "3.15,3.2,2pi"])
    def test_halflines_wide_sector(self, tmp_path, angles):
        # a gap just under pi, where the jump term across its bisector vanishes
        from aicg.quadrature import bias_ray_cone
        code, text = run_cli(["bias", "--model", f"halflines:{angles}", "--mu0y", "1"],
                             tmp_path)
        assert code == 0
        rays = [parse_angle(a) for a in angles.split(",")]
        want = bias_ray_cone([(1.0, 0.0)], rays)[0]
        assert text.splitlines()[1].split(",")[-2] == fmt_float(want)

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
        base = ["bias", "--model", "t1", "--counts", "60,20,20", "--seed", "1"]
        _, plugin = run_cli([*base, "--method", "plugin"], tmp_path, "plugin.csv")
        code, text = run_cli([*base, "--method", method], tmp_path, f"{method}.csv")
        assert code == 0
        mu_plugin = float(plugin.splitlines()[1].split(",")[1])
        assert mu_plugin == pytest.approx(5.4433, abs=1e-4)
        assert float(text.splitlines()[1].split(",")[1]) == mu_plugin

    @pytest.mark.parametrize("model, counts, method", [
        ("t3", "0,0,5", "aic"), ("t3", "0,0,5", "uo"), ("t1", "5,0,0", "plugin"),
        ("t1:2", "0,5,0", "consistent")])
    def test_counts_at_vertex_take_the_far_limit(self, tmp_path, model, counts, method):
        # the estimate at a vertex lies at distance +inf, where the bias is 2
        code, text = run_cli(["bias", "--model", model, "--counts", counts,
                              "--method", method], tmp_path)
        assert code == 0
        row = next(csv.DictReader(text.splitlines()))
        assert (row["mu0y"], row["bias"]) == ("inf", "2")

    def test_t3_nonconvergence_exit_3(self, tmp_path, capsys):
        # where a quadrature rule pair once missed its tolerance (exit 3): the
        # closed form checks none, so exit 0 with the plane's value
        code, text = run_cli(["bias", "--model", "t3", "--mu0y", "1"], tmp_path)
        assert code == 0 and capsys.readouterr().err == ""
        fields = text.splitlines()[1].split(",")
        assert fields[2] == "closed-form"
        alpha0 = alpha_from_phi0(phi_from_mu0y(1.0, 1e6))
        want = ray_cone_bias_dblquad((0.0, 1.0), (0.5 * math.pi, math.pi + alpha0,
                                                  2.0 * math.pi - alpha0))
        assert abs(float(fields[3]) - want) <= 1e-13

    @pytest.mark.parametrize("extra", [[], ["--workers", "1"], ["--workers", "2"],
                                       ["--seed", "3"], ["--seed", "3", "--workers", "2"],
                                       ["--workers", "1", "--n", "100"], ["--n", "100"]])
    def test_settings_hash_leaves_out_unread_options(self, tmp_path, extra):
        # bias draws nothing, so neither workers nor the seed change a value;
        # n sets only a --phi0 distance or a t3 cone angle, and --counts only
        # checks it against their total
        code, text = run_cli(["bias", "--model", "t1", "--mu0y", "1", *extra], tmp_path)
        assert code == 0
        assert text.rstrip().endswith(",c32a2b65509c")
        base = ["bias", "--model", "t1", "--counts", "60,20,20", "--method", "bootstrap"]
        assert run_cli([*base, *extra], tmp_path, "boot.csv") == \
            run_cli(base, tmp_path, "boot0.csv")

    @pytest.mark.parametrize("given, left_out, want", [
        (["--model", "t1", "--counts", "60,20,20", "--method", "plugin"],
         ["--model", "t1", "--counts", "60,20,20"], "729d35980eaa"),
        (["--model", "t1", "--counts", "60,20,20", "--eta-exponent", "0.3333333333333333"],
         ["--model", "t1", "--counts", "60,20,20"], "729d35980eaa"),
        (["--model", "t1", "--counts", "60,20,20", "--method", "uo", "--radius", "0"],
         ["--model", "t1", "--counts", "60,20,20", "--method", "uo"], None),
        (["--model", "t3", "--mu0y", "1", "--n", "1000000"],
         ["--model", "t3", "--mu0y", "1"], "85c676f975e9"),
    ], ids=["method-plugin", "eta-exponent", "radius-0", "n-1000000"])
    def test_settings_hash_leaves_out_options_at_their_default(self, tmp_path, given, left_out,
                                                                want):
        # an option given at the value that the run takes without it is the
        # same run, so it hashes as if it were left out
        got = run_cli(["bias", *given], tmp_path, "given.csv")
        assert got[0] == 0
        assert got == run_cli(["bias", *left_out], tmp_path, "left_out.csv")
        if want is not None:
            assert got[1].rstrip().endswith("," + want)

    def test_settings_hash_keeps_angles_and_n_where_read(self, tmp_path):
        # a half-lines id's rays, the n of a --phi0 distance and the n of a
        # t3 cone angle set the value, so they stay in the hash
        def settings_hash(*args):
            return run_cli(["bias", *args], tmp_path)[1].rstrip().rsplit(",", 1)[1]
        assert settings_hash("--model", "halflines:2.8,4.5,2pi", "--mu0y", "1") != \
            settings_hash("--model", "halflines:3.5,2pi", "--mu0y", "1")
        for where in (["--model", "t1", "--phi0", "0.5"], ["--model", "t3", "--mu0y", "1"]):
            assert settings_hash(*where, "--n", "50") != settings_hash(*where, "--n", "60")

    @pytest.mark.parametrize("where", [["--mu0y", "1"], ["--phi0", "0.5", "--n", "30"]])
    @pytest.mark.parametrize("method", ["bogus", "uo", "plugin", "bootstrap", "monte-carlo"])
    def test_method_without_counts_exit_2(self, tmp_path, capsys, where, method):
        # a distance has one bias, its closed form, so no method chooses how
        # to compute it: not even monte-carlo, which only estimated it again
        code, text = run_cli(["bias", "--model", "t1", *where, "--method", method], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert f"--method '{method}' needs --counts" in err and "closed form" in err

    @pytest.mark.parametrize("extra", [["--radius", "3"], ["--eta-exponent", "0.2"],
                                       ["--radius", "3", "--eta-exponent", "0.2"],
                                       ["--radius", "3", "--n", "100"]])
    def test_settings_hash_leaves_out_rule_options_without_counts(self, tmp_path, extra):
        # a rule's radius and rate are read only where a rule scores counts
        code, text = run_cli(["bias", "--model", "t1", "--mu0y", "1", *extra], tmp_path)
        assert code == 0
        assert text.rstrip().endswith(",c32a2b65509c")
        # each option moves the hash of a --counts run whose method reads it
        for option, method in [("--radius", "uo"), ("--eta-exponent", "consistent")]:
            if option in extra:
                counts = ["bias", "--model", "t1", "--counts", "60,20,20", "--method", method]
                assert run_cli([*counts, *extra], tmp_path, "c.csv")[1].rsplit(",", 1)[1] != \
                    run_cli(counts, tmp_path, "c0.csv")[1].rsplit(",", 1)[1]

    @pytest.mark.parametrize("method, extra, want", [
        (None, ["--radius", "3"], "729d35980eaa"),
        (None, ["--eta-exponent", "0.2"], "729d35980eaa"),
        ("uo", ["--eta-exponent", "0.2"], "377a07fda4cb"),
        ("minimax", ["--eta-exponent", "0.2"], None),
        ("consistent", ["--radius", "3"], None),
        ("bootstrap", ["--radius", "3"], None),
        ("llf", ["--radius", "3", "--eta-exponent", "0.2"], None),
    ])
    def test_settings_hash_leaves_out_rule_options_the_method_does_not_read(
            self, tmp_path, method, extra, want):
        # with --counts, only uo and minimax read the radius and only
        # consistent and bootstrap the rate
        base = ["bias", "--model", "t1", "--counts", "60,20,20",
                *(["--method", method] if method else [])]
        got = run_cli([*base, *extra], tmp_path, "given.csv")
        assert got[0] == 0
        assert got == run_cli(base, tmp_path, "left_out.csv")
        if want is not None:
            assert got[1].rstrip().endswith("," + want)

    @pytest.mark.parametrize("model, where", [
        ("t3", ["--mu0y", "1e17", "--n", str(10**23)]),
        ("t3", ["--mu0y", "1e20", "--n", str(10**29)]),
        ("t3", ["--phi0", "1e-300", "--n", "5"]),
        ("halflines:2pi/3,4pi/3,2pi", ["--mu0y", "1e20"]),
    ])
    def test_distance_past_the_window_exit_3(self, tmp_path, capsys, model, where):
        # distances where a quadrature window once lost its width to
        # rounding (exit 3): the closed form gives the limit 2.  A t3
        # distance sets its cone angle at --n, which must be large enough to
        # reach it
        code, text = run_cli(["bias", "--model", model, *where], tmp_path)
        assert code == 0 and capsys.readouterr().err == ""
        fields = text.splitlines()[1].split(",")
        assert fields[-3:-1] == ["closed-form", "2"]

    def test_t3_distance_out_of_reach_at_n_exit_2(self, tmp_path, capsys):
        # as on a target curve: phi0 would fall to 1e-12 or below
        code, text = run_cli(["bias", "--model", "t3", "--mu0y", "1e17"], tmp_path)
        assert code == 2 and text == ""
        assert "unattainable" in capsys.readouterr().err

    @pytest.mark.parametrize("mu, n", [(1.0, 2), (0.3, 30), (2.5, 1000), (1.0, 10**6)])
    def test_t3_cone_angle_follows_n(self, tmp_path, mu, n):
        # bias --mu0y, bias --phi0 at the same point and the target curve's
        # aicg_bias column agree: each takes the cone angle at (mu0y, n)
        phi0 = phi_from_mu0y(mu, n)
        _, by_mu = run_cli(["bias", "--model", "t3", "--mu0y", repr(mu), "--n", str(n)],
                           tmp_path, "mu.csv")
        _, by_phi = run_cli(["bias", "--model", "t3", "--phi0", repr(phi0), "--n", str(n)],
                            tmp_path, "phi.csv")
        _, curve = run_cli(["target", "--model", "t3", "--n", str(n), "--grid",
                            f"{mu!r}:{mu!r}:1", "--samples", "10", "--seed", "1"],
                           tmp_path, "target.csv")
        value = by_mu.splitlines()[1].split(",")[3]
        assert curve.splitlines()[1].split(",")[3] == value
        # mu0y(phi0, n) returns mu only to within a few ulps
        assert float(by_phi.splitlines()[1].split(",")[3]) == pytest.approx(float(value),
                                                                              rel=1e-13)

    def test_large_distance_inside_the_window_keeps_its_bytes(self, tmp_path):
        # the limit 2 exactly, where the quadrature gave 1.9999999897370668
        code, text = run_cli(["bias", "--model", "t3", "--mu0y", "1e8"], tmp_path)
        assert code == 0
        assert text.splitlines()[1] == "t3,100000000,closed-form,2,ed9435d93366"


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
        # --workers is accepted and read by nothing
        base = ["target", "--model", "t1", "--n", "300", "--grid", "0:1:0.5",
                "--samples", "50000", "--seed", "17", "--method", "plugin,uo"]
        _, one = run_cli([*base, "--workers", "1"], tmp_path, "w1.csv")
        _, three = run_cli([*base, "--workers", "3"], tmp_path, "w3.csv")
        assert one == three

    def test_consistent_column_needs_n_3(self, tmp_path, capsys, monkeypatch):
        # the column's radius is consistent_radius, as under bias --counts,
        # and the run fails before anything is drawn
        import aicg.montecarlo

        def refuse(*args):
            raise AssertionError("a stream was opened")
        monkeypatch.setattr(aicg.montecarlo, "_chunk_rng", refuse)
        code, text = run_cli(["target", "--model", "t1", "--n", "2", "--grid", "0:1:1",
                              "--samples", "100", "--seed", "1", "--method", "consistent"],
                             tmp_path)
        assert code == 2 and text == ""
        assert "consistent estimation needs n >= 3" in capsys.readouterr().err
        code, _ = run_cli(["bias", "--model", "t1", "--counts", "1,1,0",
                           "--method", "consistent"], tmp_path, "bias.csv")
        assert code == 2
        assert "consistent estimation needs n >= 3" in capsys.readouterr().err


    @pytest.mark.parametrize("model", ["polytomy", "unconstrained"])
    def test_constant_models_take_every_method(self, tmp_path, model):
        # as select does, a model without a line takes its constant bias
        methods = ["plugin", "aic", "llf", "ulf", "uo", "minimax", "consistent", "bootstrap"]
        code, text = run_cli(["target", "--model", model, "--n", "100", "--grid", "0:0:1",
                              "--samples", "500", "--seed", "1",
                              "--method", ",".join(methods)], tmp_path)
        assert code == 0
        row = next(csv.DictReader(text.splitlines()))
        constant = "0" if model == "polytomy" else "4"
        for method in methods:
            assert (row[method], row[f"{method}_se"]) == (constant, "0")
        code, text = run_cli(["select", "--counts", "34,33,33", "--models", model,
                              "--method", "uo"], tmp_path, "select.csv")
        assert code == 0
        assert float(next(csv.DictReader(
            line for line in text.splitlines() if not line.startswith("#")))["bias"]) \
            == float(constant)

    def test_every_draw_shrunk_exit_0(self, tmp_path):
        # a chunk whose draws all lie inside the consistent radius
        code, text = run_cli(["target", "--model", "t3", "--n", "1000", "--grid", "0:0:1",
                              "--samples", "100", "--seed", "1", "--method", "consistent",
                              "--eta-exponent", "0.01"], tmp_path)
        assert code == 0
        row = next(csv.DictReader(text.splitlines()))
        assert float(row["consistent"]) == pytest.approx(2.8269933431326884, rel=1e-15)
        assert row["consistent_se"] == "0"


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
        # t3's estimate sits at the vertex, an exact fit whose bias is 2
        assert [(r[0], r[2], r[3], r[6], r[8]) for r in rows] == [
            ("t3", "plug-in", "2", "1", ""), ("polytomy", "plug-in", "0", "2", ""),
            ("t1:1", "plug-in", "1", "3", "")]

    @pytest.mark.parametrize("counts", ["0,0,5", "5,0,0", "1,0,0"])
    def test_no_negative_zero(self, tmp_path, counts):
        # the unconstrained fit at a vertex has -2 log L = -2 * 0.0, which
        # once printed as -0 in CSV and -0.0 in JSON
        base = ["select", "--counts", counts, "--models", "t3,polytomy,unconstrained,t1:3"]
        code, text = run_cli(base, tmp_path, "select.csv")
        assert code == 0
        rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
        assert [r["neg2loglik"] for r in rows if r["model"] == "unconstrained"] == ["0"]
        assert all(field != "-0" for r in rows for field in r.values())
        code, text = run_cli([*base, "--format", "json"], tmp_path, "select.json")
        assert code == 0
        doc = json.loads(text)
        assert [r["neg2loglik"] for r in doc["rows"] if r["model_id"] == "unconstrained"] == [0.0]
        assert all(math.copysign(1.0, v) == 1.0 for r in doc["rows"] for v in r.values()
                   if isinstance(v, float) and v == 0.0)

    def test_error_row_with_comma_keeps_header_width(self, tmp_path):
        code, text = run_cli(["select", "--counts", "3,1,1", "--models", "t3,polytomy",
                              "--method", "consistent", "--eta-exponent", "0.7"], tmp_path)
        assert code == 0
        rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
        assert len(rows) == 3 and all(len(r) == len(rows[0]) for r in rows)
        assert rows[2][0] == "t3"
        assert rows[2][-1] == "rate exponent must lie strictly inside (0, 1/2)"

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

    def test_json_rows_carry_the_score_row_fields(self, tmp_path):
        code, text = run_cli(["select", "--counts", "30,20,10", "--models",
                              "t1:1,unconstrained", "--format", "json"], tmp_path)
        assert code == 0
        fields = {"model_id", "neg2loglik", "bias_method", "bias_value", "aicg", "aic",
                  "rank_aicg", "rank_aic", "error"}
        assert [set(row) for row in json.loads(text)["rows"]] == [fields, fields]

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
        want = region_grid(models, 200, 50, EstimatorRule("consistent", eta_exponent=0.1))
        assert want != region_grid(models, 200, 50, EstimatorRule("consistent"))
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
        code, text = run_cli(["radii", "--model", "halflines:2.8,4.5,2pi"], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "t1 and t3 only" in err and "constant bias" not in err

    def test_t3_far_grid_exit_0(self, tmp_path):
        # far out the t3 truth is 2 or just above, so r = 0 stays feasible
        # at the closed form's tolerance
        code, text = run_cli(["radii", "--model", "t3", "--grid", "0:50:1"], tmp_path, "far.json")
        assert code == 0
        code, near = run_cli(["radii", "--model", "t3", "--grid", "0:5:1"], tmp_path, "near.json")
        assert code == 0
        far, near = json.loads(text), json.loads(near)
        assert (far["uo_radius"], far["minimax_radius"]) == (near["uo_radius"],
                                                             near["minimax_radius"])
        assert far["uo_diagnostics"]["violation_tol"] == 1.02e-14

    def test_nonconvergence_exit_3_with_error_json(self, tmp_path, capsys):
        # once a quadrature failure (exit 3 with an error JSON); the closed
        # form has no tolerance to miss, and --abs-tol, which set one, exits 2
        with pytest.raises(SystemExit) as exc:
            main(["radii", "--model", "t3", "--abs-tol", "1e-16",
                  "--out", str(tmp_path / "out.json")])
        assert exc.value.code == 2 and not (tmp_path / "out.json").exists()
        assert "unrecognized arguments: --abs-tol" in capsys.readouterr().err
        code, text = run_cli(["radii", "--model", "t3"], tmp_path)
        assert code == 0 and "error" not in json.loads(text)


def _fresh_process(code):
    src = str(Path(aicg.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})


def _fresh_python(code):
    proc = _fresh_process(code)
    proc.check_returncode()
    return proc.stdout.decode()


class TestImports:
    def test_cli_import_skips_dataclasses_and_openssl(self):
        # dataclasses compile generated code at import, hashlib loads
        # OpenSSL and json compiles its regexes; only settings_hash (bias)
        # needs hashlib, only JSON input or output needs json, and each
        # place that does imports it itself
        code = ("import sys, aicg.cli; print(' '.join(m for m in ('dataclasses', 'hashlib', "
                "'_hashlib', 'json', 'concurrent.futures') if m in sys.modules) or 'none')")
        assert _fresh_python(code).strip() == "none"

    def test_help_loads_numpy_and_every_module(self):
        # --help pays the start-up every subcommand pays, so that timing it
        # measures that shared cost
        code = ("import json, runpy, sys\n"
                "sys.argv = ['aicg', '--help']\n"
                "try:\n    runpy.run_module('aicg.cli', run_name='__main__')\n"
                "except SystemExit:\n    pass\n"
                "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' "
                "or m.startswith('aicg.'))))")
        loaded = json.loads(_fresh_python(code).splitlines()[-1])
        package = Path(aicg.__file__).parent
        modules = {f"aicg.{p.stem}" for p in package.glob("*.py")} - {"aicg.__init__", "aicg.cli"}
        assert "numpy" in loaded
        assert modules <= set(loaded)


class TestProcessExit:
    """run() freezes the collector's heap on every exit path, so that the
    interpreter's shutdown collections skip it; main() leaves it alone."""

    @pytest.mark.parametrize("args, code", [
        (["target", "--model", "t1", "--n", "1000", "--grid", "0:5:0.5", "--samples", "100000",
          "--method", "plugin,uo", "--seed", "1"], 0),
        (["--help"], 0),
        (["target", "--bogus"], 2),  # argparse's exit
        (["bias", "--model", "t9", "--mu0y", "1"], 2),
    ], ids=["target", "help", "unknown-flag", "usage-error"])
    def test_run_exits_frozen_with_main_output(self, args, code, capsys):
        frozen = gc.get_freeze_count()
        try:
            in_process = main(args)
        except SystemExit as exc:
            in_process = exc.code
        assert gc.get_freeze_count() == frozen
        captured = capsys.readouterr()
        probe = ("import atexit, gc, runpy, sys\n"
                 "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
                 f"sys.argv = ['aicg', *{args!r}]\n"
                 "runpy.run_module('aicg.cli', run_name='__main__')\n")
        proc = _fresh_process(probe)
        assert in_process == proc.returncode == code
        assert proc.stdout == captured.out.encode()
        assert proc.stderr == (captured.err + "True\n").encode()


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
        (["radii", "--model", "t1"], "samples"),
        (["select", "--counts", "60,20,20", "--models", "t1:1,polytomy", "--method",
          "bootstrap"], "samples"),
        (["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "60"], "samples"),
        (["bias", "--model", "t1", "--mu0y", "1"], "samples")])
    def test_flags_a_subcommand_does_not_read_exit_2(self, tmp_path, capsys, args, key):
        # only select reads --format; only target draws, so only it takes
        # --samples
        value = "json" if key == "format" else "10"
        with pytest.raises(SystemExit) as exc:
            main([*args, f"--{key}", value, "--out", str(tmp_path / "flag.out")])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code, text = run_cli([*args, "--config", str(cfg)], tmp_path)
        assert code == 2 and text == ""
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["bias", "--model", "t1", "--mu0y", "1"],
        ["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100",
         "--seed", "1"],
        ["select", "--counts", "60,20,20", "--models", "t1:1,polytomy"],
        ["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "60"],
        ["radii", "--model", "t1"]], ids=lambda args: args[0])
    def test_abs_tol_is_gone_exit_2(self, tmp_path, capsys, args):
        # the closed forms read no tolerance and the regions tie tolerance is
        # fixed, so no subcommand takes --abs-tol, as a flag or a config key
        with pytest.raises(SystemExit) as exc:
            main([*args, "--abs-tol", "1e-9", "--out", str(tmp_path / "flag.out")])
        assert exc.value.code == 2
        capsys.readouterr()
        code, text = _config_run(args, tmp_path, {"abs_tol": 1e-9})
        assert code == 2 and text == ""
        assert "unknown key 'abs_tol'" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["bias", "target", "select", "regions", "radii"])
    def test_seed_and_workers_on_every_subcommand(self, cmd):
        from aicg.cli import build_parser
        args = build_parser().parse_args([cmd, "--seed", "3", "--workers", "1"])
        assert (args.seed, args.workers) == (3, 1)


def _config_run(args, tmp_path, config, name="cfg"):
    """run_cli with `config` written to a JSON file and passed by --config."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return run_cli([*args, "--config", str(path)], tmp_path, f"{name}.out")


def _json_value(text):
    """A flag's text as a config file would spell it: a JSON number where
    the text is one, else the string."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if isinstance(value, (int, float)) else text


# one command per subcommand and mode, together passing every option a
# subcommand takes (bar --config and --out, which have their own tests)
PARITY_COMMANDS = [
    ["bias", "--model", "t3", "--mu0y", "1", "--seed", "4", "--workers", "2", "--n", "500"],
    ["bias", "--model", "halflines:2.8,4.5,2pi", "--phi0", "0.5", "--n", "50"],
    ["bias", "--model", "t3", "--counts", "60,25,15", "--method", "consistent", "--radius",
     "0.5", "--n", "100", "--eta-exponent", "0.25"],
    ["target", "--model", "t1", "--n", "100", "--grid", "0:1:0.5", "--samples", "300",
     "--seed", "3", "--workers", "2", "--method", "uo,consistent", "--radius", "0.4",
     "--eta-exponent", "0.3"],
    ["select", "--counts", "60,20,20", "--models", "t1:1,t3,halflines:2pi", "--n", "100", "--method", "bootstrap", "--seed", "2", "--format",
     "json", "--radius", "0.5", "--eta-exponent", "0.25", "--workers", "1"],
    ["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "50", "--method", "uo",
     "--radius", "0.5", "--seed", "1", "--eta-exponent", "0.2", "--workers", "1"],
    ["radii", "--model", "t1", "--n", "1000", "--grid", "0:2:0.5", "--seed", "1",
     "--workers", "1"],
]
PARITY_CASES = [(i, j) for i, args in enumerate(PARITY_COMMANDS)
                for j in range(1, len(args), 2)]


class TestConfigParity:
    """A value given in the config file runs exactly as the same flag."""

    @pytest.mark.parametrize("command, flag", PARITY_CASES,
                             ids=[f"{PARITY_COMMANDS[i][0]}{i}-{PARITY_COMMANDS[i][j][2:]}"
                                  for i, j in PARITY_CASES])
    def test_config_value_runs_as_its_flag(self, tmp_path, capsys, command, flag):
        args = PARITY_COMMANDS[command]
        want = run_cli(args, tmp_path, "flag.out"), capsys.readouterr().err
        rest = args[:flag] + args[flag + 2:]
        config = {args[flag][2:]: _json_value(args[flag + 1])}
        got = _config_run(rest, tmp_path, config), capsys.readouterr().err
        assert want[0][0] == 0
        assert got == want

    @pytest.mark.parametrize("args, config", [
        # the settings_hash of a config-supplied number is the flag's
        (["bias", "--model", "t1", "--mu0y", "1"], {"mu0y": 1}),
        (["bias", "--model", "t1", "--counts", "60,20,20", "--method", "uo", "--radius", "0.5"],
         {"radius": "0.5"}),
        (["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100",
          "--seed", "1", "--method", "uo", "--radius", "0.5"], {"radius": "0.5"}),
        (["select", "--counts", "60,20,20", "--models", "t1:1,polytomy"],
         {"models": ["t1:1", "polytomy"]}),
        (["bias", "--model", "t1", "--counts", "60,20,20", "--eta-exponent", "0.25"],
         {"eta-exponent": 0.25}),
    ])
    def test_config_spellings(self, tmp_path, args, config):
        # a numeric string, a JSON list of model ids and a dashed key
        key = next(iter(config))
        flag = args.index("--" + key.replace("_", "-"))
        want = run_cli(args, tmp_path, "flag.out")
        assert want[0] == 0
        assert _config_run(args[:flag] + args[flag + 2:], tmp_path, config) == want
        if args[0] == "bias" and key == "mu0y":
            assert want[1].rstrip().endswith(",c32a2b65509c")

    def test_out_from_config(self, tmp_path):
        args = ["bias", "--model", "t1", "--mu0y", "1"]
        target = tmp_path / "nested" / "bias.csv"
        _, want = run_cli(args, tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out": str(target)}), encoding="utf-8")
        assert main([*args, "--config", str(config)]) == 0
        assert target.read_text(encoding="utf-8") == want


class TestEdgeInputsExit2:
    """Inputs that ran with a wrong number, or ended in a traceback, exit 2
    with a message naming what was wrong."""

    @pytest.mark.parametrize("args, config, needle", [
        (["bias", "--model", "t1", "--phi0", "0.5"], {"n": 1.7}, "'n'"),
        (["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--seed", "1"],
         {"samples": 2.5}, "'samples'"),
        (["select", "--counts", "10,10,10", "--models", "t1:1"], {"format": "xml"}, "'format'"),
        (["bias", "--model", "t1"], {"mu0y": math.nan}, "'mu0y'"),
        (["bias", "--model", "t1", "--counts", "60,20,20", "--method", "uo"],
         {"radius": "nan"}, "'radius'"),
        # radii's uo slack is fixed, so the key is unknown
        (["radii", "--model", "t1"], {"violation_tol": math.inf}, "'violation_tol'"),
        (["bias", "--model", "t1", "--mu0y", "1"], {"seed": True}, "'seed'"),
        (["bias", "--model", "t1foo", "--mu0y", "1"], None, "unknown model id 't1foo'"),
        (["bias", "--model", "t3", "--mu0y", "1", "--n", "0"], None, "sample size"),
        (["radii", "--model", "t1", "--n", "0"], None, "sample size"),
        (["bias", "--model", "t1", "--mu0y", "1", "--n", "0"], None, "sample size"),
        (["radii", "--model", "t1", "--grid", "0:inf:1"], None, "finite"),
        (["target", "--model", "t1", "--n", "100", "--grid", "0:inf:1", "--samples", "100",
          "--seed", "1"], None, "finite"),
        (["radii", "--model", "t1", "--grid", "0:1e300:1e-300"], None, "too small"),
        (["select", "--counts", "60,20,20", "--models", "t1:1,t1:1,polytomy"], None,
         "model id 't1:1' is repeated"),
        (["select", "--counts", "60,20,20", "--models", "t1,t1:1"], None,
         "model id 't1:1' is repeated"),
        (["regions", "--pair", "t1:1,polytomy,t1", "--n", "60", "--resolution", "50"], None,
         "model id 't1:1' is repeated"),
        (["target", "--model", "t1", "--n", "1000", "--grid", "0:3:1", "--samples", "100",
          "--seed", "3", "--method", "plugin,plugin"], None, "rule method 'plugin' is repeated"),
        (["bias", "--model", "halflines:abc,2pi", "--mu0y", "1"], None,
         "cannot parse angle 'abc'"),
        (["bias", "--model", "halflines:2pi/0", "--mu0y", "1"], None,
         "cannot parse angle '2pi/0'"),
        (["bias", "--model", "halflines:2.8,x,2pi", "--mu0y", "1"], None,
         "cannot parse angle 'x'"),
        (["bias", "--model", "t1:x", "--mu0y", "1"], None, "'x'"),
        (["bias", "--model", "t3", "--phi0", "0.5", "--n", "1" + "0" * 400], None,
         "too large"),
        (["bias", "--model", "t1:1x", "--mu0y", "1"], None, "t1 topology '1x'"),
        (["bias", "--model", "t1", "--counts", "60,20,20", "--method", "monte-carlo",
          "--seed", "1"], None, "unknown estimator method 'monte-carlo'"),
        # one draw has no standard error, so it must not print one of 0
        (["target", "--model", "t1", "--n", "1000", "--grid", "0:1:1", "--samples", "1",
          "--method", "plugin,uo", "--seed", "3"], None, "samples must be at least 2"),
        (["target", "--model", "t1", "--n", "1000", "--grid", "0:1:1", "--seed", "3"],
         {"samples": 1}, "samples must be at least 2"),
        (["target", "--model", "t3", "--n", "1000", "--grid", "0:1:1", "--samples", "1",
          "--seed", "3"], None, "samples must be at least 2"),
        (["target", "--model", "t3", "--n", "1000", "--grid", "0:1:1", "--method", "plugin",
          "--seed", "3"], {"samples": 1}, "samples must be at least 2"),
        (["target", "--model", "t1", "--n", "1000", "--grid", "0:1:1", "--seed", "3"],
         {"samples": 0}, "samples must be at least 2"),
        # bias draws nothing: it takes neither --method monte-carlo nor --samples
        (["bias", "--model", "t1", "--mu0y", "1", "--method", "monte-carlo", "--seed", "3"],
         None, "with --mu0y or --phi0 the bias is its closed form"),
        (["bias", "--model", "t3", "--phi0", "0.5", "--n", "30"], {"method": "monte-carlo"},
         "--method 'monte-carlo' needs --counts"),
        (["bias", "--model", "t1", "--mu0y", "1", "--seed", "3"], {"samples": 1000},
         "unknown key 'samples'"),
        # a stop below the start once gave the one start point
        (["target", "--model", "t1", "--n", "100", "--grid", "5:0:1", "--samples", "100",
          "--seed", "1"], None, "grid stop must not lie below its start"),
        (["radii", "--model", "t3", "--grid", "5:0:0.05"], None,
         "grid stop must not lie below its start"),
        # a model that cannot be scored once lost every point to the others
        (["regions", "--pair", "t1:1,halflines:2pi", "--n", "60", "--resolution", "50"], None,
         "cannot score halflines:6.28318530718: half-lines models have no simplex"),
        (["regions", "--pair", "t1:1,polytomy", "--n", "2", "--resolution", "50", "--method",
          "consistent"], None, "cannot score t1:1: consistent estimation needs n >= 3"),
        # a half-lines model is named inline, so no subcommand takes an angles key
        (["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100",
          "--seed", "1"], {"angles": "2pi"}, "unknown key 'angles'"),
        (["select", "--counts", "60,20,20", "--models", "t1:1,halflines"], {"angles": "2pi"},
         "unknown key 'angles'"),
        (["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "50"],
         {"angles": "2pi"}, "unknown key 'angles'"),
        (["radii", "--model", "t1"], {"angles": "2pi"}, "unknown key 'angles'"),
        # a bare halflines id names the inline form, which every subcommand takes
        (["select", "--counts", "60,20,20", "--models", "t1:1,halflines"], None,
         "give them inline, as halflines:2.8,4.5,2pi"),
        (["radii", "--model", "halflines"], None, "give them inline, as halflines:2.8,4.5,2pi"),
        # polytomy's one generating point is the centroid: once a grid beyond
        # it named a theta0 the user never gave
        (["target", "--model", "polytomy", "--n", "10", "--grid", "0:1:1", "--samples", "10",
          "--seed", "1"], None,
         "polytomy's only generating point is the centroid, mu0y = 0; "
         "the grid reaches mu0y = 1.0"),
        # bias takes no angles key either
        (["bias", "--model", "halflines:2pi", "--mu0y", "0"], {"angles": "3.5,2pi"},
         "unknown key 'angles'"),
        # unconstrained has one spelling
        (["select", "--counts", "60,20,20", "--models", "t1:1,u"], None,
         "unknown model id 'u'"),
    ])
    def test_exit_2(self, tmp_path, capsys, args, config, needle):
        code, text = (run_cli(args, tmp_path) if config is None
                      else _config_run(args, tmp_path, config))
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert needle in err

    @pytest.mark.parametrize("args, flag", [
        (["bias", "--model", "t1", "--mu0y", "nan"], "--mu0y"),
        (["bias", "--model", "t1", "--counts", "60,20,20", "--method", "uo", "--radius", "nan"],
         "--radius"),
        (["bias", "--model", "t1", "--mu0y", "inf"], "--mu0y"),
        (["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100",
          "--seed", "1", "--eta-exponent=-inf"], "--eta-exponent"),
    ])
    def test_non_finite_flag_exit_2(self, tmp_path, capsys, args, flag):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(tmp_path / "out.txt")])
        assert exc.value.code == 2
        assert f"argument {flag}: not a finite number" in capsys.readouterr().err

    def test_removed_violation_tol_flag_exit_2(self, tmp_path, capsys):
        # radii's uo slack is fixed, as radius 0 is always feasible
        with pytest.raises(SystemExit) as exc:
            main(["radii", "--model", "t3", "--violation-tol", "nan",
                  "--out", str(tmp_path / "out.json")])
        assert exc.value.code == 2 and not (tmp_path / "out.json").exists()
        assert "unrecognized arguments: --violation-tol nan" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["target", "--model", "t1", "--n", "100", "--grid", "0:1:1", "--samples", "100",
         "--seed", "1"],
        ["select", "--counts", "60,20,20", "--models", "t1:1,halflines"],
        ["regions", "--pair", "t1:1,polytomy", "--n", "60", "--resolution", "50"],
        ["radii", "--model", "t1"],
        ["bias", "--model", "halflines:2pi", "--mu0y", "0"]], ids=lambda args: args[0])
    def test_angles_flag_outside_bias_exit_2(self, tmp_path, capsys, args):
        # a half-lines model's rays are given inline, in its id, so no
        # subcommand takes --angles, bias included
        with pytest.raises(SystemExit) as exc:
            main([*args, "--angles", "2pi", "--out", str(tmp_path / "flag.out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --angles 2pi" in capsys.readouterr().err


def _capped_cli(args):
    """One CLI run in a fresh interpreter capped at 1 GiB of address space,
    so that a grid built past its bound ends in a MemoryError at once
    instead of loading the machine.  One BLAS thread keeps numpy's own
    address space small on any core count."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    src = str(Path(aicg.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "aicg.cli", *args], capture_output=True,
                          text=True, preexec_fn=cap,
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                          timeout=300)


class TestOversizedInputsExit2:
    """A grid or lattice too large to hold is refused before it is built."""

    def test_a_normal_run_fits_the_cap(self):
        proc = _capped_cli(["target", "--model", "t1", "--n", "10", "--grid", "0:1:0.5",
                            "--samples", "10", "--seed", "1"])
        assert proc.returncode == 0 and proc.stderr == ""

    @pytest.mark.parametrize("args, needle", [
        (["target", "--model", "t1", "--n", "10", "--grid", "0:1:1e-9", "--samples", "10",
          "--seed", "1"], "grid of 1000000000 points exceeds the 10000 allowed"),
        (["radii", "--model", "t1", "--grid", "0:5:1e-7"],
         "grid of 50000001 points exceeds the 10000 allowed"),
        (["regions", "--n", "200", "--resolution", "100000", "--pair", "t1:1,polytomy"],
         "resolution 100000 gives 5000149998 lattice points, above the 1000000 allowed"),
        (["regions", "--n", "200", "--resolution", "1413", "--pair", "t1:1,polytomy"],
         "resolution 1413 gives 1000402 lattice points"),
    ], ids=["target-grid", "radii-grid", "regions-resolution", "regions-first-refused"])
    def test_oversized_exit_2(self, args, needle):
        proc = _capped_cli(args)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert needle in proc.stderr and "Traceback" not in proc.stderr

    def test_the_bounds_are_point_counts(self, tmp_path):
        from aicg.montecarlo import _MAX_GRID_POINTS, grid_values
        from aicg.selection import simplex_lattice
        assert len(grid_values(0.0, _MAX_GRID_POINTS - 1.0, 1.0)) == _MAX_GRID_POINTS
        with pytest.raises(DomainError, match="exceeds"):
            grid_values(0.0, float(_MAX_GRID_POINTS), 1.0)
        # the count that regions refuses is the lattice's size
        for resolution in (50, 51):
            code, text = run_cli(["regions", "--n", "200", "--resolution", str(resolution),
                                  "--pair", "t1:1,polytomy"], tmp_path)
            assert code == 0
            assert len(text.splitlines()) - 1 == len(simplex_lattice(resolution)) == \
                (resolution + 1) * (resolution + 2) // 2 - 3


class TestOutputDiscipline:
    def test_lf_endings_and_trailing_newline(self, tmp_path):
        _, text = run_cli(["bias", "--model", "t1", "--mu0y", "0.5"], tmp_path)
        assert "\r" not in text and text.endswith("\n")

    def test_seventeen_significant_digits(self, tmp_path):
        _, text = run_cli(["bias", "--model", "t1", "--mu0y", "0.3"], tmp_path)
        bias_field = text.splitlines()[1].split(",")[3]
        mantissa = bias_field.replace(".", "").lstrip("0")
        assert len(mantissa) == 17
