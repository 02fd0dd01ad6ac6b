"""Command-line contract: exit codes, record schemas, determinism."""

import io
import json
import math
import warnings
from contextlib import redirect_stdout

import pytest

import latgauss.lattice
from latgauss.cli import main

BALL = json.dumps({"kind": "ball", "dim": 2, "radius": 1.2, "center": [0.0, 0.0]})
Z2 = json.dumps({"basis": [[1.0, 0.0], [0.0, 1.0]]})


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestExitCodes:
    def test_theta_ok(self):
        code, out = run_cli("theta")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(1.3489795, abs=1e-6)

    def test_sharpness_violation_is_exit_two(self):
        code, _ = run_cli("sharpness", "--t-factor", "1.05")
        assert code == 2

    def test_sharpness_expected_violation_is_exit_zero(self):
        code, out = run_cli("sharpness", "--t-factor", "1.05", "--expect-violation")
        assert code == 0
        assert json.loads(out)["verdict"] == "violated"

    def test_unknown_command_is_exit_one(self):
        code, _ = run_cli("frobnicate")
        assert code == 1

    def test_malformed_body_is_exit_one(self):
        code, _ = run_cli("measure", "--body", '{"kind": "nonsense", "dim": 2}')
        assert code == 1

    @pytest.mark.parametrize("doc", [
        {"kind": "ball", "dim": 2, "radius": "x"},
        {"kind": "halfspace", "normal": [1, 0], "offset": None},
        {"kind": "space", "dim": "2"},
    ])
    def test_wrong_typed_body_field_is_exit_one(self, doc, capsys):
        code, out = run_cli("measure", "--body", json.dumps(doc))
        assert code == 1 and out == ""
        assert f"{doc['kind']} body document" in capsys.readouterr().err

    def test_alpha_search_without_dimension_is_exit_one(self, capsys):
        code, out = run_cli("alpha-search", "--n", "0")
        assert code == 1 and out == ""
        assert "n must be at least 1, got 0" in capsys.readouterr().err

    def test_zero_basis_row_is_named(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli("minima", "--lattice", json.dumps({"basis": [[0, 0], [0, 1]]}))
        assert code == 1 and out == ""
        assert "basis row 0 is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("minima", "--lattice", Z2),
        ("cvp", "--lattice", Z2, "--target", "0.3,0.4"),
        ("covering", "--lattice", Z2, "--body", BALL),
    ], ids=["minima", "cvp", "covering"])
    def test_node_cap_hit_is_exit_one(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(latgauss.lattice, "DEFAULT_NODE_CAP", 1)
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert "enumeration node cap exceeded" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("check-theorem", "--n", "2", "--tail-eps", "1e-6"),
        ("theta", "--interval-tol", "1e-3"),
        ("theta", "--quad-tol", "1e-3"),
    ], ids=["tail-eps", "interval-tol", "quad-tol"])
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        code, out = run_cli(*argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_dimension_mismatch_is_exit_one(self):
        code, _ = run_cli("cvp", "--lattice", Z2, "--target", "1.0,2.0,3.0")
        assert code == 1

    def test_check_suite_all_holds_exit_zero(self):
        code, out = run_cli("check-theorem", "--n", "2", "--trials", "5", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["holds"] == 5 and summary["violated"] == 0

    def test_check_theorem_suite_at_low_sample_count(self):
        # hpolytope bodies must certify at any --samples the CLI accepts
        code, out = run_cli("check-theorem", "--n", "3", "--trials", "50", "--samples", "4096")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["violated"] == 0
        assert summary["inconclusive"] == 0

    def test_check_theorem_explicit_instance(self):
        # the tight slab instance: witness sits exactly on the boundary
        theta = 1.348979500392164
        slab = json.dumps({"kind": "axis_box", "dim": 2,
                           "semiwidths": [theta / 2, float("inf")]})
        coset = json.dumps({"basis": [[theta, 0.0], [0.0, theta]],
                            "offset": [theta / 2, theta / 2]})
        code, out = run_cli("check-theorem", "--body", slab, "--coset", coset)
        assert code == 0
        rec = json.loads(out)
        assert rec["verdict"] == "holds"
        assert abs(rec["margin"]) < 1e-9

    def test_check_theorem_body_without_coset_rejected(self):
        code, _ = run_cli("check-theorem", "--body", BALL)
        assert code == 1


class TestRecords:
    def test_json_lines_round_trip(self):
        code, out = run_cli("check-theorem", "--n", "2", "--trials", "4", "--seed", "3")
        assert code == 0
        for line in out.strip().splitlines():
            rec = json.loads(line)
            assert "check" in rec and "verdict" in rec

    def test_csv_has_header_and_rows(self):
        code, out = run_cli("check-lemma", "--trials", "3", "--seed", "2",
                            "--format", "csv", "--samples", "2000")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert "verdict" in header and len(lines) == 1 + 3 + 1  # header, trials, summary

    def test_measure_exact_record(self):
        code, out = run_cli("measure", "--body", BALL, "--method", "exact")
        rec = json.loads(out)
        assert rec["method"] == "exact"
        assert rec["value"] == pytest.approx(1 - math.exp(-1.2**2 / 2), abs=1e-12)

    def test_minima_record(self):
        code, out = run_cli("minima", "--lattice", Z2)
        rec = json.loads(out)
        assert rec["lambdas"] == [1.0, 1.0]

    def test_covering_record(self):
        code, out = run_cli("covering", "--lattice", Z2, "--body", BALL,
                            "--resolution", "8")
        rec = json.loads(out)
        assert rec["lower"] <= math.sqrt(2) / 2 / 1.2 <= rec["upper"]

    def test_cube_curve_ratio_field(self):
        code, out = run_cli("cube-curve", "--n-values", "1,2,100")
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert recs[0]["ratio_to_sqrt_log"] is None
        assert 1.5 <= recs[2]["ratio_to_sqrt_log"] <= 4.0

    def test_beta_formula_metadata(self):
        code, out = run_cli("beta", "--n", "1", "--alphas", "0.7", "--restarts", "2",
                            "--seed", "0")
        rec = json.loads(out)
        assert rec["formula_value"] == pytest.approx(0.7)
        assert "reciprocal semiaxes" in rec["convention"]

    def test_w_profile_record(self):
        code, out = run_cli("w-profile", "--body", BALL, "--grid-size", "101")
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["verdict"] == "holds"
        assert rec["identity_residual"] <= rec["identity_tol"]

    def test_w_profile_coarse_grid_box_holds(self):
        # at 51 slices |S_h - S_2h| nearly cancels on this box, so the error
        # estimate also needs the coarser difference to cover the residual
        box = json.dumps({"kind": "axis_box", "dim": 2,
                          "semiwidths": [1.3904961298422887, 1.853211111112718]})
        code, out = run_cli("w-profile", "--body", box, "--grid-size", "51",
                            "--seed", "751109276")
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"

    def test_beta_curve_emits_data_records(self):
        # ball-vs-cube lower-bound curve: data only, no asserted trend
        code, out = run_cli("beta", "--curve", "--n", "5", "--restarts", "2",
                            "--seed", "1")
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert [r["n"] for r in recs] == [1, 2, 3, 4, 5]
        assert all(r["radius"] > 0 for r in recs)
        assert all("elapsed" in r and "restarts" in r for r in recs)
        assert recs[0]["radius"] == pytest.approx(2.0, abs=1e-9)  # 1-d worst case

    @pytest.mark.parametrize("extra", [(), ("--curve",)])
    def test_beta_without_vectors_names_n(self, extra, capsys):
        code, out = run_cli("beta", "--n", "0", *extra)
        assert code == 1 and out == ""
        assert "--n" in capsys.readouterr().err

    def test_beta_curve_csv_schema(self):
        code, out = run_cli("beta", "--curve", "--n", "2", "--restarts", "2",
                            "--seed", "1", "--format", "csv")
        header = out.splitlines()[0].split(",")
        for fieldname in ("n", "radius", "seed", "restarts", "elapsed"):
            assert fieldname in header

    def test_body_document_from_file(self, tmp_path):
        path = tmp_path / "body.json"
        path.write_text(BALL)
        code, out = run_cli("measure", "--body", str(path), "--method", "exact")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            1 - math.exp(-1.2**2 / 2), abs=1e-12)

    def test_w_profile_emit_grid(self):
        code, out = run_cli("w-profile", "--body", BALL, "--grid-size", "51",
                            "--emit-grid")
        lines = out.strip().splitlines()
        grid = [json.loads(l) for l in lines[:-1]]
        assert all(r["check"] == "w-profile-grid" for r in grid)
        xs = [r["x"] for r in grid]
        assert xs == sorted(xs) and len(xs) > 10

    def test_minima_with_gauge_body(self):
        ellipse = json.dumps({"kind": "ellipsoid", "dim": 2, "semiaxes": [1.0, 3.0]})
        code, out = run_cli("minima", "--lattice", Z2, "--gauge-body", ellipse)
        rec = json.loads(out)
        # shortest in this gauge is the long axis direction: gauge 1/3
        assert rec["lambdas"][0] == pytest.approx(1.0 / 3.0)
        assert rec["lambdas"][1] == pytest.approx(1.0)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("theta",),
        ("check-theorem", "--n", "2", "--trials", "5", "--seed", "99"),
        ("check-lemma", "--trials", "4", "--seed", "5", "--samples", "2000"),
        ("check-ehrhard", "--trials", "6", "--seed", "5"),
        ("sharpness", "--t-factor", "1.2"),
        ("cube-curve", "--n-values", "1,2,8,64"),
        ("beta", "--n", "2", "--restarts", "3", "--seed", "1"),
        ("measure", "--body", BALL, "--method", "mc", "--samples", "4000", "--seed", "3"),
    ])
    def test_byte_identical_reruns(self, argv):
        _, out1 = run_cli(*argv)
        _, out2 = run_cli(*argv)
        assert out1 == out2 and out1
