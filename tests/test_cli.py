"""Command-line contract: exit codes, record schemas, determinism."""

import csv
import hashlib
import io
import json
import math
import re
import warnings
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest

import latgauss.lattice
import latgauss.minkowski
from latgauss.balancing import MAX_EXHAUSTIVE
from latgauss.cli import _COMMANDS, build_parser, main

BALL = json.dumps({"kind": "ball", "dim": 2, "radius": 1.2, "center": [0.0, 0.0]})
Z2 = json.dumps({"basis": [[1.0, 0.0], [0.0, 1.0]]})
BALL3 = json.dumps({"kind": "ball", "dim": 3, "radius": 1.2})
COSET2 = json.dumps({"basis": [[1.0, 0.2], [0.1, 1.1]], "offset": [0.4, -0.3]})
OFF_CENTER_BALL = json.dumps({"kind": "ball", "dim": 2, "radius": 1.5, "center": [0.3, 0.0]})
NO_GAUGE = "gauge needs a centrally symmetric body, got ball"

BETA_GOLDEN = (
    '{"check": "beta", "convention": "coefficients are reciprocal semiaxes: '
    'E = {x : sum((alpha_i*x_i)^2) <= 1}", "formula_value": 2.0639767440550294, '
    '"n": 3, "radius": 1.735215669447505, "restarts": 2, "seed": 5, '
    '"witness": [0.08247309656671839, -0.15152980803112812, 0.9850060434437681, '
    '-0.512128361534789, 0.7310262885383735, 0.4509158533224387, '
    '0.5185074010841572, 0.7334840858047855, 0.43948967097313124]}\n')

# sha256 of whole JSON record streams, pinned from the code in which every
# certificate site wrote "estimate -/+ 3 half-widths" by hand; theorem-n1
# and the ellipsoid and H-polytope profiles were pinned again when every 1-d
# body got its exact interval measure and profile slices came to share a draw;
# every profile was pinned again when its identity came to be summed with its
# own Simpson weights (identity_lhs, _residual and _tol move in the last bits);
# the two ellipsoid profiles were pinned again when Ruben's series made their
# slices and bodies exact; theorem-n2 and the two H-polytope profiles were
# pinned again when Owen's T made polygons exact (the n = 2 polytope trials
# calibrate and certify exactly, the 2-d profile spans its vertices and
# measures its body exactly, and the 3-d profile measures its slices exactly);
# theorem-n3 and the two 3-d H-polytope profiles were pinned again when a 3-d
# H-polytope came to be measured by its Ehrhard bracket (the n = 3 polytope
# trials certify by it, and the profiles take its value and their rigorous
# identity tolerance); theorem-n3 and theorem-n4 were pinned again when the
# n >= 3 H-polytope trials came to calibrate on a 2^12-point gauge draw
# (their scales, measures and margins move); theorem-n1 and theorem-n2 were
# pinned again when the n <= 2 H-polytope trials came to calibrate on that
# draw too, in place of their closed-form root; theorem-n1 to theorem-n4 were
# pinned again when every H-polytope trial came to aim the pair bound of its
# slabs at a target drawn from U(0.505, 0.8), with no draw (their scales,
# measures and margins move, and the n = 4 trials certify by the correlation
# bracket)
THEOREM = ("check-theorem", "--trials", "10", "--seed", "7", "--n")
PROFILE = ("w-profile", "--seed", "3", "--body")
R2 = json.dumps({"basis": [[1.0, 0.5], [0.3, 1.7]]})
R3 = json.dumps({"basis": [[1.1, 0.2, -0.3], [0.1, 0.9, 0.4], [-0.2, 0.3, 1.2]]})
R6 = json.dumps({"basis": [[-1.119, -3.796, -3.488, 3.981, 0.346, -1.287],
                           [-1.105, 0.545, -2.164, 1.17, 1.358, 0.223],
                           [0.902, 4.573, 0.241, 0.034, -0.766, 0.473],
                           [-0.326, -4.037, -1.592, 2.585, -0.292, -0.995],
                           [1.032, 5.947, 0.718, -0.623, -0.534, 0.622],
                           [-1.106, 1.436, 0.673, 1.752, -0.482, 0.137]]})
# symmetric H-polytope input bodies of the balancing digests
HEXAGON = json.dumps({"kind": "hpolytope", "dim": 2, "offsets": [1.2] * 6,
                      "normals": [[1, 0], [0, 1], [0.6, 0.8], [-1, 0], [0, -1], [-0.6, -0.8]]})
OBLIQUE_3D = json.dumps({"kind": "hpolytope", "dim": 3, "offsets": [1.1, 0.9, 1.3, 1.2] * 2,
                         "normals": [[1, 0.3, -0.2], [0.2, 1, 0.5], [-0.4, 0.1, 1],
                                     [0.7, 0.7, 0.1], [-1, -0.3, 0.2], [-0.2, -1, -0.5],
                                     [0.4, -0.1, -1], [-0.7, -0.7, -0.1]]})
STREAM_DIGESTS = {
    "theorem-n1": (THEOREM + ("1",),
                   "616e6d82982f99ac6f4cbf5ba65b4b9bdf31087f74210faed28c1a120d2a353f"),
    "theorem-n2": (THEOREM + ("2",),
                   "4bfbfda79f482302231495dd601eecb1336353ae31b1272b369a1574e6f4b24a"),
    "theorem-n3": (THEOREM + ("3",),
                   "b134024484fce7d81f883bb0e02e1ab1a6d115118e943ce70457253afc6f5720"),
    "theorem-n4": (THEOREM + ("4",),
                   "73a0cc10b0c9fa1fb09ced31cf30e146e047f2ef48c0573bb1ec59a0883e38c2"),
    "lemma": (("check-lemma", "--trials", "8", "--seed", "7", "--max-dim", "6"),
              "615fdbc6df9513b1328da3ad69be36fcc576827351c82fade54efdcef53acdcf"),
    "ehrhard": (("check-ehrhard", "--trials", "8", "--seed", "7", "--max-dim", "6"),
                "b5de48042724d6ca0cb9a898a10633c40971d3cc1bfd72281ae413cdee34e871"),
    "w-profile-ball-2d": (PROFILE + (BALL,),
                          "f178030847e2bc62bb791fbd8a573efd21b3e1a9f1a3c9a7b9c26928956158c8"),
    "w-profile-box-3d": (
        PROFILE + (json.dumps({"kind": "axis_box", "dim": 3, "semiwidths": [0.9, 1.3, 1.7]}),),
        "ffe47491889be681fab666a31a6267e8d30ab83107ff515be074c8b5dc147c75"),
    "w-profile-ellipsoid-2d": (
        PROFILE + (json.dumps({"kind": "ellipsoid", "dim": 2, "semiaxes": [0.8, 1.9]}),),
        "a01295632b30bd4768accbc2341fa20cc513d505cc7d3a6c78cefb3dfe23d59e"),
    "w-profile-hpolytope-2d": (
        PROFILE + (json.dumps({"kind": "hpolytope", "dim": 2, "offsets": [1.2] * 6,
                               "normals": [[1, 0], [0, 1], [0.6, 0.8],
                                           [-1, 0], [0, -1], [-0.6, -0.8]]}),),
        "a5624c284cba2399d6a853993147b83057c1a7ce22fc8b4a12060460f76e0e8a"),
    "w-profile-ellipsoid-3d": (
        PROFILE + (json.dumps({"kind": "ellipsoid", "dim": 3, "semiaxes": [0.8, 1.9, 1.3]}),),
        "6e8bbbbdf8a32d36ca0871da5276eeecc820e0be8667425fad945bd331425a95"),
    # 3-d polytope profiles measure their polygon slices by Owen's T and
    # bracket their body
    "w-profile-hpolytope-3d": (
        PROFILE + (json.dumps({"kind": "hpolytope", "dim": 3, "offsets": [1.2] * 8,
                               "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0, 0.8],
                                           [-1, 0, 0], [0, -1, 0], [0, 0, -1],
                                           [-0.6, 0, -0.8]]}),),
        "c10203346fe94133ba56f4029b97315f2408b3ef4cbd0f40d72e4e9109e5de49"),
    # pinned while H-polytope slices still carried interior points: the 4-d
    # profile scores its 3-d slices by Monte Carlo, and every nonempty slice
    # of the thin slab took a Chebyshev-center LP
    "w-profile-hpolytope-4d": (
        PROFILE + (json.dumps({"kind": "hpolytope", "dim": 4, "offsets": [1.2] * 10,
                               "normals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                           [0, 0, 0, 1], [0.6, 0, 0, 0.8],
                                           [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0],
                                           [0, 0, 0, -1], [-0.6, 0, 0, -0.8]]}),),
        "6431cfd6dc73e6a2f38bca25cd82e31e6217950f510a518b66bc6d1c2f5e161d"),
    "w-profile-hpolytope-thin-3d": (
        PROFILE + (json.dumps({"kind": "hpolytope", "dim": 3,
                               "offsets": [1e-7, 1e-7, 1.0, 1.0, 1.0, 1.0],
                               "normals": [[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5], [0.0, 1.0, 0.0],
                                           [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                                           [0.0, 0.0, -1.0]]}),),
        "0e990b978a8078a2e0c14de1764b22d5049d8429d8ed518d0227ac141eeb9ad4"),
    # lattice and balancing commands, pinned before their preconditions moved
    # into the bodies' gauge_many and Lattice
    "minima-3d": (("minima", "--lattice", R3),
                  "cedb398a23d60b1935bcad9a1d3adbe3a2eaf279ce0c109eb7a559ff6a255fa5"),
    "minima-ellipsoid": (
        ("minima", "--lattice", R2, "--gauge-body",
         json.dumps({"kind": "ellipsoid", "dim": 2, "semiaxes": [0.6, 1.4]})),
        "b4cfa797006df15b2c6ab762cbc723cecdb32e5700f396b3f8d165c0a218cb08"),
    "cvp-3d": (("cvp", "--lattice", R3, "--target", "0.3,-0.4,2.2"),
               "97b1b8ddc76acaca44a0447f8612940f5621c75577e9d04bff36e4269a69ebf3"),
    # a unimodular scramble of a Gaussian 6-d basis, which LLL swaps and
    # size-reduces many times; pinned while every LLL step redid the whole
    # Gram-Schmidt and the spiral order sorted on two keys per coordinate
    "minima-6d": (("minima", "--lattice", R6),
                  "83002148ecc58e64faf7d5f19c82450c5cce2a318f03348eccf02af71c15cb62"),
    "cvp-6d": (("cvp", "--lattice", R6, "--target", "2.7,-1.3,0.4,3.1,-0.8,1.9"),
               "031ad251e9516863221f8fb433e9b66a66f1b0403563349543e2a14ae095ebbe"),
    "covering-ball": (("covering", "--lattice", R2, "--body", BALL),
                      "228073189fad82c025c6bba69e5240aaeaa06cafa9dc3c88781211ac4edc6dc2"),
    "alpha-search": (("alpha-search", "--n", "2", "--restarts", "2", "--resolution", "6",
                      "--seed", "7"),
                     "96db89fa12e02231e5a2a611db9b2ba990aeac2b8644cb4aeae12354e5245e95"),
    "beta-alphas": (("beta", "--n", "2", "--alphas", "0.7,1.6", "--restarts", "4",
                     "--seed", "7"),
                    "c56b664f4328bc2af0752fb5ae29815b87ae7cf68ca13378ae1473585e8a471a"),
    # balancing searches of eight and two restarts, pinned while each restart
    # ran on its own; the curve is digested without its wall-clock field
    "beta-hpolytope-4d": (
        ("beta", "--n", "4", "--restarts", "8", "--seed", "7", "--v-body",
         json.dumps({"kind": "hpolytope", "dim": 4, "offsets": [0.5] * 12,
                     "normals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                                 [0.6, 0, 0, 0.8], [0, 0.6, 0.8, 0],
                                 [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1],
                                 [-0.6, 0, 0, -0.8], [0, -0.6, -0.8, 0]]})),
        "3844ceb66db8e9270db2000b292c94f15c707a037addd3b186ca5d39143251fa"),
    "beta-curve": (("beta", "--curve", "--n", "6", "--restarts", "2", "--seed", "7"),
                   "4cf650d0a2b33b58d33b92188807f74494c1001ef6211e00e69702795a23d7d8"),
    # polytope input bodies, pinned when a polytope's one-row gauge came to
    # be computed as two equal rows: both streams moved in the last bits then
    "beta-hpolytope-input-n1": (("beta", "--n", "1", "--restarts", "8", "--seed", "5",
                                 "--u-body", HEXAGON, "--v-body", HEXAGON),
                                "93bce474407c90c6adeee0edda6b2ee1a2a225f9a88adfb53c1eeaef365648b0"),
    "beta-hpolytope-input-n3": (("beta", "--n", "3", "--restarts", "8", "--seed", "19",
                                 "--u-body", OBLIQUE_3D),
                                "951f22a67ea15427028cf3bb5ccbec7a54ef700caab00518d7f7d8d509ec4c44"),
    # an ellipsoid past SERIES_TERM_CAP, whose slices are scored by Monte
    # Carlo; pinned while each scored slice was still built as a body
    "w-profile-ellipsoid-past-cap": (
        ("w-profile", "--seed", "7", "--body",
         json.dumps({"kind": "ellipsoid", "dim": 3, "semiaxes": [0.674, 67.4, 1.0]})),
        "d3fd95d98f5f90844a37d3ab9b3500d6f7be3b5f81a0650e21fead9a62ef64bd"),
}

WALL_CLOCK = re.compile(r', "elapsed": [^,}]*')

# one small invocation of every subcommand
CSV_ARGV = [
    ("theta",),
    ("measure", "--body", BALL),
    ("minima", "--lattice", json.dumps({"basis": [[2, 1], [0, 3]]})),
    ("covering", "--lattice", Z2, "--body", BALL, "--resolution", "4"),
    ("cvp", "--lattice", Z2, "--target", "0.3,0.4"),
    ("check-theorem", "--n", "2", "--trials", "2"),
    ("check-lemma", "--trials", "2", "--samples", "2000"),
    ("check-ehrhard", "--trials", "2"),
    ("w-profile", "--body", BALL, "--grid-size", "21", "--emit-grid"),
    ("sharpness",),
    ("beta", "--n", "2", "--restarts", "1"),
    ("alpha-search", "--n", "2", "--restarts", "1", "--resolution", "4"),
    ("cube-curve", "--n-values", "1,2"),
]


def _disk_measure(radius, cx, cy):
    """Standard Gaussian measure of the disk of ``radius`` about (cx, cy),
    by mpmath quadrature over x of the density times the chord's measure."""
    r, cx, cy = mpmath.mpf(radius), mpmath.mpf(cx), mpmath.mpf(cy)

    def chord(x):
        h = mpmath.sqrt(max(r**2 - (x - cx) ** 2, 0))
        return mpmath.npdf(x) * (mpmath.ncdf(cy + h) - mpmath.ncdf(cy - h))
    return mpmath.quad(chord, [cx - r, cx, cx + r])


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

    @pytest.mark.parametrize("doc, source", [
        ({"kind": "axis_box", "semiwidths": []}, "got 0 from semiwidths"),
        ({"kind": "ball", "radius": 1, "center": []}, "got 0 from center"),
        ({"kind": "space", "dim": 2.5}, "got 2.5 from the space body document's dim"),
        ({"kind": "space", "dim": True}, "got True from the space body document's dim"),
        ({"kind": "ball", "radius": 1, "dim": True}, "got True from the ball body document's dim"),
        ({"kind": "ball", "radius": 1, "center": [0.0], "dim": True},
         "got True from the ball body document's dim"),
    ], ids=["box-no-semiwidths", "ball-empty-center", "space-float-dim", "space-bool-dim",
            "ball-bool-dim", "ball-centre-and-bool-dim"])
    def test_body_without_a_positive_integer_dimension_is_exit_one(self, doc, source, capsys):
        code, out = run_cli("measure", "--body", json.dumps(doc))
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.endswith(f"dimension must be an integer >= 1, {source}\n")

    @pytest.mark.parametrize("bad", [
        {"normals": [[1.0, math.nan], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]},
        {"offsets": [1.0, 1.0, math.inf, 1.0]},
    ], ids=["nan-normal", "inf-offset"])
    @pytest.mark.parametrize("argv", [
        ("measure", "--body"),
        ("minima", "--lattice", Z2, "--gauge-body"),
        ("covering", "--lattice", Z2, "--body"),
        ("check-theorem", "--coset", Z2, "--body"),
        ("w-profile", "--body"),
        ("beta", "--n", "2", "--u-body"),
        ("beta", "--n", "2", "--v-body"),
    ], ids=["measure", "minima", "covering", "check-theorem", "w-profile",
            "beta-u", "beta-v"])
    def test_non_finite_polytope_is_exit_one(self, argv, bad, capsys):
        doc = {"kind": "hpolytope", "dim": 2,
               "normals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
               "offsets": [1.0, 1.0, 1.0, 1.0], **bad}
        code, out = run_cli(*argv, json.dumps(doc))
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert "must be finite" in err and "Traceback" not in err

    def test_alpha_search_without_dimension_is_exit_one(self, capsys):
        code, out = run_cli("alpha-search", "--n", "0")
        assert code == 1 and out == ""
        assert "n must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("check-theorem", "--n", "0"), "n must be at least 1, got 0"),
        (("check-lemma", "--max-dim", "1"), "max_dim must be at least 2, got 1"),
        (("check-ehrhard", "--max-dim", "0"), "max_dim must be at least 1, got 0"),
        (("beta", "--restarts", "0"), "restarts must be at least 1"),
        (("alpha-search", "--restarts", "0"), "restarts must be at least 1"),
        (("check-theorem", "--n", "2", "--trials", "-2"), "trials must be at least 0, got -2"),
        (("check-lemma", "--trials", "-2"), "trials must be at least 0, got -2"),
        (("check-ehrhard", "--trials", "-2"), "trials must be at least 0, got -2"),
        (("check-theorem", "--n", "2", "--trials", "5", "--samples", "10"),
         "samples must be at least 1000, got 10"),
        (("check-lemma", "--trials", "8", "--samples", "10"),
         "samples must be at least 1000, got 10"),
    ], ids=["theorem-n", "lemma-max-dim", "ehrhard-max-dim", "beta-restarts",
            "alpha-restarts", "theorem-trials", "lemma-trials", "ehrhard-trials",
            "theorem-samples", "lemma-samples"])
    def test_out_of_range_argument_is_named(self, argv, message, capsys):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("check-theorem", "--body", BALL, "--coset",
          '{"basis": [[1, 0.3], [0, 1]], "offset": [1e17, 0.25]}'), "beyond float64"),
        (("check-theorem", "--body", BALL, "--coset",
          '{"basis": [[1, 0.3], [0, 1]], "offset": [Infinity, 0]}'), "offset entries must be"),
        (("check-theorem", "--body", BALL, "--coset",
          '{"basis": [[1, 0.3], [0, 1]], "offset": [NaN, 0]}'), "offset entries must be"),
        (("cvp", "--lattice", Z2, "--target=1e300,0"), "beyond float64"),
        (("cvp", "--lattice", Z2, "--target=inf,0"), "target entries must be finite"),
        (("minima", "--lattice", '{"basis": [[1e200, 0], [0, 1]]}'), "Gram matrix overflows"),
    ], ids=["far-offset", "inf-offset", "nan-offset", "far-target", "inf-target",
            "gram-overflow"])
    def test_far_or_non_finite_input_is_exit_one(self, argv, message, capsys):
        # rounding at 1e17 moves coset points off the body and would fake a violation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("check-theorem", "--body", BALL3, "--coset", COSET2),
         "body dimension 3 does not match coset dimension 2"),
        (("check-theorem", "--body", BALL3.replace("1.2", "2.0"), "--coset", COSET2),
         "body dimension 3 does not match coset dimension 2"),
        (("check-theorem", "--body", BALL, "--coset", COSET2, "--n", "4"), "--n sets the suite"),
        (("check-theorem", "--body", BALL, "--coset", COSET2, "--trials", "5"),
         "--trials sets the suite size"),
        (("covering", "--lattice", R2, "--body", BALL, "--resolution", "100000"),
         "resolution 100000"),
        (("beta", "--n", "2", "--alphas", "1,0"), "alphas must be a vector of positive"),
        (("beta", "--curve", "--alphas", "0.5,3"), "--curve fixes its bodies and cannot take --alphas"),
        (("beta", "--n", "2", "--alphas", "0.5,3", "--v-body",
          json.dumps({"kind": "axis_box", "dim": 2, "semiwidths": [0.5, 0.5]})),
         "--alphas fixes both bodies and cannot take --v-body"),
        (("minima", "--lattice", R2, "--gauge-body", OFF_CENTER_BALL), NO_GAUGE),
        (("covering", "--lattice", R2, "--body", OFF_CENTER_BALL), NO_GAUGE),
        (("beta", "--n", "2", "--v-body", OFF_CENTER_BALL, "--restarts", "1"), NO_GAUGE),
    ], ids=["theorem-dims-inconclusive-body", "theorem-dims-large-body", "theorem-instance-n",
            "theorem-instance-trials",
            "covering-grid-cap", "beta-zero-alpha", "beta-curve-alphas", "beta-alphas-v-body",
            "minima-off-center", "covering-off-center", "beta-off-center"])
    def test_rejected_input_is_exit_one(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    def test_memory_error_is_exit_one(self, monkeypatch, capsys):
        def exhausted(args, out):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setitem(_COMMANDS, "theta", exhausted)
        code, out = run_cli("theta")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert "Unable to allocate" in err and "Traceback" not in err

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
        ("check-ehrhard", "--samples", "2000"),
    ], ids=["tail-eps", "interval-tol", "quad-tol", "ehrhard-samples"])
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        code, out = run_cli(*argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [8, 30], ids=["minima", "coset-search"])
    def test_node_cap_hit_in_suite_is_inconclusive(self, cap, monkeypatch, capsys):
        # both caps stop the coset search: a seeded basis certifies lambda_n
        # without enumerating (test_lambda_n_cap_hit_is_inconclusive below)
        monkeypatch.setattr(latgauss.lattice, "DEFAULT_NODE_CAP", cap)
        code, out = run_cli("check-theorem", "--n", "3", "--trials", "5", "--seed", "7")
        assert code == 0 and capsys.readouterr().err == ""
        *trials, summary = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["verdict"] for r in trials] == ["inconclusive"] * 5
        assert all("enumeration cap hit" in r["note"] for r in trials)
        assert summary["inconclusive"] == 5 and summary["verdict"] == "inconclusive"

    def test_lambda_n_cap_hit_is_inconclusive(self, monkeypatch, capsys):
        # neither 3*I nor its LLL basis is within theta, so lambda_n is enumerated
        monkeypatch.setattr(latgauss.lattice, "DEFAULT_NODE_CAP", 1)
        coset = json.dumps({"basis": [[3.0, 0.0], [0.0, 3.0]], "offset": [0.0, 0.0]})
        code, out = run_cli("check-theorem", "--body", BALL, "--coset", coset)
        assert code == 0 and capsys.readouterr().err == ""
        rec = json.loads(out)
        assert rec["verdict"] == "inconclusive"
        assert rec["note"].startswith("lambda_n not certified")

    def test_empty_suite_summary_is_inconclusive(self):
        code, out = run_cli("check-theorem", "--n", "2", "--trials", "0")
        assert code == 0
        assert json.loads(out)["verdict"] == "inconclusive"

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
        # header, trials, then the summary's own header and row
        assert "verdict" in header and len(lines) == 1 + 3 + 2

    @pytest.mark.parametrize("argv, check, field, value", [
        (("check-ehrhard", "--trials", "3"), "ehrhard-summary", "holds", "3"),
        (("w-profile", "--body", BALL, "--grid-size", "21", "--emit-grid"),
         "w-profile", "verdict", "holds"),
    ], ids=["suite-summary", "w-profile"])
    def test_csv_last_record_keeps_its_fields(self, argv, check, field, value):
        code, out = run_cli(*argv, "--format", "csv")
        assert code == 0
        *_, header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["check"] == check and record[field] == value

    @pytest.mark.parametrize("argv", CSV_ARGV, ids=lambda argv: argv[0])
    def test_csv_for_every_subcommand(self, argv, capsys):
        code, out = run_cli(*argv, "--format", "csv")
        assert code in (0, 2) and capsys.readouterr().err == ""
        _, json_out = run_cli(*argv)
        rows = csv.reader(io.StringIO(out))
        header = None
        for line in json_out.splitlines():
            record = json.loads(line)
            row = next(rows)
            if row == sorted(record):
                header, row = row, next(rows)
            assert header == sorted(record)
            for name, cell in zip(header, row):
                value = record[name]
                if isinstance(value, list) and value and isinstance(value[0], list):
                    assert json.loads(cell) == value  # a matrix cell is its JSON text
                elif isinstance(value, list):
                    assert cell == ";".join(repr(float(x)) for x in value)
        assert next(rows, None) is None

    def test_csv_covers_every_subcommand(self):
        assert {argv[0] for argv in CSV_ARGV} == set(_COMMANDS)

    # (document, its measure by an independent reference)
    EXACT_MEASURES = [
        (BALL, lambda: 1 - mpmath.exp(-mpmath.mpf(1.2)**2 / 2)),
        ('{"kind": "space", "dim": 2}', lambda: 1),
        # off-centre 1-d ball: the interval [-0.3, 1.1]
        ('{"kind": "ball", "dim": 1, "radius": 0.7, "center": [0.4]}',
         lambda: mpmath.ncdf(1.1) - mpmath.ncdf(-0.3)),
        # off-centre 2-d ball: the noncentral chi-square CDF, against a quadrature
        (OFF_CENTER_BALL, lambda: _disk_measure(1.5, 0.3, 0.0)),
        # the box [0.5, 1.5] x [-1, 1] as facets that leave the origin out,
        # so its interior point comes from the Chebyshev LP
        ('{"kind": "hpolytope", "dim": 2, "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]], '
         '"offsets": [1.5, -0.5, 1, 1]}',
         lambda: (mpmath.ncdf(1.5) - mpmath.ncdf(0.5)) * (2 * mpmath.ncdf(1) - 1)),
    ]

    def test_measure_exact_record(self):
        for doc, want in self.EXACT_MEASURES:
            code, out = run_cli("measure", "--body", doc, "--method", "exact")
            rec = json.loads(out)
            assert code == 0 and rec["method"] == "exact", doc
            with mpmath.workdps(30):
                assert rec["value"] == pytest.approx(float(want()), abs=1e-12), doc

    @pytest.mark.parametrize("doc, named, method", [
        # a 3-d H-polytope gets its Ehrhard bracket
        ({"kind": "hpolytope", "dim": 3, "offsets": [1.0] * 6,
          "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]},
         "3-d hpolytope", "bracket"),
        # aspect 100: Ruben's series would need more terms than its cap
        ({"kind": "ellipsoid", "dim": 2, "semiaxes": [0.674, 67.4]}, "2-d ellipsoid",
         "monte-carlo"),
    ], ids=["hpolytope-3d", "ellipsoid-2d"])
    def test_measure_without_closed_form(self, doc, named, method, capsys):
        code, out = run_cli("measure", "--body", json.dumps(doc), "--method", "exact")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert f"no closed form for a {named}" in err and "Traceback" not in err
        code, out = run_cli("measure", "--body", json.dumps(doc), "--method", "auto",
                            "--samples", "4096")
        assert code == 0 and json.loads(out)["method"] == method

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

    @pytest.mark.parametrize("cap, flag", [("PROFILE_GRID_CAP", "--grid-size"),
                                           ("PROFILE_SAMPLES_CAP", "--samples")])
    def test_w_profile_cap_is_exit_one(self, cap, flag, monkeypatch, capsys):
        monkeypatch.setattr(latgauss.minkowski, cap, 1000)
        code, out = run_cli("w-profile", "--body", BALL, flag, "1001")
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert f"{flag[2:].replace('-', '_')} must be at most 1000, got 1001" in err

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

    @pytest.mark.parametrize("extra", [(), ("--curve",)])
    def test_beta_past_exhaustive_cap_names_n_before_any_search(self, extra, capsys):
        # the curve would otherwise search every n below the cap first
        code, out = run_cli("beta", "--n", str(MAX_EXHAUSTIVE + 1), *extra)
        assert code == 1 and out == ""
        assert f"--n must be at most {MAX_EXHAUSTIVE}" in capsys.readouterr().err

    def test_beta_unbounded_axis_box_input_is_exit_one(self, capsys):
        # every probe direction has a positive gauge, so only the body's
        # circumradius shows that it is unbounded
        box = json.dumps({"kind": "axis_box", "dim": 2, "semiwidths": [1, "inf"]})
        code, out = run_cli("beta", "--n", "2", "--restarts", "2", "--u-body", box)
        assert code == 1 and out == ""
        assert "bounded input body" in capsys.readouterr().err

    def test_beta_unbounded_3d_polytope_input_is_exit_one(self, capsys):
        # a strip in 3-d: no probe direction has gauge 0, so only its
        # circumradius, inf from its flat dual hull, shows that it is unbounded
        strip = json.dumps({"kind": "hpolytope", "dim": 3, "offsets": [1, 1, 1, 1],
                            "normals": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]})
        code, out = run_cli("beta", "--n", "3", "--restarts", "2", "--seed", "7",
                            "--u-body", strip)
        assert code == 1 and out == ""
        assert "bounded input body" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["minima", "covering", "beta", "check-theorem"])
    def test_nearly_flat_dual_hull_is_read_unbounded(self, command, capsys):
        # bounded but about 1e14 long: Qhull rejects its nearly flat dual hull,
        # which reads as unbounded, as the hull margin reads its neighbours
        rows = np.random.default_rng(0).standard_normal((4, 3)) * [1.0, 1.0, 1e-14]
        body = {"kind": "hpolytope", "dim": 3, "normals": np.vstack([rows, -rows]).tolist(),
                "offsets": [1.0] * 8}
        z3 = {"basis": np.eye(3).tolist()}
        code, out = run_cli(*{
            "minima": ("minima", "--lattice", json.dumps(z3), "--gauge-body", json.dumps(body)),
            "covering": ("covering", "--lattice", json.dumps(z3), "--body", json.dumps(body)),
            "beta": ("beta", "--n", "3", "--restarts", "2", "--u-body", json.dumps(body)),
            "check-theorem": ("check-theorem", "--body", json.dumps({**body, "offsets": [3.0] * 8}),
                              "--coset", json.dumps({**z3, "offset": [0.5, 0.5, 0.5]})),
        }[command])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command == "check-theorem":
            assert code == 0 and json.loads(out)["verdict"] == "holds"
        else:
            assert code == 1 and out == ""
            assert f"latgauss {command}:" in err

    def test_beta_interval_input_is_searched(self):
        # an interval's circumradius is its farther end, so it is searched
        interval = json.dumps({"kind": "hpolytope", "dim": 1, "normals": [[1], [-1]],
                               "offsets": [1, 1]})
        box = json.dumps({"kind": "axis_box", "dim": 1, "semiwidths": [0.5]})
        code, out = run_cli("beta", "--n", "2", "--restarts", "3", "--seed", "7",
                            "--u-body", interval, "--v-body", box)
        assert code == 0
        assert json.loads(out)["radius"] == 0.0

    def test_beta_unbounded_input_body_is_exit_one(self, capsys):
        space = json.dumps({"kind": "space", "dim": 2})
        code, out = run_cli("beta", "--n", "2", "--u-body", space)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert "bounded input body" in err
        assert "Traceback" not in err

    def test_beta_record_golden(self):
        # pinned from the search that scans one probe at a time
        code, out = run_cli("beta", "--n", "3", "--alphas", "0.7,1.1,1.6",
                            "--restarts", "2", "--seed", "5")
        assert code == 0
        assert out == BETA_GOLDEN

    def test_thin_slab_profile_holds(self):
        # its 2e-7 slab takes no hit of a 2^16-point Monte Carlo draw, which
        # read a false violation; its Ehrhard bracket holds the true 3.5e-8
        code, out = run_cli(*STREAM_DIGESTS["w-profile-hpolytope-thin-3d"][0])
        rec = json.loads(out)
        assert code == 0 and rec["verdict"] == "holds"
        assert rec["identity_residual"] <= rec["identity_tol"] < 1e-8

    @pytest.mark.parametrize("name", STREAM_DIGESTS)
    def test_record_stream_digest(self, name):
        argv, digest = STREAM_DIGESTS[name]
        _, out = run_cli(*argv)
        out = WALL_CLOCK.sub("", out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("flag, dim", [("minima", 2), ("covering", 2),
                                           ("minima", 3), ("covering", 3)],
                             ids=["minima", "covering", "minima-3d", "covering-3d"])
    def test_bounded_polygon_gauge_body(self, flag, dim):
        # a polytope's circumradius is its farthest vertex in every
        # dimension, so both commands that need a bounded gauge body accept
        # the square and the cube
        eye = np.eye(dim)
        cube = json.dumps({"kind": "hpolytope", "dim": dim, "offsets": [1.2] * (2 * dim),
                           "normals": np.vstack([eye, -eye]).tolist()})
        lattice = json.dumps({"basis": (eye + 0.5 * np.eye(dim, k=1)).tolist()})
        code, out = run_cli(flag, "--lattice", lattice,
                            "--gauge-body" if flag == "minima" else "--body", cube)
        rec = json.loads(out)
        assert code == 0
        if flag == "minima":
            assert rec["lambdas"] == pytest.approx([1.0 / 1.2] * dim)
        else:
            assert 0.0 < rec["lower"] <= rec["upper"]


class TestCachedParser:
    """The parser is built once per process; no call's arguments reach the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_store_true_flag_does_not_persist(self):
        code, out = run_cli("w-profile", "--body", BALL, "--grid-size", "21", "--emit-grid")
        assert code == 0 and '"w-profile-grid"' in out
        code, out = run_cli("w-profile", "--body", BALL, "--grid-size", "21")
        assert code == 0
        assert [json.loads(line)["check"] for line in out.splitlines()] == ["w-profile"]

    def test_usage_error_after_good_call_is_exit_one(self, capsys):
        assert run_cli("theta")[0] == 0
        code, out = run_cli("theta", "--bogus")
        assert code == 1 and out == ""
        assert "unrecognized arguments" in capsys.readouterr().err
        code, out = run_cli("minima")
        assert code == 1 and out == ""
        assert "--lattice" in capsys.readouterr().err


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
