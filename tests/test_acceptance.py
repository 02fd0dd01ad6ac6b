"""Acceptance gate: one test per criterion, each at its stated tolerance and
runtime budget. Run with `pytest tests/test_acceptance.py -v` for one
pass/fail line per criterion (add -s to see the detail lines).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

import latgauss as lg
from latgauss.minkowski import generate_ratio_instance
from test_cli import run_cli

PRINTED_THETA = 1.3489795


def _report(name, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) {detail}")


def test_c01_theta_reproduction():
    start = time.perf_counter()
    th = lg.theta()
    assert th == pytest.approx(PRINTED_THETA, abs=1e-6)
    assert lg.measure_interval(-th / 2.0, th / 2.0) == pytest.approx(0.5, abs=1e-10)
    quad, _ = integrate.quad(lambda t: math.exp(-t * t / 2.0), 0.0, th / 2.0,
                             epsabs=1e-13)
    assert quad == pytest.approx(math.sqrt(2.0 * math.pi) / 4.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 theta", elapsed, 1, f"theta={th:.9f}")


def test_c02_theorem_suite():
    start = time.perf_counter()
    trials = 1000
    totals = {"holds": 0, "violated": 0, "inconclusive": 0}
    for n in (1, 2, 3, 4):
        for trial, kind, rep in lg.theorem_suite(n, trials, seed=20259 + n):
            totals[rep.verdict] += 1
    total = sum(totals.values())
    assert total == 4 * trials
    assert totals["violated"] == 0
    assert totals["holds"] >= 0.99 * total
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("2 theorem suite", elapsed, 600, f"{totals}")


def test_c03_sharpness():
    start = time.perf_counter()
    th = lg.theta()
    for t in np.linspace(1.001 * th * (1 + 1e-9), 3.0 * th, 20):
        rep = lg.sharpness_witness(float(t))
        assert rep.verdict == "violated" and rep.certificate
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("3 sharpness", elapsed, 1)


def test_c04_lemma_suite():
    start = time.perf_counter()
    cylinder_cases = 0
    for trial, kind, rep in lg.lemma_suite(200, seed=424242):
        est = rep.measure
        # no instance may certify a slice below one half
        assert est.value + 3.0 * est.half_width >= 0.5 - 1e-12, (trial, kind)
        assert rep.verdict == "holds", (trial, kind)
        if kind == "cylinder":
            cylinder_cases += 1
            assert abs(est.value - 0.5) <= 3.0 * est.half_width + 1e-12
    assert cylinder_cases >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("4 lemma suite", elapsed, 300, f"cylinder equality cases: {cylinder_cases}")


def test_c05_ehrhard_suite():
    start = time.perf_counter()
    equality_cases = 0
    for trial, kind, rep in lg.ehrhard_suite(100, seed=31337):
        assert rep.note == "exact", (trial, kind)
        assert rep.margin >= -1e-9, (trial, kind, rep.margin)
        if kind in ("identical", "parallel-halfspaces"):
            equality_cases += 1
            assert abs(rep.margin) < 1e-9, (trial, kind, rep.margin)
    assert equality_cases >= 40
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("5 ehrhard suite", elapsed, 60, f"equality cases: {equality_cases}")


def test_c06_w_construction():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        if i % 4 < 2:
            body = lg.Ball(float(rng.uniform(0.5, 2.2)), dim=n)
        else:
            body = lg.AxisBox(rng.uniform(0.4, 2.0, size=n))
        prof = lg.w_profile(body, grid_size=201, seed=i)
        assert prof.concavity_excess <= 0.0, (i, body.kind)
        assert prof.identity_residual() <= prof.identity_tol, (i, body.kind)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("6 w-construction", elapsed, 300)


def test_c07_corollary_and_cube_curve():
    start = time.perf_counter()
    th = lg.theta()
    bound = 1.0 / th
    # 100 seeded (lattice, body) pairs across n <= 3
    for trial in range(100):
        n = trial % 3 + 1
        kind, body, lattice, inst_seed = generate_ratio_instance(n, 555, trial)
        ratio = lg.corollary_ratio(lattice, body, resolution=9, seed=inst_seed)
        lower, upper = lg.covering_radius(lattice, body, 9)
        lam = lg.nth_minimum(lattice, lg.Ball(1.0, dim=n))
        assert ratio <= bound + (upper - lower) / lam + 1e-12, (trial, n, kind, ratio)
    # tight slab construction reproduces the bound itself
    slab_ratio = lg.corollary_ratio(lg.Lattice(np.eye(2)),
                                    lg.AxisBox([th / 2.0, math.inf]))
    assert slab_ratio == pytest.approx(bound, abs=1e-6)
    # cube scaling curve
    (n1, s1), = lg.cube_scaling_curve([1])
    assert s1 == pytest.approx(th, abs=1e-9)
    ns = np.arange(2, 10**6 + 1, dtype=np.int64)
    ratios = lg.cube_scale(ns) / np.sqrt(np.log(ns))
    assert float(ratios.min()) >= 1.5 and float(ratios.max()) <= 4.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("7 corollary + cube curve", elapsed, 120,
            f"slab ratio {slab_ratio:.9f}, cube ratio range "
            f"[{ratios.min():.3f}, {ratios.max():.3f}]")


def test_c08_lattice_oracles():
    start = time.perf_counter()
    for n in (1, 2, 3):
        lower, upper = lg.covering_radius(lg.Lattice(np.eye(n)), lg.Ball(1.0, dim=n), 8)
        assert lower <= math.sqrt(n) / 2.0 <= upper
    lam, _ = lg.successive_minima(lg.Lattice(np.eye(2)), lg.Ball(1.0, dim=2))
    assert np.allclose(lam, [1.0, 1.0])

    rng = np.random.default_rng(808)
    for _ in range(100):
        while True:
            basis = rng.uniform(-1.5, 1.5, size=(2, 2))
            if abs(np.linalg.det(basis)) > 0.3:
                break
        lat = lg.Lattice(basis)
        offset = rng.uniform(-1, 1, size=2)
        center = rng.uniform(-2, 2, size=2)
        radius = float(rng.uniform(0.5, 2.0))
        target = rng.uniform(-3, 3, size=2)

        # coset enumeration vs brute-force double loop
        pts = lg.enumerate_coset_in_ball(lg.Coset(lat, offset), center, radius)
        brute = []
        for i in range(-40, 41):
            for j in range(-40, 41):
                p = i * basis[0] + j * basis[1] + offset
                if np.linalg.norm(p - center) <= radius + 1e-9:
                    brute.append(((i, j), p))
        assert len(pts) == len(brute)
        assert sorted(map(tuple, np.round(pts, 6))) == \
            sorted(tuple(np.round(p, 6)) for _, p in brute)

        # CVP vs brute force with the same lexicographic tie rule
        point, coeff = lg.closest_vector(lat, target, return_coefficients=True)
        cand = [(i, j) for i in range(-40, 41) for j in range(-40, 41)]
        dists = {c: np.linalg.norm(c[0] * basis[0] + c[1] * basis[1] - target)
                 for c in cand}
        dmin = min(dists.values())
        want = sorted(c for c, d in dists.items() if d <= dmin + 1e-9)[0]
        assert tuple(coeff) == want
        assert np.linalg.norm(point - target) == pytest.approx(dmin, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("8 lattice oracles", elapsed, 120)


def test_c09_ellipsoid_formulas():
    start = time.perf_counter()
    # 1-d convention resolution: brute force decides which reading is right
    a = 2.0  # body semiaxis
    plain = lg.Ellipsoid([a])
    brute = min(plain.gauge([s * 1.0]) for s in (1, -1))
    assert brute == pytest.approx(1.0 / a)          # NOT the printed alpha = a
    assert brute == pytest.approx(lg.beta_ellipsoid_formula([1.0 / a]))

    rng = np.random.default_rng(909)
    checked = 0
    for i in range(10):
        n = 1 if i % 2 == 0 else 2
        alphas = rng.uniform(0.5, 2.0, size=n)
        body = lg.ellipsoid_for_formula(alphas)
        formula = lg.beta_ellipsoid_formula(alphas)
        radius, _ = lg.beta_lower_bound_search(n, lg.Ball(1.0, dim=n), body,
                                               restarts=40, seed=i)
        assert radius >= 0.95 * formula, (i, alphas, radius, formula)
        assert radius <= formula + 1e-9, (i, alphas, radius, formula)
        checked += 1
    assert checked == 10

    # alpha lower bounds never exceed beta bounds on the same pair
    for n, seed in ((1, 4), (2, 5)):
        u = lg.Ball(1.0, dim=n)
        v = lg.AxisBox(np.full(n, 0.5))
        alpha, _ = lg.alpha_lower_bound_search(n, u, v, restarts=6, seed=seed,
                                               resolution=8)
        beta, _ = lg.beta_lower_bound_search(n, u, v, restarts=24, seed=seed)
        assert alpha <= beta + 1e-6, (n, alpha, beta)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("9 ellipsoid formulas", elapsed, 600)


def test_c10_determinism():
    start = time.perf_counter()
    commands = [
        ("theta",),
        ("check-theorem", "--n", "2", "--trials", "8", "--seed", "99"),
        ("check-lemma", "--trials", "5", "--seed", "3", "--samples", "4000"),
        ("check-ehrhard", "--trials", "8", "--seed", "3"),
        ("sharpness", "--t-factor", "1.05"),
        ("w-profile", "--body",
         json.dumps({"kind": "ball", "dim": 2, "radius": 1.1, "center": [0, 0]}),
         "--grid-size", "101"),
        ("w-profile", "--body",
         json.dumps({"kind": "hpolytope", "dim": 3,
                     "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0],
                                 [-1, 0, 0], [0, -1, 0], [0, 0, -1], [-0.6, -0.8, 0]],
                     "offsets": [1.1] * 8})),
        ("cube-curve", "--n-values", "1,2,64,4096"),
        ("beta", "--n", "1", "--alphas", "0.8", "--restarts", "4", "--seed", "2"),
        ("alpha-search", "--n", "1", "--restarts", "2", "--seed", "2"),
        ("covering", "--lattice", json.dumps({"basis": [[1, 0], [0, 1]]}),
         "--body", json.dumps({"kind": "ball", "dim": 2, "radius": 1.0}),
         "--resolution", "6"),
    ]
    for argv in commands:
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2
        assert out1 == out2 and out1, argv
    elapsed = time.perf_counter() - start
    _report("10 determinism", elapsed, 60, f"{len(commands)} commands byte-stable")
