"""Harness checks: coset intersection, sharpness, slices, interpolation, profiles."""

import math

import numpy as np
import pytest

import latgauss as lg
import latgauss.lattice
from latgauss.minkowski import (DEFAULT_TAIL_EPS, _RECERT_SIGMAS, _recertifiable_target,
                                 generate_theorem_instance)


class TestRandomThetaLattice:
    def test_seed_stable(self):
        a = lg.random_theta_lattice(3, 42)
        b = lg.random_theta_lattice(3, 42)
        assert np.array_equal(a.basis, b.basis)

    def test_norm_window(self):
        th = lg.theta()
        for seed in range(5):
            lat = lg.random_theta_lattice(4, seed)
            norms = np.linalg.norm(lat.basis, axis=1)
            assert np.all(norms <= th + 1e-12)
            assert np.all(norms > 0.3 * th - 1e-12)

    def test_postcondition_nth_minimum(self):
        th = lg.theta()
        for n in range(1, 5):
            for seed in range(5):
                lat = lg.random_theta_lattice(n, seed)
                assert lg.nth_minimum(lat, lg.Ball(1.0, dim=n)) <= th + 1e-9

    def test_1d(self):
        th = lg.theta()
        lat = lg.random_theta_lattice(1, 7)
        t = abs(lat.basis[0, 0])
        assert 0.3 * th < t <= th


class TestFindCosetPoint:
    def test_1d_tight_case(self):
        th = lg.theta()
        coset = lg.Coset(lg.Lattice([[th]]), [th / 2.0])
        body = lg.AxisBox([th / 2.0])
        res = lg.find_coset_point_in_body(coset, body)
        assert res.status == "found"
        assert abs(abs(res.point[0]) - th / 2.0) < 1e-12  # boundary witness

    def test_2d_halfspace_expected_point(self):
        th = lg.theta()
        coset = lg.Coset(lg.Lattice(th * np.eye(2)), np.array([th / 2.0, th / 2.0]))
        body = lg.Halfspace([1.0, 0.0], 0.0)
        res = lg.find_coset_point_in_body(coset, body)
        assert res.status == "found"
        assert np.allclose(res.point, [-th / 2.0, th / 2.0], atol=1e-12)

    def test_calibrated_ball_instance(self):
        # oracle: exhaustive enumeration at small radius must agree
        lat = lg.random_theta_lattice(2, 3)
        coset = lg.Coset(lat, np.array([0.3, -0.2]))
        body = lg.Ball(lg.calibrate_scale(lg.Ball(1.0, dim=2), 0.5), dim=2)
        res = lg.find_coset_point_in_body(coset, body)
        assert res.status == "found"
        pts = lg.enumerate_coset_in_ball(coset, np.zeros(2), body.radius)
        assert any(np.allclose(res.point, p, atol=1e-9) for p in pts)

    def test_empty_certificate_for_bounded_body(self):
        th = lg.theta()
        # lattice too sparse for the tiny ball around the deep hole
        coset = lg.Coset(lg.Lattice(10.0 * np.eye(2)), np.array([5.0, 5.0]))
        res = lg.find_coset_point_in_body(coset, lg.Ball(1.0, dim=2))
        assert res.status == "empty"
        assert "complete enumeration" in res.note

    def test_unbounded_miss_truncated_at_eight_times_truncation(self):
        # every coset point has |x| >= 1/2, outside the thin unbounded slab
        body = lg.AxisBox([0.01, math.inf])
        coset = lg.Coset(lg.Lattice(np.eye(2)), np.array([0.5, 0.0]))
        res = lg.find_coset_point_in_body(coset, body)
        assert res.status == "truncated" and res.point is None
        assert res.radius == pytest.approx(8.0 * lg.bounding_radius(body, DEFAULT_TAIL_EPS))

    def test_node_cap_hit_is_truncated(self, monkeypatch):
        monkeypatch.setattr(latgauss.lattice, "DEFAULT_NODE_CAP", 1)
        coset = lg.Coset(lg.Lattice(np.eye(2)), np.array([0.5, 0.5]))
        res = lg.find_coset_point_in_body(coset, lg.Ball(0.6, dim=2))
        assert res.status == "truncated" and res.point is None
        assert "enumeration cap" in res.note


class TestTheoremCheck:
    def test_halfspace_holds(self):
        body = lg.Halfspace([0.0, 1.0], 0.0)
        coset = lg.Coset(lg.random_theta_lattice(2, 5), np.array([0.7, -1.1]))
        rep = lg.check_theorem_instance(body, coset, seed=5)
        assert rep.verdict == "holds"
        assert body.contains(rep.witness)

    def test_tight_slab_boundary_witness(self):
        th = lg.theta()
        body = lg.AxisBox([th / 2.0, math.inf])
        coset = lg.Coset(lg.Lattice(th * np.eye(2)), np.array([th / 2.0, th / 2.0]))
        rep = lg.check_theorem_instance(body, coset, seed=1)
        assert rep.verdict == "holds"
        assert rep.margin == pytest.approx(0.0, abs=1e-9)  # witness on the boundary

    def test_non_theta_coset_rejected(self):
        body = lg.Halfspace([1.0, 0.0], 0.0)
        coset = lg.Coset(lg.Lattice(3.0 * np.eye(2)), np.zeros(2))
        with pytest.raises(ValueError):
            lg.check_theorem_instance(body, coset)

    def test_small_measure_inconclusive_or_regenerated(self):
        small = lg.Ball(0.3, dim=2)  # measure well below 1/2
        coset = lg.Coset(lg.random_theta_lattice(2, 9), np.zeros(2))
        rep = lg.check_theorem_instance(small, coset, seed=9)
        assert rep.verdict == "inconclusive"

    def test_monotone_in_body(self):
        # a witness in V certifies any V' that contains V
        body = lg.Ball(1.2, dim=2)
        bigger = lg.Ball(1.5, dim=2)
        coset = lg.Coset(lg.random_theta_lattice(2, 11), np.array([0.4, 0.9]))
        rep = lg.check_theorem_instance(body, coset, seed=11)
        assert rep.verdict == "holds"
        assert bigger.contains(rep.witness)

    def test_translation_equivariance_of_search(self):
        # translating body and offset together moves the witness with them
        # (the measure precondition is NOT translation invariant, so the
        # equivariance claim lives on the search itself)
        shift = np.array([0.8, -0.6])
        body = lg.Ball(1.3, center=[0.0, 0.0])
        lat = lg.random_theta_lattice(2, 13)
        coset = lg.Coset(lat, np.array([0.2, 0.5]))
        res1 = lg.find_coset_point_in_body(coset, body)
        res2 = lg.find_coset_point_in_body(lg.Coset(lat, coset.offset + shift),
                                           body.translate(shift))
        assert res1.status == res2.status == "found"
        assert np.allclose(res1.point + shift, res2.point, atol=1e-9)

    def test_one_reduction_per_trial(self, monkeypatch):
        from latgauss import lattice

        calls = []
        original = lattice.lll_reduce

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(lattice, "lll_reduce", counting)
        coset = lg.Coset(lg.random_theta_lattice(3, 17), np.array([0.3, -0.8, 0.5]))
        rep = lg.check_theorem_instance(lg.Halfspace([0.0, 1.0, 0.0], 0.0), coset, seed=17)
        assert rep.verdict == "holds"
        assert calls == [coset.lattice]

    def test_batch_across_dims(self):
        for n in (1, 2, 3):
            for trial, kind, rep in lg.theorem_suite(n, 10, seed=23):
                assert rep.verdict == "holds", (n, trial, kind, rep.note)


class TestSharpness:
    def test_close_to_threshold(self):
        th = lg.theta()
        rep = lg.sharpness_witness(1.05 * th)
        assert rep.verdict == "violated"
        assert rep.margin == pytest.approx((1.05 * th - th) / 2.0, rel=1e-12)
        assert rep.certificate

    def test_double_step(self):
        th = lg.theta()
        rep = lg.sharpness_witness(2.0 * th)
        assert rep.verdict == "violated"
        assert rep.margin == pytest.approx(th / 2.0, rel=1e-12)

    def test_gap_vanishes_at_threshold(self):
        th = lg.theta()
        gaps = [lg.sharpness_witness(t).margin for t in th * np.array([1.3, 1.1, 1.01])]
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[2] < 0.01

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            lg.sharpness_witness(lg.theta())

    def test_just_above_threshold(self):
        # the gap is tiny but still clears the enumeration tolerance
        th = lg.theta()
        rep = lg.sharpness_witness(1.0001 * th)
        assert rep.verdict == "violated"
        assert rep.margin == pytest.approx(0.00005 * th, rel=1e-9)

    def test_grid(self):
        th = lg.theta()
        for t in np.linspace(1.001 * th, 3.0 * th, 20):
            assert lg.sharpness_witness(float(t)).verdict == "violated"


class TestLemma:
    def test_halfspace_slice_closed_form(self):
        v = np.array([0.6, 0.8, 0.0])
        body = lg.Halfspace(v, 0.5)
        sub = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rep = lg.check_lemma_instance(body, sub, seed=2)
        # slice is a halfspace with normal = projection of v on M
        proj = np.linalg.norm(sub @ v)
        assert rep.verdict == "holds"
        assert rep.measure.method == "exact"
        assert rep.measure.value == pytest.approx(lg.std_normal_cdf(0.5 / proj), abs=1e-12)

    def test_centered_ball_slice_dominates(self):
        body = lg.Ball(lg.calibrate_scale(lg.Ball(1.0, dim=3), 0.6), dim=3)
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 2)))
        rep = lg.check_lemma_instance(body, q.T, seed=3)
        assert rep.verdict == "holds"
        assert rep.measure.value >= 0.6 - 1e-9  # lower dimension only helps

    def test_cylinder_equality_case(self):
        th = lg.theta()
        body = lg.AxisBox([th / 2.0, math.inf, math.inf])
        sub = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rep = lg.check_lemma_instance(body, sub, seed=5)
        assert rep.verdict == "holds"
        assert rep.measure.value == pytest.approx(0.5, abs=3.0 * rep.measure.half_width + 1e-12)

    def test_mc_path_box_rotated_subspace(self):
        body = lg.AxisBox([2.0, 2.0, 2.0])
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 2)))
        rep = lg.check_lemma_instance(body, q.T, samples=20_000, seed=8)
        assert rep.verdict == "holds"
        assert rep.measure.method == "monte-carlo"

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            lg.check_lemma_instance(lg.Ball(2.0, dim=3), np.array([[1.0, 1.0, 0.0]]))

    def test_suite(self):
        for trial, kind, rep in lg.lemma_suite(12, seed=3):
            assert rep.verdict == "holds", (trial, kind)


class TestEhrhard:
    def test_identical_bodies_equality(self):
        body = lg.AxisBox([0.9, 1.4])
        rep = lg.check_ehrhard(body, body, 0.37)
        assert rep.verdict == "holds"
        assert abs(rep.margin) < 1e-9

    def test_parallel_halfspaces_equality(self):
        u = np.array([0.28, -0.96])
        rep = lg.check_ehrhard(lg.Halfspace(u, 0.4), lg.Halfspace(3 * u, -0.9), 0.61)
        assert rep.verdict == "holds"
        assert abs(rep.margin) < 1e-9

    def test_random_boxes_hold_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            a = lg.AxisBox(rng.uniform(0.3, 2.0, size=n))
            b = lg.AxisBox(rng.uniform(0.3, 2.0, size=n))
            rep = lg.check_ehrhard(a, b, 0.5)
            assert rep.note == "exact"
            assert rep.margin >= -1e-9

    def test_endpoint_lambdas(self):
        a, b = lg.Ball(0.7, dim=2), lg.Ball(1.9, dim=2)
        assert lg.check_ehrhard(a, b, 0.0).margin == pytest.approx(0.0, abs=1e-12)
        assert lg.check_ehrhard(a, b, 1.0).margin == pytest.approx(0.0, abs=1e-12)

    def test_suite(self):
        for trial, kind, rep in lg.ehrhard_suite(16, seed=2):
            assert rep.verdict == "holds", (trial, kind)

    def test_mc_near_equality_never_certifies_violation(self):
        # off-center balls force the Monte Carlo path; near-equality margins
        # sit inside the propagated intervals, which must read as holds or
        # inconclusive, never as a certified violation
        a = lg.Ball(1.5, center=[0.2, 0.0])
        b = lg.Ball(1.1, center=[0.0, 0.3])
        for seed in range(6):
            rep = lg.check_ehrhard(a, b, 0.4, samples=20_000, seed=seed)
            assert rep.note == "monte-carlo intervals"
            assert rep.verdict in ("holds", "inconclusive"), rep.verdict

    def test_mc_wide_margin_certifies_holds(self):
        # opposite off-center balls recenter under interpolation, so the
        # left quantile beats the endpoint average by a wide margin
        a = lg.Ball(1.5, center=[1.5, 0.0])
        b = lg.Ball(1.5, center=[-1.5, 0.0])
        rep = lg.check_ehrhard(a, b, 0.5, samples=60_000, seed=3)
        assert rep.verdict == "holds" and rep.note == "monte-carlo intervals"
        assert rep.margin > 0.3


class TestWProfile:
    def test_disk_profile_concave_formula(self):
        r = 1.5
        prof = lg.w_profile(lg.Ball(r, dim=2), grid_size=201)
        # closed-form check: g(x) = quantile(2*Phi(sqrt(r^2-x^2)) - 1)
        for x, g in zip(prof.xs[::20], prof.g[::20]):
            w = math.sqrt(r * r - x * x)
            expected = lg.std_normal_quantile(2.0 * lg.std_normal_cdf(w) - 1.0)
            assert g == pytest.approx(expected, abs=1e-12)
        assert prof.concavity_margin <= 1e-6
        assert prof.concavity_excess <= 0.0

    def test_identity_ball_and_box(self):
        for body in (lg.Ball(1.2, dim=2), lg.AxisBox([0.8, 1.3, 0.9])):
            prof = lg.w_profile(body, grid_size=201)
            assert prof.identity_residual() <= prof.identity_tol
            assert prof.identity_rhs.value == pytest.approx(
                lg.measure_exact(body).value, abs=1e-12)

    def test_halfspace_constant_profile(self):
        # normal orthogonal to the slicing axis: profile is the constant offset
        prof = lg.w_profile(lg.Halfspace([1.0, 0.0], 0.3), grid_size=101)
        assert np.allclose(prof.g, 0.3, atol=1e-9)
        assert abs(prof.concavity_margin) < 1e-9

    def test_halfspace_along_axis_degenerate_slices(self):
        # slices are full/empty; identity must still hold via the mask
        prof = lg.w_profile(lg.Halfspace([0.0, 1.0], 0.4), grid_size=201)
        assert prof.identity_residual() <= prof.identity_tol

    def test_mc_slice_path_ellipsoid(self):
        # ellipsoid slices have no closed-form measure: the whole profile
        # goes through seeded Monte Carlo and must stay inside its slack
        body = lg.Ellipsoid([1.4, 0.9, 0.6])
        prof = lg.w_profile(body, grid_size=81, samples=4096, seed=5)
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol
        assert prof.identity_rhs.method == "monte-carlo"

    def test_needs_dim_two(self):
        with pytest.raises(Exception):
            lg.w_profile(lg.AxisBox([1.0]))


class TestCorollary:
    def test_slab_ratio_is_inverse_theta(self):
        th = lg.theta()
        ratio = lg.corollary_ratio(lg.Lattice(np.eye(2)), lg.AxisBox([th / 2.0, math.inf]))
        assert ratio == pytest.approx(1.0 / th, abs=1e-6)

    def test_slab_ratio_scale_invariant(self):
        th = lg.theta()
        slab = lg.AxisBox([th / 2.0, math.inf])
        r1 = lg.corollary_ratio(lg.Lattice(np.eye(2)), slab)
        r2 = lg.corollary_ratio(lg.Lattice(th * np.eye(2)), slab)
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_calibrated_ball_below_bound(self):
        th = lg.theta()
        # the closed-form root may land an ulp below 1/2; the exact-measure
        # certificate allows that much float slack
        body = lg.Ball(lg.calibrate_scale(lg.Ball(1.0, dim=2), 0.5), dim=2)
        ratio = lg.corollary_ratio(lg.Lattice(np.eye(2)), body, resolution=12)
        lower, upper = lg.covering_radius(lg.Lattice(np.eye(2)), body, 12)
        lam = lg.nth_minimum(lg.Lattice(np.eye(2)), lg.Ball(1.0, dim=2))
        assert ratio <= 1.0 / th + (upper - lower) / lam + 1e-12

    def test_uncertified_measure_rejected(self):
        with pytest.raises(ValueError):
            lg.corollary_ratio(lg.Lattice(np.eye(2)), lg.Ball(0.5, dim=2))


class TestCubeCurve:
    def test_s1_is_theta(self):
        (n1, s1), = lg.cube_scaling_curve([1])
        assert s1 == pytest.approx(lg.theta(), abs=1e-9)

    def test_strictly_increasing(self):
        curve = lg.cube_scaling_curve(range(1, 40))
        scales = [s for _, s in curve]
        assert all(b > a for a, b in zip(scales, scales[1:]))

    def test_consistency_with_measure(self):
        for n, s in lg.cube_scaling_curve([2, 5, 11]):
            cube = lg.AxisBox(np.full(n, s / 2.0))
            assert lg.measure_exact(cube).value == pytest.approx(0.5, abs=1e-10)

    def test_log_ratio_window(self):
        ns = np.unique(np.geomspace(2, 10**6, 200).astype(np.int64))
        ratios = lg.cube_scale(ns) / np.sqrt(np.log(ns))
        assert ratios.min() >= 1.5 and ratios.max() <= 4.0


class TestInstanceGeneration:
    def test_deterministic(self):
        a = generate_theorem_instance(3, 5, 2)
        b = generate_theorem_instance(3, 5, 2)
        assert a[0] == b[0]
        assert np.array_equal(a[2].offset, b[2].offset)

    def test_bodies_certified(self):
        for trial in range(10):
            kind, body, coset, _ = generate_theorem_instance(2, 99, trial)
            est = lg.measure_auto(body, seed=1)
            if est.method == "exact":
                assert est.value >= 0.5 - 1e-12
            else:
                assert est.value - 3.0 * est.half_width >= 0.5 - 0.02  # fresh-seed slack

    @pytest.mark.parametrize("samples", [1000, 4096, 8192])
    def test_hpolytopes_recertify_at_small_sample_counts(self, samples):
        # with a fixed 0.57 target a 4096-sample draw failed the checker's
        # certificate on about one body in six
        verdicts = [report.verdict for n in range(1, 5)
                    for _, kind, report in lg.theorem_suite(n, 75, seed=8, mc_samples=samples)
                    if kind == "hpolytope"]
        assert verdicts == ["holds"] * 60

    def test_recertifiable_target(self):
        assert _recertifiable_target(1 << 16) == 0.57  # default seeded scales unchanged
        for samples in (1000, 4096, 8192):
            t = _recertifiable_target(samples)
            assert 0.57 < t < 1.0
            assert t - _RECERT_SIGMAS * math.sqrt(t * (1.0 - t) / samples) == pytest.approx(0.5)
