"""Harness checks: coset intersection, sharpness, slices, interpolation, profiles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

import latgauss as lg
import latgauss.convex
import latgauss.gaussian
import latgauss.lattice
import latgauss.minkowski
from latgauss.minkowski import _simpson, _slice_measures, generate_theorem_instance
from test_convex import (OFF_ORIGIN_SIMPLEX, OFF_ORIGIN_TRIANGLE, THIN_POLYTOPE_3D, TILTED_CUP,
                         lp_slice_reference, scalar_slice_reference, symmetric_polytope)


def reference_slice_measures(body, xs, terms, samples, seed, slice_at=scalar_slice_reference):
    """The per-slice loop that ``_slice_measures`` replaces: one body per
    slice, measured by ``measure_exact`` or scored on the shared draw."""
    measures, hws = np.zeros(len(xs)), np.zeros(len(xs))
    draw = h = None
    for i, x in enumerate(xs):
        sl = slice_at(body, float(x))
        if sl is None:
            continue
        try:
            est = lg.measure_exact(sl)
        except lg.UnsupportedBodyError:
            if draw is None:
                draw = latgauss.gaussian.normal_draw(body.dim - 1, samples, seed)
                h = np.zeros(samples)
            hits = sl.contains_many(draw)
            h += terms[i] * hits
            est = latgauss.gaussian.hit_estimate(int(np.count_nonzero(hits)), samples)
        measures[i], hws[i] = est.value, est.half_width
    return measures, hws, h


# a slab of width 2e-7 across the plane (THIN_POLYTOPE_3D crosses a 3-d box)
THIN_POLYTOPE = lg.HPolytope([[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0]],
                             [1e-7, 1e-7, 1.0, 1.0])
# pinned 3-d profile bodies of the CLI stream digests
PINNED_POLYTOPE_3D = lg.HPolytope([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0, 0.8],
                                   [-1, 0, 0], [0, -1, 0], [0, 0, -1], [-0.6, 0, -0.8]],
                                  [1.2] * 8)
PINNED_ELLIPSOID_3D = lg.Ellipsoid([0.8, 1.9, 1.3])


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
        assert "truncated" not in res.note  # a bounded body is searched whole

    def test_empty_certificate_for_bounded_3d_polytope(self):
        # a polytope's circumradius is its farthest vertex in every dimension,
        # so a cube that misses the deep-hole coset is searched whole
        cube = lg.HPolytope(np.vstack([np.eye(3), -np.eye(3)]), [0.3] * 6)
        coset = lg.Coset(lg.Lattice(np.eye(3)), np.full(3, 0.5))
        res = lg.find_coset_point_in_body(coset, cube)
        assert res.status == "empty" and res.point is None
        assert res.radius == pytest.approx(0.3 * math.sqrt(3.0))

    def test_bounded_search_reaches_past_an_off_centre_anchor(self):
        # the shells are centred on the anchor (9, 0.15), and the only coset
        # point in the rectangle lies 14 from it, past the circumradius 10.002
        body = lg.HPolytope([[0, 1], [0, -1], [1, 0], [-1, 0]], [0.2, -0.1, 10, 10],
                            interior_point=[9, 0.15])
        coset = lg.Coset(lg.Lattice([[30.0, 0.0], [0.0, 1.3]]), np.array([-5.0, 0.15]))
        res = lg.find_coset_point_in_body(coset, body)
        assert res.status == "found"
        assert np.allclose(res.point, [-5.0, 0.15], atol=1e-12)

    def test_unbounded_miss_truncated_at_eight_times_truncation(self):
        # every coset point has |x| >= 1/2, outside the thin unbounded slab
        body = lg.AxisBox([0.01, math.inf])
        coset = lg.Coset(lg.Lattice(np.eye(2)), np.array([0.5, 0.0]))
        res = lg.find_coset_point_in_body(coset, body)
        assert res.status == "truncated" and res.point is None
        assert math.isinf(body.circumradius())
        assert res.radius == pytest.approx(8.0 * lg.tail_radius(2))

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

    @staticmethod
    def forbid_enumeration(monkeypatch):
        def enumerate_minima(*args):
            raise AssertionError("lambda_n was enumerated, not certified by a basis")
        monkeypatch.setattr(latgauss.minkowski, "nth_minimum", enumerate_minima)

    def test_seeded_theta_lattices_certified_by_their_basis(self, monkeypatch):
        self.forbid_enumeration(monkeypatch)
        for n in (1, 2, 3, 4):
            verdicts = [rep.verdict for _, _, rep in lg.theorem_suite(n, 10, 7)]
            assert verdicts == ["holds"] * 10

    def test_unimodular_basis_certified_by_lll(self, monkeypatch):
        # theta * Z^2 given by rows (theta, 0) and (3 theta, theta)
        self.forbid_enumeration(monkeypatch)
        th = lg.theta()
        lattice = lg.Lattice(np.array([[1.0, 0.0], [3.0, 1.0]]) @ (th * np.eye(2)))
        assert np.max(np.linalg.norm(lattice.basis, axis=1)) > th + 1e-9
        assert np.max(np.linalg.norm(lattice.frame[0], axis=1)) <= th + 1e-9
        coset = lg.Coset(lattice, np.array([0.3, -0.2]))
        rep = lg.check_theorem_instance(lg.Ball(1.2, dim=2), coset, seed=3)
        assert rep.verdict == "holds"

    # refusals at their bounds: each input sits just past (or on) the bound it tests

    def test_lattice_just_past_theta_refused(self):
        th = lg.theta()
        coset = lg.Coset(lg.Lattice([[th * (1.0 + 1e-6)]]), [0.0])
        with pytest.raises(ValueError, match="not a theta-coset"):
            lg.check_theorem_instance(lg.AxisBox([1.0]), coset)

    def test_measure_just_below_half_inconclusive(self):
        width = lg.std_normal_quantile(0.75 - 5e-10)  # gamma_1([-w, w]) = 1/2 - 1e-9
        body = lg.AxisBox([width])
        assert lg.measure_exact(body).value == pytest.approx(0.5 - 1e-9, abs=1e-15)
        coset = lg.Coset(lg.Lattice([[lg.theta()]]), [0.0])
        rep = lg.check_theorem_instance(body, coset)
        assert rep.verdict == "inconclusive"
        assert rep.note == "measure >= 1/2 not certified: certified lower end below 1/2"

    def test_monte_carlo_measure_inside_its_certificate_inconclusive(self):
        # scaled to hit 51% of the checker's own 2^16-point draw: the estimate
        # clears 1/2, its lower end 3 half-widths (0.015) below does not. A
        # facet far outside, with no mirror, leaves the body as it is but
        # not symmetric, so no correlation bracket measures it
        base = symmetric_polytope(4, 1)
        scaled = base.scale(lg.gauge_quantile(base, 0.51, 1 << 16, 3))
        body = lg.HPolytope(np.vstack([scaled.normals, np.eye(4)[:1]]),
                            np.append(scaled.offsets, 100.0))
        coset = lg.Coset(lg.random_theta_lattice(4, 9), np.zeros(4))
        rep = lg.check_theorem_instance(body, coset, seed=3)
        assert rep.measure.method == "monte-carlo" and rep.measure.value >= 0.51
        assert rep.verdict == "inconclusive"

    def test_boundary_coset_of_half_measure_interval_holds(self):
        # gamma_1([-theta/2, theta/2]) = 1/2 exactly, and every coset point
        # +-theta/2 + k theta of the interval lies on its boundary
        th = lg.theta()
        body = lg.AxisBox([th / 2.0])
        assert lg.measure_exact(body).value == 0.5
        rep = lg.check_theorem_instance(body, lg.Coset(lg.Lattice([[th]]), [th / 2.0]))
        assert rep.verdict == "holds"
        assert abs(rep.witness[0]) == th / 2.0

    def test_empty_search_is_violated_with_its_certificate(self, monkeypatch):
        note = "complete enumeration found no point"
        monkeypatch.setattr(latgauss.minkowski, "find_coset_point_in_body",
                            lambda coset, body: lg.CosetSearch(None, "empty", 1.0, note=note))
        coset = lg.Coset(lg.Lattice([[lg.theta()]]), [0.0])
        rep = lg.check_theorem_instance(lg.AxisBox([1.0]), coset)
        assert rep.verdict == "violated"
        assert rep.certificate == note

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
                                           lg.Ball(1.3, center=shift))
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
        assert len(calls) == 1 and calls[0] is coset.lattice.basis

    def test_one_lattice_validation_per_trial(self, monkeypatch):
        calls = []
        original = lg.Lattice.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(lg.Lattice, "__post_init__", counting)
        [(_, _, rep)] = lg.theorem_suite(3, 1, seed=7)
        assert rep.verdict == "holds"
        assert len(calls) == 1

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

    def test_rotated_box_section_is_exact(self):
        # a 2-d section of a box is a polygon, measured by Owen's T
        body = lg.AxisBox([2.0, 2.0, 2.0])
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 2)))
        sub = q.T
        rep = lg.check_lemma_instance(body, sub, samples=20_000, seed=8)
        assert rep.verdict == "holds"
        assert rep.measure.method == "exact"
        est = latgauss.gaussian.mc_fraction(2, lambda p: body.contains_many(p @ sub), 1 << 20, 0)
        assert abs(rep.measure.value - est.value) <= 3.0 * est.half_width

    def test_box_section_of_dimension_3_stays_monte_carlo(self):
        # scored on the draw, and hit for hit the box's own membership of it
        body = lg.AxisBox([2.0, 1.5, 2.5, 1.8])
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 3)))
        sub = q.T
        rep = lg.check_lemma_instance(body, sub, samples=20_000, seed=9)
        assert rep.verdict == "holds"
        assert rep.measure.method == "monte-carlo"
        old = latgauss.gaussian.mc_fraction(3, lambda p: body.contains_many(p @ sub), 20_000, 10)
        assert rep.measure == old

    def test_oracle_body_has_no_sections(self):
        body = lg.OracleBody(3, lambda pts: np.linalg.norm(pts, axis=1) <= 2.0, 2.0)
        with pytest.raises(lg.UnsupportedBodyError, match="do not support slicing"):
            lg.check_lemma_instance(body, np.eye(3)[:2])

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

    def test_shrunk_combination_is_violated_exactly(self, monkeypatch):
        # a test-only combination 3e-6 short of the true box: its exact
        # margin, about -5e-6, is past the equality tolerance
        monkeypatch.setattr(latgauss.minkowski, "minkowski_combination", lambda a, b, lam:
                            lg.AxisBox((1.0 - 3e-6) * (lam * a.semiwidths
                                                       + (1.0 - lam) * b.semiwidths)))
        rep = lg.check_ehrhard(lg.AxisBox([0.9, 1.4]), lg.AxisBox([0.9, 1.4]), 0.37)
        assert rep.note == "exact"
        assert -1e-5 < rep.margin < -1e-6
        assert rep.verdict == "violated"
        assert rep.certificate == ("exact margin below -1e-09: the quantile of the combination's "
                                   "measure lies under the combination of the quantiles")

    def test_body_without_closed_form_is_unsupported(self):
        # one body passed twice is its own combination, but a 3-d
        # H-polytope has only a bracket, never an exact measure
        body = symmetric_polytope(3, 2)
        with pytest.raises(lg.UnsupportedBodyError):
            lg.check_ehrhard(body, body, 0.4)

    def test_off_center_balls_are_exact(self):
        a = lg.Ball(1.5, center=[1.5, 0.0])
        b = lg.Ball(1.5, center=[-1.5, 0.0])
        rep = lg.check_ehrhard(a, b, 0.5, seed=3)
        assert rep.verdict == "holds" and rep.note == "exact"
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
        assert prof.g.size == prof.g_half_widths.size == 0  # no slice in (0, 1)
        assert prof.identity_residual() <= prof.identity_tol

    def test_mc_slice_path_polytope(self):
        # 3-d slices of a 4-d polytope have no closed-form measure: the whole
        # profile goes through seeded Monte Carlo and must stay inside its slack
        prof = lg.w_profile(symmetric_polytope(4, 1), grid_size=81, samples=4096, seed=5)
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol
        assert prof.identity_rhs.method == "monte-carlo"
        assert np.all(prof.g_half_widths > 0.0)

    def test_ellipsoid_profile_is_exact(self):
        # Ruben's series measures every 2-d slice and the body itself
        body = lg.Ellipsoid([1.4, 0.9, 0.6])
        prof = lg.w_profile(body, grid_size=81, samples=4096, seed=5)
        assert prof.identity_rhs.method == "exact"
        assert not np.any(prof.g_half_widths)
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol < 1e-7

    def test_ellipse_profile_concave_formula(self):
        # 1-d slices are exact intervals: g(x) = quantile(2*Phi(a1*sqrt(1-(x/a2)^2)) - 1)
        a1, a2 = 1.3, 1.9
        prof = lg.w_profile(lg.Ellipsoid([a1, a2]), grid_size=201)
        for x, g in zip(prof.xs[::20], prof.g[::20]):
            w = a1 * math.sqrt(1.0 - (x / a2) ** 2)
            expected = lg.std_normal_quantile(2.0 * lg.std_normal_cdf(w) - 1.0)
            assert g == pytest.approx(expected, abs=1e-12)
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol

    def test_ellipsoid_past_the_series_cap_is_sampled(self, monkeypatch):
        # one slice past the cap sends the whole family, and the body, to Monte Carlo
        monkeypatch.setattr(latgauss.gaussian, "SERIES_TERM_CAP", 16)
        body = lg.Ellipsoid([0.3, 2.4, 1.1])
        with pytest.raises(lg.UnsupportedBodyError):
            lg.measure_exact(body)
        prof = lg.w_profile(body, grid_size=81, samples=4096, seed=5)
        assert prof.identity_rhs.method == "monte-carlo" and np.all(prof.g_half_widths > 0.0)
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol

    @pytest.mark.parametrize("body, draws", [
        (symmetric_polytope(4, 1), 2),         # one for all 3-d slices, one for the body
        (PINNED_POLYTOPE_3D, 0),               # exact polygon slices, bracketed body
        (symmetric_polytope(2, 5), 0),         # exact throughout, as below
        (lg.Ellipsoid([1.4, 0.9, 0.6]), 0),
        (lg.Ellipsoid([1.4, 0.9]), 0),
        (lg.AxisBox([0.8, 1.3, 0.9]), 0),
    ], ids=["polytope-4d", "polytope-3d", "polytope-2d", "ellipsoid-3d", "ellipsoid-2d",
            "box-3d"])
    def test_profile_draws_once_for_its_slices(self, body, draws, monkeypatch):
        keys = []
        substream = latgauss.gaussian.substream
        monkeypatch.setattr(latgauss.gaussian, "substream",
                            lambda seed, key: keys.append((seed, key)) or substream(seed, key))
        lg.w_profile(body, grid_size=81, samples=4096, seed=5)  # one shard per draw
        assert len(keys) == len(set(keys)) == draws

    # Long thin polytopes from the slice-checks benchmark stream (seed 1 round 8,
    # seed 2 round 86). Their slices are intervals deep in the upper tail with
    # measures within 1e-12 of 1. Measuring an upper-tail interval as a
    # difference of two values near 1, or mapping measures that near 1 through
    # the quantile, reads them as concavity violations (+0.0072 and +0.0010).
    @pytest.mark.parametrize("offset, normals, seed", [
        (1.1033131116263373,
         [[-0.43619731174174925, 0.899851046134454], [-0.5370800359913503, 0.843531288654742],
          [-0.5057560927505242, 0.8626765179635546]], 1956780950),
        (1.3837133895832863,
         [[0.13324604179148397, -0.99108298963654], [-0.10025423057371394, 0.9949618531642671],
          [0.08553748738507158, -0.9963349528405839]], 3827386303),
    ], ids=["upper-tail-intervals", "measures-near-one"])
    def test_thin_polytope_profile_holds(self, offset, normals, seed):
        normals = [*normals, *(-np.asarray(normals)).tolist()]
        body = lg.body_from_document({"kind": "hpolytope", "dim": 2, "normals": normals,
                                      "offsets": [offset] * 6})
        prof = lg.w_profile(body, seed=seed)
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol

    # Polytopes of the slice-checks benchmark stream whose exact measures
    # exposed two faults that Monte Carlo slack hid. The slice measure of a
    # polygon changes slope at every vertex height, which the Simpson error
    # estimate alone can miss (seed 12 round 38: residual 1.0e-5 against a
    # tolerance of 6.2e-6 without the vertex term; seed 11 round 9 failed so
    # on the truncation grid). A polygon slice of measure about 1e-23 is
    # exact only to absolute rounding, which the quantile turns into a false
    # concavity violation (seed 12 round 25, excess +0.117 without the floor).
    @pytest.mark.parametrize("offset, normals, seed", [
        (1.3030928354324685,
         [[-0.39150597945032095, -0.9201755637130585], [-0.9533747722457019, -0.301788905769341],
          [-0.787255870498984, 0.6166264625888895]], 1799980479),
        (1.3321253004779385,
         [[0.6186160753332967, 0.7856934207050668], [0.9916499140270679, 0.12895909432881747],
          [-0.8650120047615718, -0.5017511650393714]], 1492056371),
        (0.9885484337651537,
         [[0.6405545724240939, 0.1969990410522081, -0.7422137276897381],
          [0.4918408489545129, 0.320883505425881, -0.8093987615788047],
          [0.07605275753516112, 0.6210155109297739, -0.7800998098038032],
          [-0.58076542776882, 0.5409648274386202, -0.6083326173918371]], 2470413825),
    ], ids=["seed-11-2d-round-9", "seed-12-2d-round-38", "seed-12-3d-round-25"])
    def test_benchmark_polytope_profile_holds(self, offset, normals, seed, monkeypatch):
        normals = [*normals, *(-np.asarray(normals)).tolist()]
        body = lg.body_from_document({"kind": "hpolytope", "dim": len(normals[0]),
                                      "normals": normals, "offsets": [offset] * len(normals)})
        prof = lg.w_profile(body, seed=seed)
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol
        if body.dim == 2:  # exact on both sides: the tolerance is the quadrature's alone
            assert prof.identity_rhs.method == "exact" and prof.identity_tol < 1e-4
            # and on the truncation grid, where the end vertices lie inside it too
            monkeypatch.setattr(lg.HPolytope, "last_axis_extent",
                                lambda self: (-math.inf, math.inf))
            prof = lg.w_profile(lg.HPolytope(body.normals, body.offsets), seed=seed)
            assert prof.identity_residual() <= prof.identity_tol

    # Round 217 of the slice-checks stream of seed 7: a facet nearly normal to
    # the last axis, (-0.013, -0.035, 0.999), so the slice measure falls
    # within one grid step. The Simpson sum misses the body measure by 2.0e-3,
    # where the Richardson estimate reads 1.1e-3; the Ehrhard bracket of the
    # profile's own slices bounds that error.
    def test_steep_facet_profile_holds(self):
        normals = np.array([[0.4048787932340337, 0.8421278193600144, -0.3562216987345095],
                            [-0.4283044128425419, -0.6274308348255456, 0.6502967610635351],
                            [-0.5618959724568494, -0.5147097440910473, -0.6475699155106728],
                            [-0.01296483800448363, -0.03483750410132373, 0.9993088918265002]])
        body = lg.HPolytope(np.vstack([normals, -normals]), [1.2889395547193754] * 8)
        prof = lg.w_profile(body, seed=758531745)
        assert prof.identity_rhs.method == "bracket"
        assert prof.concavity_excess <= 0.0
        assert prof.identity_residual() <= prof.identity_tol
        # the tolerance covers the Simpson sum's true error, read off a fine bracket
        r = lg.tail_radius(3)
        ts = np.linspace(-r, r, 8001)
        fine = latgauss.gaussian.measure_slices(body.sections(np.outer(ts, [1.0, 0.0, 0.0]),
                                                              np.eye(3)[1:]))
        low, high = latgauss.gaussian.ehrhard_bracket(ts, fine, len(normals))
        assert high - low < 1e-6
        assert max(prof.identity_lhs - low, high - prof.identity_lhs) <= prof.identity_tol

    def test_bench_shaped_3d_profiles_hold(self):
        # bodies drawn as the slice-checks stream draws them: four unit
        # normals and their mirrors, one offset in U(0.8, 1.4)
        rng = np.random.default_rng(33)
        for trial in range(200):
            normals = rng.standard_normal((4, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            body = lg.HPolytope(np.vstack([normals, -normals]), [rng.uniform(0.8, 1.4)] * 8)
            prof = lg.w_profile(body, seed=trial)
            assert prof.identity_rhs.method == "bracket", trial
            assert prof.concavity_excess <= 0.0, trial
            assert prof.identity_residual() <= prof.identity_tol < 0.02, trial

    def test_polygon_profile_builds_its_edges_twice(self, monkeypatch):
        # the pinned hexagon's edges are built once for its extent and vertex
        # term, once more for its exact measure, and never for a circumradius
        builds, edges = [], latgauss.convex.polygon_edges
        for module in (latgauss.convex, latgauss.gaussian, latgauss.minkowski):
            monkeypatch.setattr(module, "polygon_edges",
                                lambda *args: builds.append(args) or edges(*args), raising=False)
        hexagon = lg.HPolytope([[1, 0], [0, 1], [0.6, 0.8], [-1, 0], [0, -1], [-0.6, -0.8]],
                               [1.2] * 6)
        assert lg.w_profile(hexagon, seed=3).concavity_excess <= 0.0
        assert len(builds) == 2

    def test_polygon_profile_spans_its_vertices(self):
        # the grid runs from the lowest to the highest vertex, so only its two
        # end points, where the slice is a single point, are empty
        body = symmetric_polytope(2, 3)
        lo, hi = body.last_axis_extent()
        prof = lg.w_profile(body, seed=4)
        assert prof.xs.size == 199 and lo < prof.xs[0] < prof.xs[-1] < hi
        assert prof.domain == (prof.xs[0], prof.xs[-1])

    def test_vertex_term_counts_vertices_inside_the_grid(self):
        square = lg.HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0] * 4)
        assert latgauss.minkowski._kink_error(square, np.linspace(-1.0, 1.0, 9)) == 0.0
        diamond = lg.HPolytope([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]], [1.0] * 4)
        xs = np.linspace(-1.0, 1.0, 9)  # the side vertices (+-1, 0) lie at height 0
        jump = 2.0 * 2.0 * math.exp(-0.5) / (2.0 * math.pi)  # two vertices, slopes -1 and +1
        assert latgauss.minkowski._kink_error(diamond, xs) == pytest.approx(
            jump * 0.25**2 / 3.0, rel=1e-12)
        assert latgauss.minkowski._kink_error(lg.Ball(1.0, dim=2), xs) == 0.0

    def test_needs_dim_two(self):
        with pytest.raises(Exception):
            lg.w_profile(lg.AxisBox([1.0]))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_simpson_weights_integrate_cubics_exactly(self, k):
        xs = np.linspace(-1.3, 2.1, 57)
        cubic = 0.7 * xs**3 - 1.1 * xs**2 + 0.4 * xs - 2.0
        exact = (0.7 / 4 * (2.1**4 - 1.3**4) - 1.1 / 3 * (2.1**3 + 1.3**3)
                 + 0.4 / 2 * (2.1**2 - 1.3**2) - 2.0 * 3.4)
        assert _simpson(xs, k) @ cubic[::k] == pytest.approx(exact, rel=1e-13)

    def test_grid_rounds_up_to_eight_k_plus_one(self):
        assert lg.w_profile(lg.AxisBox([0.8, 1.3]), grid_size=51).xs.size == 57

    def test_rounded_grid_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(latgauss.minkowski, "PROFILE_GRID_CAP", 100)
        for grid_size in range(90, 102):
            try:
                points = lg.w_profile(lg.AxisBox([0.8, 1.3]), grid_size=grid_size).xs.size
            except ValueError as err:
                assert grid_size > 97 and "must be at most 100" in str(err)
            else:
                assert grid_size <= points == 97

    def test_coarse_grid_identity_tolerance(self):
        # every Simpson sum of the identity runs over an odd point count; an
        # even-count 4h sum made this tolerance 1.2e-6
        body = lg.AxisBox([0.9, 1.3, 1.7])  # pinned in the CLI stream digests
        prof = lg.w_profile(body, grid_size=51, seed=3)
        assert prof.identity_residual() <= prof.identity_tol < 1e-7

    def test_polytope_profile_solves_no_lp(self, monkeypatch):
        # slices are decided by their facets alone, and a polygon reads its
        # span off its edges
        calls = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **k: calls.append(1) or linprog(*a, **k))
        for body in (symmetric_polytope(2, 11), OFF_ORIGIN_TRIANGLE, THIN_POLYTOPE,
                     symmetric_polytope(3, 11), THIN_POLYTOPE_3D, symmetric_polytope(4, 11)):
            lg.w_profile(body, grid_size=81, samples=4096, seed=2)
        assert len(calls) == 0

    @pytest.mark.parametrize("body", [symmetric_polytope(3, 11), OFF_ORIGIN_TRIANGLE,
                                      OFF_ORIGIN_SIMPLEX, TILTED_CUP, THIN_POLYTOPE_3D],
                             ids=["symmetric", "triangle", "simplex", "unbounded", "thin"])
    def test_polytope_profile_matches_lp_reference(self, body, monkeypatch):
        fast = lg.w_profile(body, grid_size=81, samples=4096, seed=3)
        monkeypatch.setattr(latgauss.minkowski, "_slice_measures",
                            lambda *a: reference_slice_measures(*a, slice_at=lp_slice_reference))
        ref = lg.w_profile(body, grid_size=81, samples=4096, seed=3)
        for f in dataclasses.fields(lg.WProfile):
            a, b = getattr(fast, f.name), getattr(ref, f.name)
            assert (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b), f.name

    @pytest.mark.parametrize("body", [
        lg.Ball(1.5, center=[0.3, -0.4]),
        lg.Ball(1.5, center=[0.3, -0.2, 0.4]),
        lg.Ball(1.2, center=[0.0, 0.0, 0.5]),
        lg.AxisBox([math.inf, 0.8]),
        lg.AxisBox([0.9, math.inf, 1.1]),
        lg.Halfspace([0.0, 0.0, 1.0], 0.4),
        lg.Halfspace([0.0, -1.0], 0.4),
        lg.Halfspace([0.3, -1.0, 0.5], 0.2),
        lg.Ellipsoid([0.8, 1.9]),
        lg.Ellipsoid([0.8, 1.9, 1.3]),
        lg.Ball(1.3, dim=4),
        lg.AxisBox([0.9, 1.2, 0.7, 1.4]),
        lg.Ellipsoid([0.9, 1.2, 0.7, 1.4]),
        lg.Halfspace([0.2, -0.5, 0.1, 0.8], -0.3),
        symmetric_polytope(4, 1),
        symmetric_polytope(2, 5),
        PINNED_POLYTOPE_3D,
        THIN_POLYTOPE,
        TILTED_CUP,
        lg.FullSpace(3),
    ], ids=["off-centre-ball-2d", "off-centre-ball-3d", "ball-centred-head", "slab-2d",
            "slab-3d", "halfspace-along-axis-3d", "halfspace-along-axis-2d", "halfspace-3d",
            "ellipsoid-2d", "ellipsoid-3d", "ball-4d", "box-4d", "ellipsoid-4d", "halfspace-4d",
            "polytope-4d", "polytope-2d", "polytope-3d", "thin-polytope", "unbounded-polytope",
            "space"])
    def test_batched_slices_match_per_slice_loop_bitwise(self, body):
        xs = np.linspace(-3.5, 3.5, 81)
        terms = lg.std_normal_pdf(xs) * (xs[1] - xs[0])
        fast = _slice_measures(body, xs, terms, 4096, 17)
        ref = reference_slice_measures(body, xs, terms, 4096, 17)
        for a, b in zip(fast, ref):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_oracle_profile_is_unsupported(self):
        body = lg.OracleBody(2, lambda pts: np.linalg.norm(pts, axis=1) <= 1.0, 1.0,
                             symmetric_flag=True)
        with pytest.raises(lg.UnsupportedBodyError):
            lg.w_profile(body, grid_size=21, samples=4096)

    @pytest.mark.parametrize("body", [PINNED_POLYTOPE_3D, PINNED_ELLIPSOID_3D],
                             ids=["polytope-3d", "ellipsoid-3d"])
    def test_profile_peak_memory(self, body):
        # a (grid x samples) broadcast at default sizes would take 26 MB
        tracemalloc.start()
        try:
            lg.w_profile(body, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("name, flag", [("PROFILE_GRID_CAP", "grid_size"),
                                            ("PROFILE_SAMPLES_CAP", "samples")])
    def test_profile_caps(self, name, flag, monkeypatch):
        monkeypatch.setattr(latgauss.minkowski, name, 100)
        with pytest.raises(ValueError, match=f"{flag} must be at most 100"):
            lg.w_profile(lg.Ball(1.2, dim=2), **{flag: 101})


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

    def test_3d_polytope_trials_are_bracketed(self):
        # the checker certifies measure >= 1/2 by the bracket's lower end
        for trial in range(4, 100, 5):
            kind, body, coset, inst_seed = generate_theorem_instance(3, 21, trial)
            report = lg.check_theorem_instance(body, coset, seed=inst_seed)
            assert kind == "hpolytope" and report.verdict == "holds"
            assert report.measure.method == "bracket" and report.measure.lower >= 0.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_polytope_trial_draw_budget(self, n, monkeypatch):
        # the pair bound calibrates with no draw and no closed-form root in
        # every dimension; the n <= 2 exact measure, the n = 3 Ehrhard
        # bracket and the n >= 4 correlation bracket certify with none
        def refused(*args):
            raise AssertionError("a polytope trial drew normal points")

        def rootless(family):
            raise AssertionError("calibration took a closed-form root")

        monkeypatch.setattr(latgauss.gaussian, "_normal_shards", refused)
        with monkeypatch.context() as generating:
            generating.setattr(latgauss.gaussian, "measure_slices", rootless)
            kind, body, coset, inst_seed = generate_theorem_instance(n, 7, 4)
        report = lg.check_theorem_instance(body, coset, seed=inst_seed)
        assert kind == "hpolytope" and report.verdict == "holds"
        assert report.measure.samples == 0
        if n >= 4:
            assert report.measure.method == "bracket"

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_polytope_trials_certify_by_their_pair_bound(self, n):
        # 100 polytope trials (seeds 0-4) aimed by the pair bound at targets
        # down to 0.505, each certified by the checker with no draw
        for seed in range(5):
            for trial in range(4, 100, 5):
                kind, body, coset, inst_seed = generate_theorem_instance(n, seed, trial)
                report = lg.check_theorem_instance(body, coset, seed=inst_seed)
                assert kind == "hpolytope" and report.verdict == "holds"
                assert report.measure.lower >= 0.5 and report.measure.samples == 0
