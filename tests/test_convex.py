"""Bodies: membership, slices, gauges, combinations, truncation radii."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latgauss as lg
from latgauss.errors import (DimensionMismatchError, InvalidBodyError,
                             UnsupportedCombinationError)


class TestContains:
    def test_ball_boundary_included(self):
        assert lg.Ball(1.0, dim=2).contains([1.0, 0.0])

    def test_box_just_outside(self):
        assert not lg.AxisBox([1.0, 2.0]).contains([1.0001, 0.0])

    def test_hpolytope_square(self):
        square = lg.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        assert square.contains([0.5, -0.5])
        assert not square.contains([1.5, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lg.Ball(1.0, dim=2).contains([1.0, 0.0, 0.0])

    def test_slab_contains_far_points_on_free_axis(self):
        slab = lg.AxisBox([0.5, math.inf])
        assert slab.contains([0.2, 1e9])
        assert not slab.contains([0.6, 0.0])


class TestSlice:
    def test_disk_slice_is_interval(self):
        r, x = 2.0, 1.2
        sl = lg.Ball(r, dim=2).slice_at(x)
        assert isinstance(sl, lg.AxisBox) or isinstance(sl, lg.Ball)
        half = math.sqrt(r * r - x * x)
        assert sl.contains([half]) and not sl.contains([half + 1e-6])

    def test_box_slice(self):
        sl = lg.AxisBox([1.5, 0.7]).slice_at(0.69)
        assert isinstance(sl, lg.AxisBox)
        assert np.allclose(sl.semiwidths, [1.5])
        assert lg.AxisBox([1.5, 0.7]).slice_at(0.71) is None

    def test_halfspace_slice_degenerate(self):
        hs = lg.Halfspace([0.0, 0.0, 1.0], 0.0)  # x3 <= 0
        assert hs.slice_at(1.0) is None
        assert isinstance(hs.slice_at(-1.0), lg.FullSpace)

    def test_halfspace_slice_generic(self):
        hs = lg.Halfspace([1.0, 1.0], 0.5)
        sl = hs.slice_at(0.2)
        assert isinstance(sl, lg.Halfspace)
        assert sl.contains([0.3]) and not sl.contains([0.31])

    def test_ellipsoid_slice(self):
        e = lg.Ellipsoid([2.0, 1.0])
        sl = e.slice_at(0.6)
        width = 2.0 * math.sqrt(1 - 0.36)
        assert sl.contains([width - 1e-9]) and not sl.contains([width + 1e-6])

    def test_polytope_slice_empty_detected(self):
        # triangle with apex at x2 = 1: slicing above is empty
        tri = lg.HPolytope([[0.0, -1.0], [1.0, 1.0], [-1.0, 1.0]], [0.0, 1.0, 1.0],
                           interior_point=[0.0, 0.5])
        assert tri.slice_at(1.5) is None
        sl = tri.slice_at(0.5)
        assert sl is not None and sl.contains([0.0])

    def test_slice_membership_consistency(self):
        rng = np.random.default_rng(3)
        bodies = [lg.Ball(1.5, dim=3), lg.AxisBox([1.0, 0.8, 1.2]),
                  lg.Ellipsoid([1.0, 2.0, 0.7]), lg.Halfspace([0.5, -1.0, 0.25], 0.3)]
        for body in bodies:
            for _ in range(200):
                p = rng.normal(0, 1.2, size=3)
                sl = body.slice_at(p[-1])
                inside = body.contains(p)
                if sl is None:
                    assert not inside or body.containment_margin(p) <= 1e-6
                else:
                    assert sl.contains(p[:-1]) == inside


class TestGauge:
    def test_ball_gauge_is_norm(self):
        v = np.array([0.3, -0.4])
        assert lg.gauge(lg.Ball(1.0, dim=2), v) == pytest.approx(0.5)

    def test_ellipsoid_gauge(self):
        e = lg.Ellipsoid([2.0, 0.5])
        v = np.array([1.0, 0.25])
        assert lg.gauge(e, v) == pytest.approx(math.sqrt(0.25 + 0.25))

    def test_box_gauge(self):
        assert lg.gauge(lg.AxisBox([1.0, 2.0]), [0.5, 1.0]) == pytest.approx(0.5)

    def test_slab_gauge_zero_along_free_axis(self):
        assert lg.gauge(lg.AxisBox([0.5, math.inf]), [0.0, 7.0]) == 0.0

    def test_symmetric_polytope_gauge(self):
        square = lg.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        assert lg.gauge(square, [0.25, 0.5]) == pytest.approx(0.5)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidBodyError):
            lg.gauge(lg.Halfspace([1.0], 1.0), [0.5])
        with pytest.raises(InvalidBodyError):
            lg.gauge(lg.Ball(1.0, center=[0.5, 0.0]), [0.1, 0.1])

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=100, derandomize=True)
    def test_positive_homogeneity(self, t):
        v = np.array([0.4, -1.1, 0.2])
        for body in (lg.Ball(1.3, dim=3), lg.AxisBox([1.0, 2.0, 0.5]),
                     lg.Ellipsoid([0.8, 1.1, 2.0])):
            assert lg.gauge(body, t * v) == pytest.approx(t * lg.gauge(body, v), rel=1e-12)

    def test_gauge_vs_membership(self):
        rng = np.random.default_rng(8)
        bodies = [lg.Ball(1.2, dim=2), lg.AxisBox([0.7, 1.8]), lg.Ellipsoid([2.0, 0.6]),
                  lg.HPolytope([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1, 1, 1, 1])]
        for body in bodies:
            pts = rng.normal(0, 1.5, size=(300, 2))
            g = body.gauge_many(pts)
            inside = body.contains_many(pts)
            clear = np.abs(g - 1.0) > 1e-9
            assert np.all((g[clear] <= 1.0) == inside[clear])


class TestMinkowskiCombination:
    def test_identity_body(self):
        square = lg.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        assert lg.minkowski_combination(square, square, 0.3) is square

    def test_boxes_combine_semiwidths(self):
        a, b = lg.AxisBox([1.0, 1.0]), lg.AxisBox([3.0, 1.0])
        c = lg.minkowski_combination(a, b, 0.5)
        assert np.allclose(c.semiwidths, [2.0, 1.0])

    def test_balls_combine_radii(self):
        a, b = lg.Ball(1.0, dim=2), lg.Ball(3.0, dim=2)
        c = lg.minkowski_combination(a, b, 0.25)
        assert c.radius == pytest.approx(2.5)

    def test_endpoints(self):
        a, b = lg.AxisBox([1.0]), lg.Ball(2.0, dim=1)
        assert lg.minkowski_combination(a, b, 1.0) is a
        assert lg.minkowski_combination(a, b, 0.0) is b

    def test_parallel_halfspaces(self):
        u = np.array([0.6, 0.8])
        a, b = lg.Halfspace(u, 0.5), lg.Halfspace(2 * u, 2.0)
        c = lg.minkowski_combination(a, b, 0.5)
        assert c.offset == pytest.approx(0.5 * 0.5 + 0.5 * 1.0)

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedCombinationError):
            lg.minkowski_combination(lg.AxisBox([1.0, 1.0]), lg.Ball(1.0, dim=2), 0.5)

    def test_slab_with_box(self):
        slab = lg.AxisBox([0.5, math.inf])
        box = lg.AxisBox([1.0, 1.0])
        c = lg.minkowski_combination(slab, box, 0.5)
        assert c.semiwidths[0] == pytest.approx(0.75) and math.isinf(c.semiwidths[1])


class TestBoundingRadius:
    def test_box_circumradius(self):
        assert lg.bounding_radius(lg.AxisBox([1.0, 2.0]), 1e-9) == pytest.approx(math.sqrt(5))

    def test_ball(self):
        assert lg.bounding_radius(lg.Ball(3.0, dim=2), 1e-9) == pytest.approx(3.0)

    def test_halfspace_tail_radius(self):
        # chi-square with 2 dof is exponential: independent closed form
        r = lg.bounding_radius(lg.Halfspace([1.0, 0.0], 0.1), 1e-9)
        assert r == pytest.approx(math.sqrt(-2.0 * math.log(1e-9)), rel=1e-9)

    def test_truncation_preserves_membership_inside(self):
        body = lg.Halfspace([0.0, 1.0], 0.2)
        r = lg.bounding_radius(body, 1e-6)
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 1, size=(500, 2))
        inside_r = np.linalg.norm(pts, axis=1) <= r
        assert np.array_equal(body.contains_many(pts[inside_r]),
                              body.contains_many(pts)[inside_r])

    def test_oracle_body_returns_its_hint(self):
        disk = lg.OracleBody(2, lambda pts: np.linalg.norm(pts, axis=1) <= 1.0,
                             bounding_radius_hint=1.25, symmetric_flag=True)
        assert lg.bounding_radius(disk, 1e-9) == 1.25

    def test_rejects_bad_tail(self):
        with pytest.raises(InvalidBodyError):
            lg.bounding_radius(lg.Ball(1.0, dim=1), 0.5)


class TestSymmetryFlag:
    def test_flags(self):
        assert lg.AxisBox([1.0]).symmetric
        assert lg.Ball(1.0, dim=2).symmetric
        assert not lg.Ball(1.0, center=[0.1, 0.0]).symmetric
        assert not lg.Halfspace([1.0], 1.0).symmetric
        assert lg.HPolytope([[1, 0], [-1, 0]], [1, 1]).symmetric
        assert not lg.HPolytope([[1, 0], [-1, 0]], [1, 2]).symmetric

    def test_symmetric_membership_spot_check(self):
        rng = np.random.default_rng(2)
        for body in (lg.AxisBox([0.8, 1.1]), lg.Ball(1.3, dim=2),
                     lg.Ellipsoid([0.5, 2.0]),
                     lg.HPolytope([[1, 1], [-1, -1]], [1, 1])):
            pts = rng.normal(0, 1.5, size=(200, 2))
            assert np.array_equal(body.contains_many(pts), body.contains_many(-pts))


class TestOracleBody:
    def test_gauge_bisection_against_closed_form(self):
        square = lg.OracleBody(2, lambda pts: np.max(np.abs(pts), axis=1) <= 1.0,
                               bounding_radius_hint=1.5, symmetric_flag=True)
        assert lg.gauge(square, [0.5, 0.25]) == pytest.approx(0.5, abs=1e-9)
        assert lg.gauge(square, [0.0, 0.0]) == 0.0

    def test_mc_measure_matches_box(self):
        square = lg.OracleBody(2, lambda pts: np.max(np.abs(pts), axis=1) <= 1.0,
                               bounding_radius_hint=1.5, symmetric_flag=True)
        est = lg.measure_mc(square, 20_000, seed=1)
        exact = lg.measure_exact(lg.AxisBox([1.0, 1.0])).value
        assert abs(est.value - exact) <= 3.0 * est.half_width

    def test_vectorized_predicate(self):
        disk = lg.OracleBody(2, lambda pts: np.linalg.norm(pts, axis=1) <= 1.0,
                             bounding_radius_hint=1.0, symmetric_flag=True)
        a = lg.measure_mc(disk, 10_000, seed=2).value
        b = lg.measure_mc(lg.Ball(1.0, dim=2), 10_000, seed=2).value
        assert a == b

    def test_gauge_matches_ellipsoid(self):
        semiaxes = np.array([0.7, 1.9, 1.2])
        oracle = lg.OracleBody(3, lambda pts: np.sum((pts / semiaxes) ** 2, axis=1) <= 1.0,
                               bounding_radius_hint=2.0, symmetric_flag=True)
        pts = np.random.default_rng(4).normal(0.0, 2.0, size=(500, 3))
        pts[0] = 0.0
        expected = lg.Ellipsoid(semiaxes).gauge_many(pts)
        assert np.allclose(oracle.gauge_many(pts), expected, rtol=1e-11, atol=0.0)
        assert lg.calibrate_scale(oracle, 0.6, samples=5000, seed=3) == pytest.approx(
            lg.calibrate_scale(lg.Ellipsoid(semiaxes), 0.6, samples=5000, seed=3), rel=1e-11)

    def test_scaling(self):
        disk = lg.OracleBody(2, lambda pts: np.linalg.norm(pts, axis=1) <= 1.0,
                             bounding_radius_hint=1.0, symmetric_flag=True)
        assert disk.scale(2.0).contains([1.5, 0.0])
        assert not disk.scale(2.0).contains([2.5, 0.0])


class TestValidation:
    def test_bad_semiwidths(self):
        with pytest.raises(InvalidBodyError):
            lg.AxisBox([1.0, -1.0])

    def test_empty_polytope(self):
        with pytest.raises(InvalidBodyError):
            lg.HPolytope([[1.0], [-1.0]], [-2.0, -2.0])

    def test_zero_normal(self):
        with pytest.raises(InvalidBodyError):
            lg.Halfspace([0.0, 0.0], 1.0)


class TestDocuments:
    def test_round_trip(self):
        bodies = [lg.AxisBox([0.5, math.inf]),
                  lg.Ball(1.25, center=[0.1, -0.2]),
                  lg.Halfspace([0.6, 0.8], 0.125),
                  lg.Ellipsoid([1.0, 2.0]),
                  lg.HPolytope([[1, 0], [-1, 0]], [1, 1]),
                  lg.FullSpace(3)]
        for body in bodies:
            doc = lg.body_to_document(body)
            back = lg.body_from_document(doc)
            assert back.kind == body.kind and back.dim == body.dim

    def test_bit_exact_floats(self):
        x = 0.1 + 0.2  # not representable as a round decimal
        doc = {"kind": "ball", "dim": 1, "radius": x, "center": [0.0]}
        assert lg.body_from_document(doc).radius == x

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            lg.body_from_document({"kind": "ball", "dim": 3, "radius": 1.0,
                                   "center": [0.0, 0.0]})

    def test_unknown_kind(self):
        with pytest.raises(InvalidBodyError):
            lg.body_from_document({"kind": "simplex", "dim": 2})
