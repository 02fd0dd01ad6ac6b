"""Normal machinery, measures, and calibration."""

import hashlib
import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

import latgauss as lg
import latgauss.convex
import latgauss.gaussian
from latgauss.convex import BOUNDARY_ATOL
from latgauss.errors import CalibrationError, InvalidBodyError, UnsupportedBodyError
from latgauss.gaussian import (SERIES_TERM_CAP, _pieces, _polygon_measures, measure_bracket,
                               measure_slices)
from test_convex import THIN_POLYTOPE_3D, TILTED_CUP, symmetric_polytope

THETA_PRINTED = 1.3489795  # reference value the constant must reproduce


class TestCdf:
    def test_zero_is_half(self):
        assert lg.std_normal_cdf(0.0) == 0.5

    def test_theta_half_is_three_quarters(self):
        assert lg.std_normal_cdf(lg.theta() / 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_symmetry_pairs_sum_to_one(self):
        for x in (0.1, 0.7, 1.5, 3.0, 6.0):
            assert lg.std_normal_cdf(x) + lg.std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lg.std_normal_cdf(float("nan"))
        with pytest.raises(ValueError):
            lg.std_normal_cdf(float("inf"))

    def test_strictly_increasing_on_grid(self):
        # strictness is representable while 1 - Phi stays well above float spacing
        xs = np.linspace(-7.0, 7.0, 2001)
        vals = lg.std_normal_cdf(xs)
        assert np.all(np.diff(vals) > 0)

    @given(st.floats(min_value=-6, max_value=6))
    @settings(max_examples=200, derandomize=True)
    def test_matches_erfc_identity(self, x):
        assert lg.std_normal_cdf(x) == pytest.approx(
            0.5 * math.erfc(-x / math.sqrt(2.0)), abs=1e-15)


def _bisect_quantile(p, lo=-12.0, hi=12.0):
    # independent oracle: plain bisection on the CDF
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lg.std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQuantile:
    def test_half_is_zero(self):
        assert lg.std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_three_quarters_is_half_theta(self):
        # half of the printed constant
        assert lg.std_normal_quantile(0.75) == pytest.approx(THETA_PRINTED / 2.0, abs=1e-6)
        assert lg.std_normal_quantile(0.75) == pytest.approx(0.67448975, abs=1e-8)

    def test_round_trip_log_grid(self):
        ps = np.concatenate([np.logspace(-8, -0.31, 60), 1.0 - np.logspace(-8, -0.31, 60)])
        for p in ps:
            assert abs(lg.std_normal_cdf(lg.std_normal_quantile(p)) - p) < 1e-10

    def test_against_bisection_oracle(self):
        for p in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.9999, 1 - 1e-6):
            assert lg.std_normal_quantile(p) == pytest.approx(_bisect_quantile(p), abs=1e-9)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                lg.std_normal_quantile(p)

    @given(st.floats(min_value=1e-7, max_value=1 - 1e-7))
    @settings(max_examples=200, derandomize=True)
    def test_round_trip_property(self, p):
        assert abs(lg.std_normal_cdf(lg.std_normal_quantile(p)) - p) < 1e-10


class TestTheta:
    def test_printed_value(self):
        assert lg.theta() == pytest.approx(THETA_PRINTED, abs=1e-6)

    def test_interval_identity(self):
        th = lg.theta()
        assert lg.measure_interval(-th / 2.0, th / 2.0) == pytest.approx(0.5, abs=1e-10)

    def test_quadrature_identity(self):
        # independent adaptive-quadrature oracle for the defining integral
        th = lg.theta()
        val, err = integrate.quad(lambda t: math.exp(-t * t / 2.0), 0.0, th / 2.0,
                                  epsabs=1e-13)
        assert val == pytest.approx(math.sqrt(2.0 * math.pi) / 4.0, abs=1e-9)

    def test_literal_is_the_quantile_bitwise(self):
        # theta is a literal so the import needs no special function; it must
        # be the very float the quantile gives, or record bits would move
        assert lg.theta() == 2.0 * lg.std_normal_quantile(0.75)

    def test_literal_is_correctly_rounded(self):
        with mp.workdps(40):
            exact = 2 * mp.sqrt(2) * mp.erfinv(mp.mpf(1) / 2)
            assert abs(mp.mpf(lg.theta()) - exact) <= math.ulp(lg.theta())


class TestMeasureInterval:
    def test_half_line(self):
        assert lg.measure_interval(-math.inf, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate(self):
        assert lg.measure_interval(1.3, 1.3) == 0.0

    def test_full_line(self):
        assert lg.measure_interval(-math.inf, math.inf) == 1.0

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            lg.measure_interval(1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.3), (1e-3, 2e-3), (0.5, 2.0), (3.0, 8.0),
                                        (6.0, 6.01), (7.9, 8.0), (8.0, 8.001)])
    def test_upper_tail_is_the_mirror_of_the_lower_tail(self, lo, hi):
        # as 1 - (value near 1) - (value near 1), [6, 6.01] was off by 6.7e-7
        # relative and [8, 8.001] read 0
        up, down = lg.measure_interval(lo, hi), lg.measure_interval(-hi, -lo)
        assert abs(up - down) <= 1e-13 * down
        quad, _ = integrate.quad(lg.std_normal_pdf, lo, hi, epsabs=0.0, epsrel=1e-13)
        assert up == pytest.approx(quad, rel=1e-12)

    def test_arrays_are_measured_element_by_element(self):
        lo = np.array([-math.inf, -2.0, 0.0, 3.0, -8.001, 1.3])
        hi = np.array([0.0, -0.5, 0.3, 8.0, -8.0, 1.3])
        values = lg.measure_interval(lo, hi)
        assert values.shape == lo.shape
        assert [v.hex() for v in values.tolist()] == [
            lg.measure_interval(a, b).hex() for a, b in zip(lo.tolist(), hi.tolist())]
        with pytest.raises(ValueError):
            lg.measure_interval(lo, hi - 1.0)


class TestMeasureExact:
    def test_theta_square(self):
        th = lg.theta()
        est = lg.measure_exact(lg.AxisBox([th / 2.0, th / 2.0]))
        assert est.method == "exact" and est.half_width == 0.0
        assert est.value == pytest.approx(0.25, abs=1e-12)

    def test_halfspace_through_origin(self):
        for n in (1, 2, 5):
            hs = lg.Halfspace([2.0] + [0.0] * (n - 1), 0.0)
            assert lg.measure_exact(hs).value == pytest.approx(0.5, abs=1e-15)

    def test_ball_half_mass(self):
        r = math.sqrt(2.0 * math.log(2.0))
        assert lg.measure_exact(lg.Ball(r, dim=2)).value == pytest.approx(0.5, abs=1e-12)

    def test_slab_uses_product_form(self):
        th = lg.theta()
        slab = lg.AxisBox([th / 2.0, math.inf])
        assert lg.measure_exact(slab).value == pytest.approx(0.5, abs=1e-12)

    def test_unsupported_kind_raises(self):
        poly = lg.HPolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(UnsupportedBodyError):
            lg.measure_exact(poly)

    @pytest.mark.parametrize("body, lo, hi", [
        (lg.Ellipsoid([0.8]), -0.8, 0.8),
        (lg.Ball(0.5, center=[2.0]), 1.5, 2.5),
        # x <= 1.6 / 2, x >= -0.5, x >= -1 / 4, each end moved by the membership tolerance
        (lg.HPolytope([[2.0], [-1.0], [-4.0]], [1.6, 0.5, 1.0]), -0.25 - 2.5e-13, 0.8 + 5e-13),
        (lg.HPolytope([[1.0], [3.0]], [0.3, 3.0]), -math.inf, 0.3 + 1e-12),
    ], ids=["ellipsoid", "off-center-ball", "polytope", "half-line-polytope"])
    def test_one_dimensional_body_is_its_interval(self, body, lo, hi):
        est = lg.measure_exact(body)
        assert est.method == "exact"
        assert est.value == pytest.approx(lg.measure_interval(lo, hi), abs=1e-15)
        mc = lg.measure_mc(body, 1 << 16, seed=3)
        assert mc.lower <= est.value <= mc.upper


def _interval_reference(lo, hi):
    """gamma_1([lo, hi]) as a difference of upper tails, mirrored below 0."""
    near, far = (lo, hi) if lo >= 0.0 else (-hi, -lo)
    return 0.5 * special.erfc(near / math.sqrt(2.0)) - 0.5 * special.erfc(far / math.sqrt(2.0))


def _ruben_reference(semiaxes):
    """Ruben's series for a centred ellipsoid in 30-digit mpmath, summed until
    the remaining weight times the next chi-square CDF is below 1e-25."""
    with mp.workdps(30):
        lam = [1 / mp.mpf(float(a)) ** 2 for a in semiaxes]
        beta, n = min(lam), len(lam)

        def cdf(k):  # F_{n+2k}(1 / beta)
            return mp.gammainc(mp.mpf(n) / 2 + k, 0, 1 / (2 * beta), regularized=True)

        c, g = [mp.fprod(mp.sqrt(beta / x) for x in lam)], [None]
        total = c[0] * cdf(0)
        while (1 - mp.fsum(c)) * cdf(len(c)) > mp.mpf(1e-25):
            k = len(c)
            g.append(mp.fsum((1 - beta / x) ** k for x in lam))
            c.append(mp.fsum(g[k - j] * c[j] for j in range(k)) / (2 * k))
            total += c[k] * cdf(k)
        return float(total)


def reference_measure(body):
    """The closed forms of ``measure_exact`` one scalar body at a time, as
    they were once written; ``measure_slices`` must reproduce them bit for
    bit, except Ruben's series for ellipsoids (to rounding)."""
    if isinstance(body, lg.AxisBox):  # inf semiwidths contribute factor 1
        value = float(np.prod(2.0 * lg.std_normal_cdf(body.semiwidths) - 1.0))
    elif isinstance(body, lg.Halfspace):
        value = lg.std_normal_cdf(body.offset / float(np.linalg.norm(body.normal)))
    elif isinstance(body, lg.Ball) and body.symmetric:
        value = float(special.gammainc(body.dim / 2.0, body.radius**2 / 2.0))
    elif isinstance(body, lg.FullSpace):
        value = 1.0
    elif isinstance(body, lg.Ball) and body.dim > 1:
        value = float(special.chndtr(body.radius**2, body.dim, body.center @ body.center))
    elif isinstance(body, lg.Ellipsoid) and body.dim > 1:
        value = _ruben_reference(body.semiaxes)
    elif isinstance(body, (lg.Ball, lg.Ellipsoid)):  # 1-d
        value = _interval_reference(*body.last_axis_extent())
    else:  # a 1-d H-polytope: its facet ratios under the membership tolerance
        normals = body.normals[:, 0]
        ends = (body.offsets + 1e-12) / normals
        value = _interval_reference(max(ends[normals < 0.0], default=-math.inf),
                                    min(ends[normals > 0.0], default=math.inf))
    return min(max(float(value), 0.0), 1.0)


def _seeded_closed_form_bodies(seed):
    """One body of every kind and dimension with a closed form, drawn from seed."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.2, 3.0, 5)
    widths[rng.random(5) < 0.3] = math.inf
    normals = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.3, 2.0, 4)
    return [
        *(lg.AxisBox(widths[:n]) for n in (1, 3, 5)),
        *(lg.Halfspace(rng.standard_normal(n), rng.uniform(-1.0, 1.0)) for n in (1, 2, 4)),
        *(lg.Ball(rng.uniform(0.2, 3.0), dim=n) for n in (1, 2, 5)),
        lg.FullSpace(3),
        lg.Ball(rng.uniform(0.2, 1.5), center=[rng.uniform(-2.0, 2.0)]),
        lg.Ellipsoid([rng.uniform(0.2, 3.0)]),
        lg.HPolytope(normals[:, None], rng.uniform(0.2, 2.0, 4)),
        lg.HPolytope(np.abs(normals)[:, None], rng.uniform(0.2, 2.0, 4)),  # a half-line
        *(lg.Ball(rng.uniform(1.0, 2.0), center=rng.uniform(-0.5, 0.5, n)) for n in (2, 3, 4)),
        *(lg.Ellipsoid(rng.uniform(0.5, 1.5, n)) for n in (2, 3, 4)),
    ]


class TestClosedFormsWrittenOnce:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_row_family_matches_the_scalar_reference(self, seed):
        bodies = _seeded_closed_form_bodies(seed)
        for s in np.random.default_rng(100 + seed).uniform(0.1, 4.0, 4):
            for body in bodies:
                got = measure_slices(body.as_family(s))
                ref = reference_measure(body.scale(s))
                assert got.shape == (1,)
                if isinstance(body, lg.Ellipsoid) and body.dim > 1:
                    assert abs(got[0] - ref) <= 1e-15, (body, s)
                else:
                    assert float(got[0]).hex() == ref.hex(), (body, s)
                assert lg.measure_exact(body.scale(s)).value.hex() == float(got[0]).hex()

    @pytest.mark.parametrize("body, named", [
        (lg.HPolytope(np.vstack([np.eye(3), -np.eye(3)]), [1.0] * 6), "3-d hpolytope"),
        (lg.Ellipsoid([0.674, 67.4]), f"2-d ellipsoid within {SERIES_TERM_CAP} series terms"),
        (lg.HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1.0] * 3),
         "2-d hpolytope with an unbounded side"),
        (lg.OracleBody(2, lambda pts: np.linalg.norm(pts, axis=1) <= 1.0, 1.0), "2-d oracle"),
    ], ids=["hpolytope-3d", "ellipsoid-2d", "hpolytope-2d", "oracle"])
    def test_no_closed_form_names_the_body(self, body, named):
        # an oracle has no family at all; the others have one with no closed
        # form, or (an ellipsoid of aspect 100) a series past its term cap, or
        # (a polygon open downwards) an edge that runs off to infinity
        with pytest.raises(UnsupportedBodyError, match=f"^no closed form for a {named}$"):
            measure_slices(body.as_family())
        with pytest.raises(UnsupportedBodyError, match=named):
            lg.measure_exact(body)

    def test_one_row_mask_is_read_only(self):
        family = lg.AxisBox([1.0, 2.0]).as_family()
        with pytest.raises(ValueError):
            family.present[0] = False


class TestMeasureMC:
    def test_box_cross_check(self):
        th = lg.theta()
        box = lg.AxisBox([th / 2.0, th / 2.0])
        est = lg.measure_mc(box, 10**6, seed=4)
        assert abs(est.value - 0.25) <= 3.0 * est.half_width

    def test_full_space_is_one(self):
        est = lg.measure_mc(lg.FullSpace(3), 2000, seed=0)
        assert est.value == 1.0 and est.half_width == 0.0

    def test_deterministic_per_seed(self):
        box = lg.AxisBox([1.0, 1.0])
        a = lg.measure_mc(box, 50_000, seed=9)
        b = lg.measure_mc(box, 50_000, seed=9)
        assert a.value == b.value and a.half_width == b.half_width

    def test_rotated_box_matches_axis_aligned(self):
        # rotation invariance: oracle is the exact measure of the unrotated box
        widths = np.array([0.8, 1.3])
        angle = 0.63
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        normals = np.vstack([rot, -rot])
        offsets = np.concatenate([widths, widths])
        rotated = lg.HPolytope(normals, offsets)
        exact = lg.measure_exact(lg.AxisBox(widths)).value
        est = lg.measure_mc(rotated, 200_000, seed=11)
        assert abs(est.value - exact) <= 3.0 * est.half_width

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            lg.measure_mc(lg.FullSpace(1), 10, seed=0)

    def test_within_three_half_widths_across_seeds(self):
        # spec demands >= 99% of seeded runs inside 3 half-widths
        th = lg.theta()
        bodies = [lg.AxisBox([th / 2.0, th / 2.0]),
                  lg.Ball(1.1, dim=3),
                  lg.Halfspace([0.3, -1.2], 0.4)]
        failures = 0
        runs = 0
        for body in bodies:
            exact = lg.measure_exact(body).value
            for seed in range(20):
                est = lg.measure_mc(body, 20_000, seed=seed)
                runs += 1
                if abs(est.value - exact) > 3.0 * est.half_width:
                    failures += 1
        assert failures <= max(1, runs // 100)


class TestCalibrate:
    def test_ball_half_mass_closed_form(self):
        s = lg.calibrate_scale(lg.Ball(1.0, dim=2), 0.5)
        assert s == pytest.approx(math.sqrt(2.0 * math.log(2.0)), abs=1e-9)

    def test_unit_square_closed_form(self):
        # 1-d quantile composition oracle: (2*Phi(s/2) - 1)^2 = 1/2
        expected = 2.0 * lg.std_normal_quantile((1.0 + 2.0 ** -0.5) / 2.0)
        s = lg.calibrate_scale(lg.AxisBox([0.5, 0.5]), 0.5)
        assert s == pytest.approx(expected, abs=1e-9)

    def test_fixed_point(self):
        body = lg.Ball(1.4, dim=2)
        target = lg.measure_exact(body).value
        s = lg.calibrate_scale(body, target)
        assert s == pytest.approx(1.0, abs=1e-7)

    def test_rejects_target_out_of_range(self):
        with pytest.raises(ValueError):
            lg.calibrate_scale(lg.Ball(1.0, dim=1), 1.5)

    def test_halfspace_unreachable_target(self):
        # a halfspace with positive offset has measure in (1/2, 1)
        with pytest.raises(CalibrationError):
            lg.calibrate_scale(lg.Halfspace([1.0], 0.5), 0.3)

    def test_off_center_ball_has_no_gauge(self):
        # its calibration needs none: the root of its noncentral chi-square CDF
        ball = lg.Ball(1.0, center=[0.3, 0.0])
        with pytest.raises(InvalidBodyError):
            ball.gauge_many(np.zeros((1, 2)))
        s = lg.calibrate_scale(ball, 0.5)
        assert lg.measure_exact(ball.scale(s)).value == pytest.approx(0.5, abs=1e-12)

    def test_asymmetric_body_without_closed_form_has_no_gauge(self):
        simplex = lg.HPolytope([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
                                [1.0, 1.0, 1.0]], [0.5, 0.5, 0.5, 1.0])
        with pytest.raises(InvalidBodyError):
            lg.gauge_quantile(simplex, 0.5, 4096, 0)

    @pytest.mark.parametrize("body", [
        symmetric_polytope(3, 2),
        lg.OracleBody(2, lambda pts: np.linalg.norm(pts, axis=1) <= 1.0, 1.0,
                      symmetric_flag=True),
    ], ids=["hpolytope-3d", "oracle"])
    def test_root_needs_a_closed_form(self, body):
        # the root has no draw to fall back on; such bodies take gauge_quantile
        with pytest.raises(UnsupportedBodyError):
            lg.calibrate_scale(body, 0.5)
        assert lg.gauge_quantile(body, 0.5, 4096, 0) > 0.0

    @pytest.mark.parametrize("body", [lg.Ball(1.0, dim=1), lg.Ball(0.7, dim=3),
                                      lg.AxisBox([0.5, 1.5]), lg.AxisBox([3.0, 2.5, 4.0])],
                             ids=["ball-1d", "ball-3d", "box-2d", "box-3d"])
    @pytest.mark.parametrize("target", [0.05, 0.505, 0.8, 0.99])
    def test_root_measures_each_scale_once(self, body, target, monkeypatch):
        # the bracket search and brentq share one set of values: no scale is
        # measured twice (without it these runs repeat 3 to 6 scales each)
        sizes = []  # a dilate's radius or first semiwidth, one per scale
        measure = latgauss.gaussian.measure_slices

        def counted(family):
            sizes.append(float((family.radii if isinstance(body, lg.Ball)
                                else family.semiwidths)[0]))
            return measure(family)

        monkeypatch.setattr(latgauss.gaussian, "measure_slices", counted)
        lg.calibrate_scale(body, target)
        assert len(sizes) == len(set(sizes)) <= 20

    def test_seeded_box_and_ball_scales_are_pinned(self):
        # sha256 of the scales, pinned while the root measured some scales
        # twice: sharing the values leaves every scale bitwise as it was
        rng = np.random.default_rng(7)
        scales = []
        for n in (1, 2, 3, 4):
            for _ in range(20):
                target = rng.uniform(0.505, 0.8)
                box = lg.AxisBox(rng.uniform(0.5, 1.5, size=n))
                scales += [lg.calibrate_scale(box, target),
                           lg.calibrate_scale(lg.Ball(1.0, dim=n), target)]
        assert hashlib.sha256(np.array(scales).tobytes()).hexdigest() == (
            "64be0f3745f8342f567a81366a466b597bfd5afb89e940afb1539ccda725bb9b")

    def test_asymmetric_polygon_calibrates_by_its_closed_form(self):
        # the 2-d counterpart has Owen's T closed form, so it needs no gauge
        triangle = lg.HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.5, 0.5, 1.0])
        s = lg.calibrate_scale(triangle, 0.5)
        assert lg.measure_exact(triangle.scale(s)).value == pytest.approx(0.5, abs=1e-12)

    def test_series_past_its_cap_calibrates_by_the_gauge(self):
        # closed form at s = 1, but the bracket reaches scales past the cap
        body = lg.Ellipsoid([0.2, 12.0])
        assert lg.measure_exact(body).method == "exact"
        with pytest.raises(UnsupportedBodyError):
            lg.calibrate_scale(body, 0.99)
        s = lg.gauge_quantile(body, 0.99, 4096, 2)
        est = lg.measure_mc(body.scale(s), 4096, 2)
        assert round(est.value * 4096) == math.ceil(0.99 * 4096)


_widths = st.floats(min_value=0.2, max_value=3.0)


def _symmetric_polytope(draw, dim: int):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normals = rng.standard_normal((dim + draw(st.integers(0, 3)), dim))
    return lg.HPolytope(np.vstack([normals, -normals]),
                        np.tile(rng.uniform(0.5, 1.5, len(normals)), 2))


_semiaxes = st.floats(min_value=0.5, max_value=2.0)  # as the benchmark draws them


@st.composite
def _exact_bodies(draw):
    """(body, target) pairs of every kind with a closed-form measure."""
    kind = draw(st.sampled_from(["ball", "off-centre-ball", "box", "slab", "halfspace",
                                 "ellipsoid", "hpolytope"]))
    dim = draw(st.integers(1, 5))
    target = draw(st.floats(min_value=0.01, max_value=0.99))
    # a 1-d H-polytope is an interval, a 2-d one a polygon
    if kind == "ellipsoid":
        return lg.Ellipsoid(draw(st.lists(_semiaxes, min_size=dim, max_size=dim))), target
    if kind == "hpolytope":
        return _symmetric_polytope(draw, min(dim, 2)), target
    if kind == "ball":
        return lg.Ball(draw(_widths), dim=dim), target
    if kind == "off-centre-ball":  # the origin inside, so dilates grow
        unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
                    .filter(lambda v: np.linalg.norm(v) > 0.1))
        r = draw(_widths)
        shift = draw(st.floats(0.05, 0.9)) * r / float(np.linalg.norm(unit))
        return lg.Ball(r, center=shift * np.asarray(unit)), target
    if kind == "halfspace":
        normal = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
                      .filter(lambda v: np.linalg.norm(v) > 0.1))
        return lg.Halfspace(normal, draw(_widths)), max(target, 0.51)
    widths = draw(st.lists(_widths, min_size=dim, max_size=dim))
    if kind == "slab":
        unbounded = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        widths = [math.inf if u and i > 0 else w
                  for i, (w, u) in enumerate(zip(widths, unbounded))]
    return lg.AxisBox(widths), target


@st.composite
def _gauge_bodies(draw):
    """Symmetric bodies without a closed form: H-polytopes past the plane."""
    return _symmetric_polytope(draw, draw(st.integers(3, 4)))


class TestCalibrateRoundTrip:
    @given(_exact_bodies())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_exact_kinds_hit_target_to_machine_precision(self, case):
        body, target = case
        s = lg.calibrate_scale(body, target)
        assert abs(lg.measure_exact(body.scale(s)).value - target) <= 1e-12

    @given(_gauge_bodies(), st.floats(min_value=0.05, max_value=0.95),
           st.integers(1000, 40_000), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_gauge_kinds_hit_the_order_statistic(self, body, target, samples, seed):
        s = lg.gauge_quantile(body, target, samples, seed)
        est = lg.measure_mc(body.scale(s), samples, seed)
        assert round(est.value * samples) == math.ceil(target * samples)


def _mp_ellipsoid(semiaxes):
    """gamma_n of a centred ellipsoid by 20-digit mpmath quadrature, n <= 4.

    The last axis, or the polar radius of the last two when their semiaxes
    are equal, is integrated after the substitution a sin(t), so the
    integrand is smooth; the rest of the ellipsoid, scaled by cos(t), is
    measured the same way, down to an erf.
    """
    a = [mp.mpf(x) for x in semiaxes]
    if len(a) == 1:
        return mp.erf(a[0] / mp.sqrt(2))
    polar = len(a) >= 3 and a[-1] == a[-2]
    b, head = a[-1], a[:-2] if polar else a[:-1]

    def integrand(t):
        x, c = b * mp.sin(t), mp.cos(t)
        density = x * mp.exp(-x * x / 2) if polar else mp.npdf(x)
        return density * b * c * _mp_ellipsoid([h * c for h in head])

    return mp.quad(integrand, [0 if polar else -mp.pi / 2, mp.pi / 2], method="gauss-legendre")


def _mp_off_centre_ball(radius, center):
    """gamma_n(B(c, r)) as the Poisson mixture of chi-square CDFs in mpmath."""
    mu, x = mp.mpf(float(np.dot(center, center))) / 2, mp.mpf(radius) ** 2 / 2
    return mp.nsum(lambda j: mp.exp(-mu) * mu**j / mp.factorial(j)
                   * mp.gammainc(mp.mpf(len(center)) / 2 + j, 0, x, regularized=True),
                   [0, mp.inf])


class TestSeriesAndNoncentralForms:
    @pytest.mark.parametrize("body", [
        lg.Ellipsoid([0.8, 1.9]), lg.Ellipsoid([0.3, 2.4]), lg.Ellipsoid([1.7, 0.05]),
        lg.Ellipsoid([0.8, 1.9, 1.3]), lg.Ellipsoid([1.4, 0.6, 0.6]),
        lg.Ellipsoid([0.7, 1.6, 1.1, 1.1]),
        lg.Ball(1.2, center=[0.3, -0.4]), lg.Ball(0.6, center=[2.5, 1.0]),
        lg.Ball(1.5, center=[0.2, 0.9, -0.3]), lg.Ball(2.0, center=[0.5, 0.5, 0.5, -1.0]),
    ], ids=["ellipse", "thin-ellipse", "needle-ellipse", "ellipsoid-3d", "spheroid-3d",
            "ellipsoid-4d", "ball-2d", "far-ball-2d", "ball-3d", "ball-4d"])
    def test_matches_mpmath_reference(self, body):
        with mp.workdps(20):
            ref = (_mp_ellipsoid(body.semiaxes) if isinstance(body, lg.Ellipsoid)
                   else _mp_off_centre_ball(body.radius, body.center))
            assert abs(lg.measure_exact(body).value - ref) <= 1e-15

    @given(st.lists(_semiaxes, min_size=2, max_size=5).flatmap(
        lambda a: st.tuples(st.just(a), st.permutations(a))))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_semiaxis_permutation_keeps_the_measure(self, axes):
        a, b = (lg.measure_exact(lg.Ellipsoid(x)).value for x in axes)
        assert abs(a - b) <= 1e-15

    @given(st.integers(2, 6), _widths)
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_equal_semiaxes_are_the_ball(self, dim, r):
        assert (lg.measure_exact(lg.Ellipsoid([r] * dim)).value
                == lg.measure_exact(lg.Ball(r, dim=dim)).value)

    @given(st.lists(_semiaxes, min_size=2, max_size=5), st.floats(0.01, 0.99))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_calibration_round_trips(self, semiaxes, target):
        body = lg.Ellipsoid(semiaxes)
        s = lg.calibrate_scale(body, target)
        assert abs(lg.measure_exact(body.scale(s)).value - target) <= 1e-12

    @given(st.integers(2, 4), st.floats(0.45, 2.0), st.data())
    @settings(max_examples=5, derandomize=True, deadline=None)
    def test_aspect_100_falls_back_to_monte_carlo(self, dim, short, data):
        middle = data.draw(st.lists(st.floats(short, 100.0 * short),
                                    min_size=dim - 2, max_size=dim - 2))
        body = lg.Ellipsoid([short, *middle, 100.0 * short])
        with pytest.raises(UnsupportedBodyError, match=f"within {SERIES_TERM_CAP} series terms"):
            lg.measure_exact(body)
        seconds = []
        for _ in range(3):  # the best of three, against a busy host
            start = time.perf_counter()
            est = lg.measure_auto(body)
            seconds.append(time.perf_counter() - start)
            assert est.method == "monte-carlo"
        assert min(seconds) < 0.05


def _mp_polygon(normals, offsets):
    """gamma_2 of {x : N x <= c + 1e-12} in 30-digit mpmath: the vertices are
    the feasible crossings of facet pairs, and the slice measure
    phi(y) * (Phi(R(y)) - Phi(L(y))) is integrated between consecutive
    vertex heights, where it is smooth."""
    with mp.workdps(30):
        N = [[mp.mpf(float(a)) for a in row] for row in normals]
        c = [mp.mpf(float(x)) + mp.mpf(1e-12) for x in offsets]
        heights = set()
        for j in range(len(N)):
            for k in range(j + 1, len(N)):
                det = N[j][0] * N[k][1] - N[j][1] * N[k][0]
                if det == 0:
                    continue
                x = (c[j] * N[k][1] - c[k] * N[j][1]) / det
                y = (N[j][0] * c[k] - N[k][0] * c[j]) / det
                if all(a * x + b * y <= ci + mp.mpf(1e-25) for (a, b), ci in zip(N, c)):
                    heights.add(y)

        def slice_measure(y):
            lo, hi = -mp.inf, mp.inf
            for (a, b), ci in zip(N, c):
                if a > 0:
                    hi = min(hi, (ci - b * y) / a)
                elif a < 0:
                    lo = max(lo, (ci - b * y) / a)
            return mp.npdf(y) * (mp.ncdf(hi) - mp.ncdf(lo)) if hi > lo else mp.mpf(0)

        return float(mp.quad(slice_measure, sorted(heights))) if heights else 0.0


_HEXAGON = [[1.0, 0.0], [0.5, math.sqrt(0.75)], [-0.5, math.sqrt(0.75)],
            [-1.0, 0.0], [-0.5, -math.sqrt(0.75)], [0.5, -math.sqrt(0.75)]]


def _polygon(normals, offsets):
    """The polygon as a one-row family, which may be empty (an HPolytope may not)."""
    return latgauss.convex.PolytopeSlices(2, np.ones(1, dtype=bool), np.asarray(normals, float),
                                          np.asarray(offsets, float)[None, :])


@st.composite
def _polygons(draw):
    """(normals, offsets) of a polygon: pairs of opposite facets, so it is
    bounded, with offsets that may leave the origin outside or empty it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normals = rng.standard_normal((draw(st.integers(2, 4)), 2))
    lengths = np.tile(np.linalg.norm(normals, axis=1), 2)
    return np.vstack([normals, -normals]), rng.uniform(-0.5, 1.5, len(lengths)) * lengths


class TestPolygonMeasure:
    @pytest.mark.parametrize("normals, offsets", [
        (_HEXAGON, [1.1] * 6),
        ([[0.0, -1.0], [1.0, 1.0], [-1.0, 1.0]], [0.0, 1.0, 1.0]),  # the origin on an edge
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-5.0, 5.3, 1.0, 1.0]),  # far off
        ([[1.0, 0.5], [-1.0, -0.5], [0.0, 1.0], [0.0, -1.0]], [1e-7, 1e-7, 1.0, 1.0]),
        # a repeated facet, a scaled one, a redundant parallel one, two on one line
        ([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
          [0.0, -1.0], [0.0, -3.0]], [1.0, 1.0, 2.0, 1.5, 0.5, 0.7, 0.9, 2.7]),
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-1.0, -1.0, 1.0, 1.0]),  # empty
    ], ids=["hexagon", "triangle", "far-square", "sliver", "parallel-facets", "empty"])
    def test_matches_mpmath_reference(self, normals, offsets):
        got = measure_slices(_polygon(normals, offsets))[0]
        assert abs(got - _mp_polygon(normals, offsets)) <= 1e-15

    def test_empty_polygon_measures_zero(self):
        assert measure_slices(_polygon([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                                       [-1.0, -1.0, 1.0]))[0] == 0.0

    def test_unbounded_polygon_is_sampled(self):
        wedge = lg.HPolytope([[1.0, 1.0], [-1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(UnsupportedBodyError, match="with an unbounded side"):
            lg.measure_exact(wedge)
        est = lg.measure_auto(wedge, samples=1 << 16, seed=4)
        assert est.method == "monte-carlo"
        assert abs(est.value - _mp_polygon([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                                           [1.0, 1.0, 40.0])) <= 3.0 * est.half_width

    def test_family_rows_are_their_one_row_values_bitwise(self):
        rng = np.random.default_rng(8)
        normals = rng.standard_normal((4, 2))
        normals = np.vstack([normals, -normals])
        offsets = rng.uniform(-0.3, 2.0, (300, 8))
        family = latgauss.convex.PolytopeSlices(2, rng.random(300) < 0.9, normals, offsets)
        values = measure_slices(family)
        assert np.count_nonzero(values) > 150
        for i, value in enumerate(values):
            alone = measure_slices(_polygon(normals, offsets[i]))[0] if family.present[i] else 0.0
            assert value.hex() == alone.hex(), i

    @given(_polygons(), st.floats(-math.pi, math.pi))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_rotation_keeps_the_measure(self, polygon, angle):
        normals, offsets = polygon
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        a, b = (measure_slices(_polygon(n, offsets))[0] for n in (normals, normals @ rot.T))
        assert abs(a - b) <= 2e-15

    @given(_polygons(), st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_facet_permutation_and_duplication_keep_the_measure(self, polygon, data):
        normals, offsets = polygon
        m = len(normals)
        order = np.array(data.draw(st.permutations(range(m)))
                         + data.draw(st.lists(st.integers(0, m - 1), max_size=m)))
        a = measure_slices(_polygon(normals, offsets))[0]
        b = measure_slices(_polygon(normals[order], offsets[order]))[0]
        assert abs(a - b) <= 2e-15

    @given(_polygons(), st.lists(st.floats(0.25, 4.0), min_size=8, max_size=8))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_facet_scaling_keeps_the_polygon(self, polygon, factors):
        # (n, c) -> (k n, k c) is the same half-plane; measured without the
        # membership tolerance, which is not scaled with it
        normals, offsets = polygon
        k = np.array(factors[:len(normals)])
        a = _polygon_measures(normals, offsets[None, :])[0]
        b = _polygon_measures(normals * k[:, None], (offsets * k)[None, :])[0]
        assert abs(a - b) <= 2e-15


def _mp_polytope(body):
    """gamma_3 of a 3-d H-polytope, offsets moved out by 1e-12 as for
    membership, by mpmath quadrature over x_1 of its exact polygon sections,
    split at the x_1 of every vertex, between which a section's measure is
    smooth. Every facet normal must leave the x_1 axis."""
    N, c = body.normals, body.offsets + BOUNDARY_ATOL
    heights = set()
    for trio in itertools.combinations(range(len(N)), 3):
        rows = list(trio)
        if abs(np.linalg.det(N[rows])) > 1e-9:
            vertex = np.linalg.solve(N[rows], c[rows])
            if np.all(N @ vertex <= c + 1e-9):
                heights.add(float(vertex[0]))

    def integrand(x):  # measure_slices moves the offsets out by itself
        return mp.npdf(x) * measure_slices(_polygon(N[:, 1:], body.offsets - float(x) * N[:, 0]))[0]

    return float(mp.quad(integrand, sorted(heights)))


def _seeded_polytope_3d(seed):
    """Bench-shaped symmetric polytopes for seeds 0-2, bounded asymmetric ones after."""
    if seed < 3:
        return symmetric_polytope(3, seed)
    rng = np.random.default_rng(seed)
    while True:
        body = lg.HPolytope(rng.standard_normal((8, 3)), rng.uniform(0.3, 1.5, 8))
        if math.isfinite(body.circumradius()):
            return body


class TestEhrhardBracket:
    @pytest.mark.parametrize("a, b, alpha, beta", [
        (-1.3, 0.4, 0.7, -2.1),
        (-math.inf, 0.5, -0.3, 1.7),
        (0.2, math.inf, 1.1, -0.4),
        (-math.inf, math.inf, -0.8, 3.0),
        (-0.9, 1.6, 0.4, 0.0),
        (-0.2, 0.3, 0.05, 1e6),
        (-math.inf, 0.1, -2.0, -1e6),
        (0.0, 1.2, -0.6, 2.5),
        (-1.0, 0.0, 0.9, -3.0),
        (-0.7, 0.8, 0.0, 1.9),
        (0.0, 2.0, 0.0, -0.5),
        (-math.inf, 0.0, 0.0, 4.0),
    ], ids=["finite", "from-minus-inf", "to-plus-inf", "whole-line", "beta-0", "beta-1e6",
            "beta-minus-1e6", "h-0-left", "h-0-right", "k-0", "h-and-k-0", "k-0-to-h-0"])
    def test_piece_matches_mpmath(self, a, b, alpha, beta):
        got = _pieces(np.array([a]), np.array([b]), np.array([alpha]), np.array([beta]))[0]
        points = {a, b}
        if beta:  # split where Phi(alpha + beta t) turns, a near step at |beta| = 1e6
            points |= {t for t in -alpha / beta + np.array([-1e-4, 0.0, 1e-4]) if a < t < b}
        with mp.workdps(30):
            ref = mp.quad(lambda t: mp.npdf(t) * mp.ncdf(alpha + beta * t), sorted(points))
        assert abs(got - float(ref)) <= 1e-15

    def test_axis_box_is_a_product(self):
        low, high = np.array([0.9, 0.8, 1.3]), np.array([0.7, 1.1, 0.4])
        box = lg.HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.concatenate([high, low]))
        exact = np.prod(lg.measure_interval(-low - BOUNDARY_ATOL, high + BOUNDARY_ATOL))
        est = lg.measure_auto(box)
        assert est.method == "bracket" and est.lower <= exact <= est.upper
        assert est.upper - est.lower < 0.02

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["along-e1", "along-e2", "along-e3"])
    def test_prism_is_polygon_times_interval(self, axis):
        hexagon = np.array(_HEXAGON) @ np.array([[1.0, 0.3], [-0.2, 1.0]])
        offsets = [1.1, 0.7, 1.3, 0.9, 1.2, 0.8]
        plane = [k for k in range(3) if k != axis]
        normals = np.zeros((8, 3))
        normals[:6, plane] = hexagon
        normals[6:, axis] = [1.0, -1.0]
        body = lg.HPolytope(normals, offsets + [0.9, 0.6])
        exact = (measure_slices(_polygon(hexagon, offsets))[0]
                 * lg.measure_interval(-0.6 - BOUNDARY_ATOL, 0.9 + BOUNDARY_ATOL))
        est = measure_bracket(body)
        assert est.lower <= exact <= est.upper

    @pytest.mark.parametrize("seed", range(5))
    def test_contains_the_mpmath_value(self, seed):
        body = _seeded_polytope_3d(seed)
        est = measure_bracket(body)
        assert est.lower <= _mp_polytope(body) <= est.upper
        assert est.upper - est.lower < 1e-2

    def test_thin_slab_is_sound(self):
        # every section is a strip of measure about 1e-7; Monte Carlo on
        # 2^16 points takes no hit
        delta = 1e-7 + BOUNDARY_ATOL  # |x_1 + x_3 / 2| <= delta, |x_2|, |x_3| <= 1
        with mp.workdps(30):
            end = 1 + mp.mpf(BOUNDARY_ATOL)
            strip = mp.quad(lambda z: mp.npdf(z) * (mp.ncdf(delta - z / 2) - mp.ncdf(-delta - z / 2)),
                            [-end, 0, end])
            exact = float(strip * (mp.ncdf(end) - mp.ncdf(-end)))
        est = measure_bracket(THIN_POLYTOPE_3D)
        assert est.lower <= exact <= est.upper and est.lower > 0.9 * exact

    def test_falls_back_to_monte_carlo(self):
        # TILTED_CUP runs off along +x_3, so its sections along e_1 are
        # unbounded; a slab of half width about 0.01 across x_1 holds one
        # node. Neither is symmetric, so no correlation bracket takes over
        needle = lg.HPolytope(np.vstack([np.eye(3), -np.eye(3)]), [0.01, 1, 1, 0.012, 1, 1])
        for body, reason in ((TILTED_CUP, "unbounded side"), (needle, "too few nonempty")):
            with pytest.raises(UnsupportedBodyError, match=reason):
                measure_bracket(body)
            assert lg.measure_auto(body, samples=4096).method == "monte-carlo"

    def test_symmetric_needle_takes_the_correlation_bracket(self):
        needle = lg.HPolytope(np.vstack([np.eye(3), -np.eye(3)]), [0.01, 1, 1, 0.01, 1, 1])
        with pytest.raises(UnsupportedBodyError, match="too few nonempty"):
            measure_bracket(needle)
        est = lg.measure_auto(needle, samples=4096)
        assert est == lg.correlation_bracket(needle) and est.samples == 0
        exact = np.prod(lg.measure_interval(-np.array([0.01, 1, 1]) - BOUNDARY_ATOL,
                                            np.array([0.01, 1, 1]) + BOUNDARY_ATOL))
        assert abs(est.lower - exact) <= 1e-13

    @pytest.mark.parametrize("body, method", [(symmetric_polytope(4, 3), "bracket"),
                                              (symmetric_polytope(2, 3), "exact"),
                                              (lg.Ball(1.0, dim=3), "exact")],
                             ids=["4d", "polygon", "ball"])
    def test_only_3d_polytopes_are_bracketed(self, body, method):
        # a symmetric 4-d polytope takes the correlation bracket instead
        with pytest.raises(UnsupportedBodyError, match="no Ehrhard bracket"):
            measure_bracket(body)
        est = lg.measure_auto(body, samples=4096)
        assert est.method == method and est.samples == 0
        if method == "bracket":
            assert est == lg.correlation_bracket(body)


def _mp_rectangle(a, b, u):
    """P(|X| <= a, |Y| <= b) for X = e_1 . Z and Y = u . Z / |u|, Z standard
    normal in the plane, by 30-digit mpmath quadrature over X, split where
    Y's bounds +-b given X pass within a few sigma of it, so a near step is
    resolved. The correlation and sigma are read off u's float entries."""
    with mp.workdps(30):
        a, b = mp.mpf(a), mp.mpf(b)
        norm = mp.hypot(u[0], u[1])
        rho, sigma = mp.mpf(u[0]) / norm, abs(mp.mpf(u[1])) / norm
        steps = {(edge - t * sigma) / rho for edge in (-b, b) for t in (-8, -2, 0, 2, 8)}
        points = sorted({-a, mp.mpf(0), a} | {x for x in steps if -a < x < a})
        return float(mp.quad(lambda x: mp.npdf(x) * (mp.ncdf((b - rho * x) / sigma)
                                                     - mp.ncdf((-b - rho * x) / sigma)),
                             points))


def _slab_polytope(units, widths):
    units = np.asarray(units, dtype=float)
    return lg.HPolytope(np.vstack([units, -units]), np.tile(widths, 2))


class TestCorrelationBracket:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_axis_polytope_is_the_box_product(self, n):
        # every pair of orthogonal slabs is its own product, so the lower
        # end is the box's exact measure, whichever matching is taken and
        # whatever slab it leaves alone at odd n
        widths = np.random.default_rng(n).uniform(0.3, 2.0, n)
        est = lg.correlation_bracket(_slab_polytope(np.eye(n), widths))
        exact = np.prod(lg.measure_interval(-widths - BOUNDARY_ATOL, widths + BOUNDARY_ATOL))
        assert est.method == "bracket" and est.samples == 0
        assert abs(est.lower - exact) <= 1e-13
        assert est.upper >= exact

    @pytest.mark.parametrize("a, b, angle", [
        (0.9, 1.3, 0.7), (1.2, 0.4, 2.9), (0.3, 0.3, 1.5), (2.5, 1.1, 0.05),
        (1.0, 1.0, 1e-6), (0.8, 1.7, math.pi - 1e-7),
    ], ids=["acute", "obtuse", "thin-square", "narrow-angle", "near-duplicate",
            "near-mirror"])
    def test_two_slabs_match_mpmath(self, a, b, angle):
        # one pair is one block, so both ends sit on the rectangle
        units = [[1.0, 0.0], [math.cos(angle), math.sin(angle)]]
        est = lg.correlation_bracket(_slab_polytope(units, [a, b]))
        ref = _mp_rectangle(a + BOUNDARY_ATOL, b + BOUNDARY_ATOL, units[1])
        assert est.lower <= ref <= est.upper
        assert est.upper - est.lower <= 3e-15
        assert abs(est.value - lg.measure_exact(_slab_polytope(units, [a, b])).value) <= 1e-14

    def test_parallel_slabs_take_the_narrower(self):
        # a duplicate, a scaled copy and a wider parallel slab leave the
        # narrowest, in 2-d and in 1-d, where every trial polytope is so
        units = [[1.0, 0.0], [1.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -3.0]]
        body = _slab_polytope(units, [0.9, 0.9, 2.4, 1.1, 4.5])  # widths 0.9, 1.2, 1.1, 1.5
        exact = np.prod(lg.measure_interval(-np.array([0.9, 1.1]) - BOUNDARY_ATOL,
                                            np.array([0.9, 1.1]) + BOUNDARY_ATOL))
        assert abs(lg.correlation_bracket(body).lower - exact) <= 1e-15
        line = _slab_polytope([[1.0], [2.0], [-1.0]], [0.8, 1.2, 0.8])  # widths 0.8, 0.6, 0.8
        assert lg.correlation_scale(line, 0.6) == pytest.approx(
            lg.std_normal_quantile(0.8) / 0.6, rel=1e-12)

    def test_shuffled_facets_give_the_same_bracket(self):
        body = symmetric_polytope(5, 2)
        order = np.random.default_rng(3).permutation(len(body.normals))
        flipped = lg.HPolytope(-body.normals[order], body.offsets[order])
        assert lg.correlation_bracket(flipped) == lg.correlation_bracket(body)

    def test_matching_is_searched_whole_up_to_its_cap(self, monkeypatch):
        # 12 slabs would need 140152 matchings of 66 pairs: past 8 slabs
        # the matching is greedy and no table is built
        assert latgauss.gaussian._matchings(8).shape == (764, 28)
        units = np.random.default_rng(4).standard_normal((12, 4))
        body = _slab_polytope(units, np.linalg.norm(units, axis=1) * 1.6)
        monkeypatch.setattr(latgauss.gaussian, "_matchings", None)
        est = lg.correlation_bracket(body)
        ref = lg.measure_mc(body, 1 << 18, 2)
        assert 0.0 < est.lower <= ref.upper and est.upper >= ref.lower

    @pytest.mark.parametrize("body", [
        lg.HPolytope([[1.0], [-1.0]], [0.5, 0.5]), TILTED_CUP, lg.Ball(1.0, dim=4),
        lg.HPolytope(np.vstack([np.eye(4), -np.eye(4)]), [1.0, 1, 1, 1, 1, 1, 1, 1.0001]),
    ], ids=["interval", "asymmetric", "ball", "mirror-offset-differs"])
    def test_other_bodies_are_unsupported(self, body):
        with pytest.raises(UnsupportedBodyError):
            lg.correlation_bracket(body)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_overlaps_a_large_monte_carlo_interval(self, n):
        for seed in range(2):
            body = symmetric_polytope(n, 10 * n + seed)
            est = lg.correlation_bracket(body)
            ref = lg.measure_mc(body, 1 << 20, seed)
            assert est.lower <= ref.upper and ref.lower <= est.upper, (n, seed)

    def test_overlaps_the_ehrhard_bracket(self):
        # 20 seeded 3-d suite polytopes, measured both ways
        for trial in range(4, 100, 5):
            _, body, _, _ = latgauss.minkowski.generate_theorem_instance(3, 11, trial)
            ehrhard, pairs = measure_bracket(body), lg.correlation_bracket(body)
            assert max(ehrhard.lower, pairs.lower) <= min(ehrhard.upper, pairs.upper), trial
            assert pairs.lower <= ehrhard.lower

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_scale_brings_the_pair_bound_to_its_target(self, n):
        rng = np.random.default_rng(n)
        for target in (0.505, 0.65, 0.8):
            base = symmetric_polytope(n, int(rng.integers(100)))
            s = lg.correlation_scale(base, target)
            est = lg.correlation_bracket(base.scale(s)) if n > 1 else lg.measure_exact(
                base.scale(s))
            assert target - 1e-12 <= est.lower <= target + 1e-9

    def test_scale_needs_a_symmetric_polytope(self):
        with pytest.raises(UnsupportedBodyError):
            lg.correlation_scale(TILTED_CUP, 0.6)
        with pytest.raises(ValueError):
            lg.correlation_scale(symmetric_polytope(3, 1), 1.0)


class TestMeasureEstimateInvariants:
    def test_exact_requires_zero_half_width(self):
        with pytest.raises(ValueError):
            lg.MeasureEstimate(0.5, "exact", half_width=0.1)

    def test_value_range(self):
        with pytest.raises(ValueError):
            lg.MeasureEstimate(1.2, "exact")

    def test_certified_interval(self):
        est = lg.MeasureEstimate(0.6, "monte-carlo", half_width=0.01, samples=10_000)
        assert (est.lower, est.upper) == (0.6 - 3.0 * 0.01, 0.6 + 3.0 * 0.01)
        exact = lg.MeasureEstimate(0.6, "exact")
        assert exact.lower == exact.value == exact.upper
        bracket = lg.MeasureEstimate(0.6, "bracket", half_width=0.01)
        assert (bracket.lower, bracket.upper) == (0.6 - 0.01, 0.6 + 0.01)
