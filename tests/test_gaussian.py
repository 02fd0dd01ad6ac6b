"""Normal machinery, measures, and calibration."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

import latgauss as lg
import latgauss.convex
from latgauss.errors import CalibrationError, InvalidBodyError, UnsupportedBodyError
from latgauss.gaussian import SERIES_TERM_CAP, _polygon_measures, measure_slices

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
            lg.calibrate_scale(simplex, 0.5)

    def test_asymmetric_polygon_calibrates_by_its_closed_form(self):
        # the 2-d counterpart has Owen's T closed form, so it needs no gauge
        triangle = lg.HPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.5, 0.5, 1.0])
        s = lg.calibrate_scale(triangle, 0.5)
        assert lg.measure_exact(triangle.scale(s)).value == pytest.approx(0.5, abs=1e-12)

    def test_series_past_its_cap_calibrates_by_the_gauge(self):
        # closed form at s = 1, but the bracket reaches scales past the cap
        body = lg.Ellipsoid([0.2, 12.0])
        assert lg.measure_exact(body).method == "exact"
        s = lg.calibrate_scale(body, 0.99, samples=4096, seed=2)
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
        s = lg.calibrate_scale(body, target, samples=samples, seed=seed)
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
