"""Bodies: membership, slices, gauges, combinations, truncation radii."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import latgauss as lg
from latgauss import convex, gaussian
from latgauss.errors import (DimensionMismatchError, InvalidBodyError,
                             UnsupportedCombinationError)


def lp_slice_reference(body, x):
    """H-polytope slice with one Chebyshev-center LP per slice."""
    heads = body.normals[:, :-1]
    cs = body.offsets - body.normals[:, -1] * x
    keep = np.linalg.norm(heads, axis=1) > convex.BOUNDARY_ATOL
    if np.any(cs[~keep] < -convex.BOUNDARY_ATOL):
        return None
    if not np.any(keep):
        return lg.FullSpace(body.dim - 1)
    p = convex._chebyshev_center(heads[keep], cs[keep])
    if p is None:
        return None
    return lg.HPolytope(heads[keep], cs[keep], interior_point=p)


def lp_last_axis_ends(body):
    """Least and greatest last coordinate of an H-polytope, each by an LP;
    None on a side where it is unbounded."""
    ends = []
    for sign in (1.0, -1.0):
        res = scipy.optimize.linprog(c=sign * np.eye(body.dim)[-1], A_ub=body.normals,
                                     b_ub=body.offsets, bounds=[(None, None)] * body.dim,
                                     method="highs")
        ends.append(res.x[-1] if res.status == 0 else None)
    return ends


def scalar_slice_reference(body, x):
    """The slice at x computed one slice at a time, in scalar arithmetic,
    as each body kind computed it before slices were batched; a present
    H-polytope slice is built by ``lp_slice_reference``."""
    if isinstance(body, lg.AxisBox):
        return None if abs(x) > body.semiwidths[-1] + convex.BOUNDARY_ATOL \
            else lg.AxisBox(body.semiwidths[:-1])
    if isinstance(body, lg.Ball):
        r2 = body.radius**2 - (x - body.center[-1])**2
        return None if r2 <= convex.BOUNDARY_ATOL else lg.Ball(math.sqrt(r2), body.center[:-1])
    if isinstance(body, lg.Ellipsoid):
        t = 1.0 - (x / body.semiaxes[-1]) ** 2
        return None if t <= convex.BOUNDARY_ATOL else lg.Ellipsoid(body.semiaxes[:-1] * math.sqrt(t))
    if isinstance(body, lg.Halfspace):
        head, c = body.normal[:-1], body.offset - body.normal[-1] * x
        if np.linalg.norm(head) <= convex.BOUNDARY_ATOL:
            return lg.FullSpace(body.dim - 1) if c >= -convex.BOUNDARY_ATOL else None
        return lg.Halfspace(head, c)
    if isinstance(body, lg.FullSpace):
        return lg.FullSpace(body.dim - 1)
    return None if scalar_polytope_row(body, x) is None else lp_slice_reference(body, x)


def scalar_polytope_row(body, x):
    """Facets (N, c) of the H-polytope slice at x, with no LP, or None where
    the slice is absent: a head-less facet excludes x, or a 1-d slice's facet
    ratios leave no interval of half width > MIN_CHEBYSHEV_RADIUS."""
    heads = body.normals[:, :-1]
    cs = body.offsets - body.normals[:, -1] * x
    keep = np.linalg.norm(heads, axis=1) > convex.BOUNDARY_ATOL
    if np.any(cs[~keep] < -convex.BOUNDARY_ATOL):
        return None
    N, c = heads[keep], cs[keep]
    if body.dim == 2:
        ratios = [ci / ni for ni, ci in zip(N[:, 0], c)]
        lo = max((r for ni, r in zip(N[:, 0], ratios) if ni < 0.0), default=-math.inf)
        hi = min((r for ni, r in zip(N[:, 0], ratios) if ni > 0.0), default=math.inf)
        if not (hi - lo) / 2.0 > convex.MIN_CHEBYSHEV_RADIUS:
            return None
    return N, c


def row_document(family, i):
    """Row i of a slice family in the document form of its kind's body, read
    off the family's arrays (an H-polytope row has no interior point), or
    None where the row is absent."""
    if not family.present[i]:
        return None
    doc = {"kind": family.kind, "dim": family.dim}
    if isinstance(family, convex.BoxSlices):
        doc["semiwidths"] = family.semiwidths.tolist()
    elif isinstance(family, convex.HalfspaceSlices):
        doc.update(normal=family.normal.tolist(), offset=float(family.offsets[i]))
    elif isinstance(family, convex.BallSlices):
        doc.update(radius=float(family.radii[i]), center=family.center[i].tolist())
    elif isinstance(family, convex.EllipsoidSlices):
        doc["semiaxes"] = family.semiaxes[i].tolist()
    elif isinstance(family, convex.PolytopeSlices):
        doc.update(normals=family.normals.tolist(), offsets=family.offsets[i].tolist())
    return doc


def body_document(body):
    """The document of a body, read off its fields (an H-polytope's without
    its interior point)."""
    fields = {"axis_box": ("semiwidths",), "ball": ("radius", "center"),
              "halfspace": ("normal", "offset"), "ellipsoid": ("semiaxes",),
              "hpolytope": ("normals", "offsets"), "space": ()}[body.kind]
    return {"kind": body.kind, "dim": body.dim,
            **{f: np.asarray(getattr(body, f)).tolist() for f in fields}}


def reference_row_document(body, x):
    """The slice of a body at x in document form, as the scalar references
    compute it, or None where it is absent. An H-polytope slice is its
    facets (``scalar_polytope_row``), with no LP, so it may be present yet
    empty."""
    if isinstance(body, lg.HPolytope):
        row = scalar_polytope_row(body, x)
        return None if row is None else {"kind": "hpolytope", "dim": body.dim - 1,
                                         "normals": row[0].tolist(),
                                         "offsets": row[1].tolist()}
    ref = scalar_slice_reference(body, x)
    return None if ref is None else body_document(ref)


def symmetric_polytope(n, seed):
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n + 1, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return lg.HPolytope(np.vstack([normals, -normals]),
                        np.full(2 * n + 2, rng.uniform(0.8, 1.4)))


OFF_ORIGIN_TRIANGLE = lg.HPolytope([[0.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
                                   [0.0, 1.0, 1.0], interior_point=[0.0, 0.5])
# square cross-sections above a tilted floor whose lowest point is the
# vertex (-1, -1, -1); unbounded along +x3
TILTED_CUP = lg.HPolytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0.3, 0.2, -1]],
                          [1, 1, 1, 1, 0.5])
# simplex that excludes the origin, so its interior point is a Chebyshev center
OFF_ORIGIN_SIMPLEX = lg.HPolytope([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
                                  [-0.1, 0.3, 0.1, 1.5])
# a slab of width 2e-7 across a 3-d box: every nonempty slice is a strip
# with Chebyshev radius 1e-7
THIN_POLYTOPE_3D = lg.HPolytope([[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5], [0.0, 1.0, 0.0],
                                 [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                                [1e-7, 1e-7, 1.0, 1.0, 1.0, 1.0])


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
        family = lg.Ball(r, dim=2).slice_at(x)
        assert row_document(family, 0) == reference_row_document(lg.Ball(r, dim=2), x)
        assert family.radii[0] == pytest.approx(math.sqrt(r * r - x * x))

    def test_box_slice(self):
        family = lg.AxisBox([1.5, 0.7]).slice_at(0.69)
        assert isinstance(family, convex.BoxSlices)
        assert family.present[0] and np.array_equal(family.semiwidths, [1.5])
        assert not lg.AxisBox([1.5, 0.7]).slice_at(0.71).present[0]

    def test_halfspace_slice_degenerate(self):
        hs = lg.Halfspace([0.0, 0.0, 1.0], 0.0)  # x3 <= 0
        assert not hs.slice_at(1.0).present[0]
        family = hs.slice_at(-1.0)
        assert isinstance(family, convex.SpaceSlices) and family.present[0]

    def test_halfspace_slice_generic(self):
        hs = lg.Halfspace([1.0, 1.0], 0.5)
        family = hs.slice_at(0.2)
        assert row_document(family, 0) == reference_row_document(hs, 0.2)
        assert family.offsets[0] == pytest.approx(0.3)

    def test_ellipsoid_slice(self):
        e = lg.Ellipsoid([2.0, 1.0])
        family = e.slice_at(0.6)
        assert row_document(family, 0) == reference_row_document(e, 0.6)
        width = 2.0 * math.sqrt(1 - 0.36)
        hits = family.scorer(np.array([[width - 1e-9], [width + 1e-6]]))(0)
        assert hits.tolist() == [True, False]

    def test_polytope_slice_empty_detected(self):
        # triangle with apex at x2 = 1: slicing above is empty
        assert not OFF_ORIGIN_TRIANGLE.slice_at(1.5).present[0]
        family = OFF_ORIGIN_TRIANGLE.slice_at(0.5)
        assert family.present[0] and family.scorer(np.zeros((1, 1)))(0)[0]

    def test_slice_membership_consistency(self):
        rng = np.random.default_rng(3)
        bodies = [lg.Ball(1.5, dim=3), lg.AxisBox([1.0, 0.8, 1.2]),
                  lg.Ellipsoid([1.0, 2.0, 0.7]), lg.Halfspace([0.5, -1.0, 0.25], 0.3),
                  symmetric_polytope(3, 4), OFF_ORIGIN_SIMPLEX]
        for body in bodies:
            pts = rng.normal(0, 1.2, size=(200, 3))
            family = body.slices(pts[:, -1])
            for i, p in enumerate(pts):
                doc = reference_row_document(body, p[-1])
                assert row_document(family, i) == doc
                inside = body.contains(p)
                if doc is None:
                    assert not inside or body.containment_margin(p) <= 1e-6
                elif hasattr(family, "scorer"):  # an H-polytope row may be empty
                    assert family.scorer(p[None, :-1])(i)[0] == inside
                else:
                    assert lg.body_from_document(doc).contains(p[:-1]) == inside

    @pytest.mark.parametrize("body", [
        *(symmetric_polytope(n, seed) for n in (2, 3, 4) for seed in range(3)),
        OFF_ORIGIN_TRIANGLE, OFF_ORIGIN_SIMPLEX, TILTED_CUP, THIN_POLYTOPE_3D,
    ], ids=[*(f"symmetric-{n}d-{seed}" for n in (2, 3, 4) for seed in range(3)),
            "triangle", "simplex", "unbounded", "thin"])
    def test_polytope_slices_match_lp_reference(self, body):
        ends = [e for e in lp_last_axis_ends(body) if e is not None]
        assert len(ends) == (1 if body is TILTED_CUP else 2)
        xs = np.concatenate([np.linspace(-3.0, 3.0, 61), ends,
                             [e + d for e in ends for d in (-1e-9, 1e-9)]])
        family = body.slices(xs)
        score = family.scorer(gaussian.normal_draw(body.dim - 1, 1000, 0))
        for i, x in enumerate(xs):
            ref = lp_slice_reference(body, float(x))
            if ref is None:  # absent, or present with facets that hold no point
                assert not family.present[i] or not score(i).any(), x
                continue
            assert family.present[i], x
            assert np.array_equal(family.normals, ref.normals)
            assert np.array_equal(family.offsets[i], ref.offsets)
            assert family.scorer(ref.interior_point[None, :])(i)[0], x

    @pytest.mark.parametrize("body, count", [
        (lg.Ball(1.37, center=[0.2, -0.1, 0.3]), 20000), (lg.Ball(1.2, dim=2), 20000),
        (lg.Ball(1.1, center=[0.0, 0.0, 0.4]), 20000), (lg.Ellipsoid([1.3, 0.7, 1.9]), 20000),
        (lg.Ellipsoid([0.8, 1.9]), 20000), (lg.AxisBox([0.9, 1.1]), 2000),
        (lg.Halfspace([0.3, -0.2, 0.9], 0.1), 2000), (lg.Halfspace([0.0, 0.0, 2.0], 0.3), 2000),
        (symmetric_polytope(3, 2), 2000), (symmetric_polytope(2, 4), 2000),
    ], ids=["ball", "disk", "ball-centred-head", "ellipsoid", "ellipse", "box", "halfspace",
            "halfspace-along-axis", "polytope", "polygon"])
    def test_slice_family_matches_scalar_slices(self, body, count):
        # the batched squares are libm pow, as the scalar ** 2 was; a plain
        # x * x differs from it in the last bit for about 0.1 % of x, so
        # only many slices show the difference
        xs = np.concatenate([[-2.5, 0.0, 2.5], np.random.default_rng(5).uniform(-2.5, 2.5, count)])
        family = body.slices(xs)
        try:
            measures = gaussian.measure_slices(family)
        except lg.UnsupportedBodyError:
            measures = None
        for i, x in enumerate(xs):
            doc = reference_row_document(body, float(x))
            assert row_document(family, i) == doc, x
            if measures is None:
                continue
            if doc is None:
                assert measures[i] == 0.0, x
            elif isinstance(body, lg.HPolytope):
                # a polytope row, which may be empty, against its own one-row family
                one_row = convex.PolytopeSlices(family.dim, np.ones(1, dtype=bool),
                                                family.normals, family.offsets[i][None, :])
                assert measures[i] == gaussian.measure_slices(one_row)[0], x
            else:
                assert measures[i] == lg.measure_exact(lg.body_from_document(doc)).value, x

    def test_polytope_span_vertices(self):
        assert OFF_ORIGIN_TRIANGLE.last_axis_extent() == pytest.approx((0.0, 1.0), abs=1e-12)
        # higher dimension has no span: callers truncate
        assert TILTED_CUP.last_axis_extent() == (-math.inf, math.inf)
        assert lp_last_axis_ends(TILTED_CUP) == [pytest.approx(-1.0, abs=1e-12), None]

    @pytest.mark.parametrize("body", [
        *(symmetric_polytope(2, seed) for seed in range(6)), OFF_ORIGIN_TRIANGLE,
        lg.HPolytope([[1.0, 1.0], [-1.0, 0.0]], [1.0, 1.0]),  # a wedge open downwards
        lg.HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.5]),  # open upwards
    ], ids=[*(f"symmetric-{seed}" for seed in range(6)), "triangle", "wedge", "cup"])
    def test_polygon_span_needs_no_lp(self, body, monkeypatch):
        # a polygon reads its last-axis extremes off its edges; the LPs agree
        lp = lp_last_axis_ends(body)
        monkeypatch.setattr(scipy.optimize, "linprog", None)
        for end, ref in zip(body.last_axis_extent(), lp):
            assert math.isinf(end) == (ref is None)
            if ref is not None:
                assert end == pytest.approx(ref, abs=1e-12)

    def test_strip_has_no_span_vertex(self):
        # its edges are whole lines: the profile grid falls back to truncation
        strip = lg.HPolytope([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0])
        assert strip.last_axis_extent() == (-math.inf, math.inf)


SECTION_KINDS = ("halfspace", "ball", "off-centre-ball", "ellipsoid", "cylinder", "hpolytope")


@st.composite
def section_cases(draw):
    """(body, origins, frame): a body of one kind with sections, a QR frame of
    m < n orthonormal rows and three random origins (0 for an ellipsoid)."""
    kind = draw(st.sampled_from(SECTION_KINDS))
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "halfspace":
        body = lg.Halfspace(rng.standard_normal(n), rng.uniform(-0.5, 1.0))
    elif kind == "ball":
        body = lg.Ball(rng.uniform(0.5, 2.0), dim=n)
    elif kind == "off-centre-ball":
        body = lg.Ball(rng.uniform(0.5, 2.0), center=rng.normal(0.0, 0.5, n))
    elif kind == "ellipsoid":
        body = lg.Ellipsoid(rng.uniform(0.4, 2.0, n))
    elif kind == "cylinder":  # an axis box with one infinite width
        widths = rng.uniform(0.4, 2.0, n)
        widths[rng.integers(n)] = math.inf
        body = lg.AxisBox(widths)
    else:
        body = lg.HPolytope(rng.standard_normal((n + 3, n)), rng.uniform(0.3, 1.5, n + 3))
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    origins = np.zeros((1, n)) if kind == "ellipsoid" else rng.normal(0.0, 0.6, (3, n))
    return body, origins, q.T


class TestSections:
    @given(section_cases())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_rows_are_the_sections_of_the_body(self, case):
        body, origins, frame = case
        m = len(frame)
        family = body.sections(origins, frame)
        assert family.dim == m and family.present.shape == (len(origins),)
        turn = np.eye(m)
        if isinstance(body, lg.Ellipsoid):  # its rows are in the section's principal axes
            form = frame / body.semiaxes
            turn = np.linalg.eigh(form @ form.T)[1]
        try:
            measures = gaussian.measure_slices(family)
        except lg.UnsupportedBodyError:
            measures = None
        ys = np.random.default_rng(0).normal(0.0, 1.5, (64, m))
        for i, origin in enumerate(origins):
            points = origin + ys @ frame
            clear = np.array([abs(body.containment_margin(p)) > 1e-9 for p in points])
            inside = body.contains_many(points)
            if hasattr(family, "scorer"):
                got = family.scorer(ys @ turn)(i)
            else:
                doc = row_document(family, i)
                got = (np.zeros(len(ys), dtype=bool) if doc is None
                       else lg.body_from_document(doc).contains_many(ys))
            assert np.array_equal(got[clear], inside[clear]), i
            if measures is None:
                continue
            samples = 4096
            est = gaussian.mc_fraction(
                m, lambda pts, o=origin: body.contains_many(o + pts @ frame), samples, i)
            # the half-width of at least one hit or miss, so the edges stay valid
            p = min(max(est.value, 1.0 / samples), 1.0 - 1.0 / samples)
            assert abs(measures[i] - est.value) <= 3.0 * gaussian.Z99 * math.sqrt(
                p * (1.0 - p) / samples), i

    def test_off_centre_ellipsoid_section_refused(self):
        with pytest.raises(lg.UnsupportedBodyError, match="off its centre"):
            lg.Ellipsoid([1.0, 2.0, 0.5]).sections([0.0, 0.1, 0.0], np.eye(3)[1:])

    def test_coordinate_frame_keeps_infinite_widths(self):
        # a cylinder section on a coordinate frame stays a box, exact in any dimension
        family = lg.AxisBox([0.7, math.inf, math.inf, 1.1]).sections(0, np.eye(4)[[3, 1, 0]])
        assert isinstance(family, convex.BoxSlices)
        assert family.semiwidths.tolist() == [1.1, math.inf, 0.7]


class TestGauge:
    def test_ball_gauge_is_norm(self):
        v = np.array([0.3, -0.4])
        assert lg.Ball(1.0, dim=2).gauge(v) == pytest.approx(0.5)

    def test_ellipsoid_gauge(self):
        e = lg.Ellipsoid([2.0, 0.5])
        v = np.array([1.0, 0.25])
        assert e.gauge(v) == pytest.approx(math.sqrt(0.25 + 0.25))

    def test_box_gauge(self):
        assert lg.AxisBox([1.0, 2.0]).gauge([0.5, 1.0]) == pytest.approx(0.5)

    def test_slab_gauge_zero_along_free_axis(self):
        assert lg.AxisBox([0.5, math.inf]).gauge([0.0, 7.0]) == 0.0

    def test_symmetric_polytope_gauge(self):
        square = lg.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        assert square.gauge([0.25, 0.5]) == pytest.approx(0.5)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidBodyError):
            lg.Halfspace([1.0], 1.0).gauge([0.5])
        with pytest.raises(InvalidBodyError):
            lg.Ball(1.0, center=[0.5, 0.0]).gauge([0.1, 0.1])

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=100, derandomize=True)
    def test_positive_homogeneity(self, t):
        v = np.array([0.4, -1.1, 0.2])
        for body in (lg.Ball(1.3, dim=3), lg.AxisBox([1.0, 2.0, 0.5]),
                     lg.Ellipsoid([0.8, 1.1, 2.0])):
            assert body.gauge(t * v) == pytest.approx(t * body.gauge(v), rel=1e-12)

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


OFF_CENTER_BALL = lg.Ball(1.5, center=[0.3, 0.0])


class TestGaugeCallers:
    """Every operation on a gauge inherits the body's own gauge_many check."""

    @pytest.mark.parametrize("call", [
        lambda: lg.successive_minima(lg.Lattice(np.eye(2)), OFF_CENTER_BALL),
        lambda: lg.covering_radius(lg.Lattice([[1.0, 0.5], [0.0, 1.0]]), OFF_CENTER_BALL, 4),
        lambda: lg.balance_exhaustive(np.eye(2), OFF_CENTER_BALL),
        lambda: lg.balance_heuristic(np.eye(2), OFF_CENTER_BALL),
        lambda: lg.beta_lower_bound_search(2, lg.Ball(1.0, dim=2), OFF_CENTER_BALL, restarts=1),
        lambda: lg.corollary_ratio(lg.Lattice(np.eye(2)), OFF_CENTER_BALL),
    ], ids=["successive-minima", "covering-radius", "balance-exhaustive",
            "balance-heuristic", "beta-search-v", "corollary-ratio"])
    def test_off_center_ball_has_no_gauge(self, call):
        with pytest.raises(InvalidBodyError, match="centrally symmetric body, got ball"):
            call()


class TestKernelReference:
    """The per-axis and facet-major kernels are bitwise equal to the
    row-major formulas, which reduce a (k, n) or (k, m) array over its
    last axis."""

    @staticmethod
    def draws():
        # points exactly at offset + BOUNDARY_ATOL on facet 0 (normal e_0),
        # one ulp beyond it, and at the offset itself, among seeded normals
        # whose small first components keep those points inside the others
        for n in range(1, 7):
            for m in (4, 7, 10, 16):
                rng = np.random.default_rng(100 * n + m)
                normals = rng.standard_normal((m, n))
                normals[:, 0] = np.clip(normals[:, 0], -0.2, 0.2)
                normals[0] = np.eye(n)[0]
                offsets = rng.uniform(0.5, 2.0, m)
                if m % 2 == 0:  # a mirror for every facet
                    normals[m // 2:], offsets[m // 2:] = -normals[:m // 2], offsets[:m // 2]
                pts = rng.normal(0.0, 1.5, (2000, n))
                edge = offsets[0] + convex.BOUNDARY_ATOL
                pts[:3, 0] = [edge, np.nextafter(edge, np.inf), offsets[0]]
                pts[:3, 1:] = 0.0
                yield rng, normals, offsets, pts

    def test_hpolytope_matches_row_major(self):
        for _, normals, offsets, pts in self.draws():
            body = lg.HPolytope(normals, offsets)
            rows = pts @ normals.T
            inside = np.all(rows <= offsets + convex.BOUNDARY_ATOL, axis=1)
            assert inside[:3].tolist() == [True, False, True]
            assert np.array_equal(body.contains_many(pts), inside)
            if body.symmetric:
                rows /= offsets
                assert np.array_equal(body.gauge_many(pts),
                                      np.maximum(rows.max(axis=1), 0.0))

    def test_polytope_gauge_does_not_depend_on_row_count(self):
        # the lockstep balancing searches stack the rows of many restarts
        # into one gauge call and rely on this; a one-row product would take
        # BLAS's matrix-vector path, so gauge_many scores one row as two
        for _, normals, offsets, pts in self.draws():
            body = lg.HPolytope(normals, offsets)
            if body.symmetric:
                pts = pts[:600]
                whole = body.gauge_many(pts)
                for size in range(1, 34):
                    parts = [body.gauge_many(pts[s:s + size]) for s in range(0, 600, size)]
                    assert np.array_equal(np.concatenate(parts), whole)

    def test_closed_form_bodies_match_row_major(self):
        for rng, _, offsets, pts in self.draws():
            n = pts.shape[1]
            widths = rng.uniform(0.5, 2.0, n)
            widths[rng.random(n) < 0.3] = math.inf
            widths[0] = offsets[0]
            with np.errstate(invalid="ignore"):
                ratios = np.abs(pts) / widths
            box = np.nan_to_num(ratios, nan=0.0).max(axis=1)
            assert np.array_equal(lg.AxisBox(widths).gauge_many(pts), box)
            axes = rng.uniform(0.5, 2.0, n)
            q = np.sum((pts / axes) ** 2, axis=1)
            ellipsoid = lg.Ellipsoid(axes)
            assert np.array_equal(ellipsoid.gauge_many(pts), np.sqrt(q))
            assert np.array_equal(ellipsoid.contains_many(pts),
                                  q <= 1.0 + convex.BOUNDARY_ATOL)
            assert np.array_equal(lg.Ball(1.3, dim=n).gauge_many(pts),
                                  np.linalg.norm(pts, axis=1) / 1.3)


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


def positive_span_unbounded(body):
    """The rule the hull replaced: the body is bounded when its unit normals
    u_j positively span R^n, i.e. have rank n and some lambda >= 0 solves
    sum lambda_j u_j = -sum u_j (one nonnegative least squares)."""
    unit = body.normals / np.linalg.norm(body.normals, axis=1)[:, None]
    if np.linalg.matrix_rank(unit) < body.dim:
        return True
    return scipy.optimize.nnls(unit.T, -unit.sum(axis=0))[1] > 1e-9


def polygon_radius(body):
    """A polygon's farthest vertex off its edges, offsets moved out by
    BOUNDARY_ATOL; inf where a live edge runs off to infinity."""
    unit, (d,), _, (stop,), (live,), _ = convex.polygon_edges(
        body.normals, body.offsets[None, :] + convex.BOUNDARY_ATOL)
    j = np.flatnonzero(live & np.isfinite(stop))
    if j.size < np.count_nonzero(live):
        return math.inf
    vertices = d[j, None] * unit[j] + stop[j, None] * np.stack([-unit[j, 1], unit[j, 0]], axis=1)
    return float(np.linalg.norm(vertices, axis=1).max())


def vertex_enumeration_radius(body):
    """Farthest vertex of a bounded body, offsets moved out by BOUNDARY_ATOL:
    every n-subset of facets solved directly, kept where the point is feasible."""
    normals, offsets = body.normals, body.offsets + convex.BOUNDARY_ATOL
    best = 0.0
    for rows in itertools.combinations(range(len(normals)), body.dim):
        a = normals[list(rows)]
        if abs(np.linalg.det(a)) <= 1e-12 * np.prod(np.linalg.norm(a, axis=1)):
            continue
        v = np.linalg.solve(a, offsets[list(rows)])
        if np.all(normals @ v <= offsets + 1e-9 * (1.0 + np.abs(offsets))):
            best = max(best, float(np.linalg.norm(v)))
    return best


class TestBoundingRadius:
    """Circumradii, inf exactly on unbounded bodies, and the Gaussian tail radius."""

    def test_box_circumradius(self):
        assert lg.AxisBox([1.0, 2.0]).circumradius() == pytest.approx(math.sqrt(5))

    def test_ball(self):
        assert lg.Ball(3.0, dim=2).circumradius() == pytest.approx(3.0)

    def test_halfspace_tail_radius(self):
        assert math.isinf(lg.Halfspace([1.0, 0.0], 0.1).circumradius())
        # chi-square with 2 dof is exponential: independent closed form
        assert lg.tail_radius(2) == pytest.approx(math.sqrt(-2.0 * math.log(1e-9)), rel=1e-9)

    def test_truncation_preserves_membership_inside(self):
        body = lg.Halfspace([0.0, 1.0], 0.2)
        r = lg.tail_radius(body.dim)
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 1, size=(500, 2))
        inside_r = np.linalg.norm(pts, axis=1) <= r
        assert np.array_equal(body.contains_many(pts[inside_r]),
                              body.contains_many(pts)[inside_r])

    def test_bounded_polygon_is_its_farthest_vertex(self):
        square = lg.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1.2] * 4)
        # the closed set membership tests: offsets moved out by BOUNDARY_ATOL
        assert square.circumradius() == pytest.approx(
            math.sqrt(2.0) * (1.2 + convex.BOUNDARY_ATOL), rel=1e-15)
        assert OFF_ORIGIN_TRIANGLE.circumradius() == pytest.approx(1.0, abs=1e-11)
        assert "_circumradius" in OFF_ORIGIN_TRIANGLE.__dict__  # computed once

    @pytest.mark.parametrize("body", [
        lg.HPolytope([[1.0, 1.0], [-1.0, 0.0]], [1.0, 1.0]),  # a wedge
        lg.HPolytope([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0]),  # a strip
    ], ids=["wedge", "strip"])
    def test_unbounded_or_unchecked_polytope_has_no_circumradius(self, body):
        assert body.circumradius() == math.inf

    @pytest.mark.parametrize("body", [
        lg.HPolytope([[1.0], [-2.0], [4.0]], [1.0, 3.0, 2.0]),
        symmetric_polytope(3, 0), symmetric_polytope(4, 1), OFF_ORIGIN_SIMPLEX, THIN_POLYTOPE_3D,
        lg.HPolytope(np.vstack([np.eye(4), -np.ones(4)]), [1.0] * 5),
        lg.HPolytope(np.vstack([np.eye(3), -np.eye(3)]), [1.0] * 6),
        lg.HPolytope([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0],
                      [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, -1.0],
                      [-1.0, -1.0, -1.0]], [1.0] * 8),
    ], ids=["interval", "3d", "4d", "3d-off-origin-simplex", "3d-thin", "4d-simplex", "cube",
            "octahedron"])
    def test_bounded_polytope_is_its_farthest_vertex(self, body):
        # an interval's two ends, and one dual hull from dimension 2 on, against
        # every n-subset of facets; each vertex of the octahedron lies on four
        # facets, so its dual facet is a square that Qhull triangulates
        assert body.circumradius() == pytest.approx(vertex_enumeration_radius(body), rel=1e-12)

    @pytest.mark.parametrize("body, unbounded", [
        (lg.HPolytope([[1.0], [-2.0]], [1.0, 1.0]), False),
        (lg.HPolytope([[1.0], [2.0]], [1.0, 1.0]), True),
        (lg.HPolytope([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0]), True),
        (lg.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1.2] * 4), False),
        (symmetric_polytope(3, 0), False),
        (lg.HPolytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], [1.0] * 4), True),
        (lg.HPolytope(np.eye(3), [1.0] * 3), True),
        (lg.HPolytope(np.vstack([np.eye(3), -np.ones(3)]), [1.0] * 4), False),
        (lg.HPolytope(np.vstack([np.eye(4), -np.ones(4)]), [1.0] * 5), False),
        (TILTED_CUP, True),
        (lg.AxisBox([1.0, math.inf]), True),
        (lg.Ball(1.0, dim=3), False),
    ], ids=["interval", "half-line", "strip", "square", "3d", "3d-strip", "3d-orthant",
            "3d-simplex", "4d-simplex", "3d-cup", "box", "ball"])
    def test_known_unbounded(self, body, unbounded):
        # an infinite circumradius is the one boundedness test, in every dimension
        assert math.isinf(body.circumradius()) == unbounded

    def test_known_unbounded_agrees_with_positive_span(self):
        # small integer normals give exactly parallel and opposite facets,
        # Gaussian ones general position; a non-positive offset moves the
        # interior point off the origin. Bounded radii match the interval's
        # ends, the polygon's edges or every n-subset of facets
        rng = np.random.default_rng(55)
        counts = {False: 0, True: 0}
        for trial in range(1200):
            dim, m = 1 + trial % 4, int(rng.integers(1, 9))
            if trial % 8 < 4:
                normals = rng.standard_normal((m, dim))
            else:
                normals = rng.integers(-2, 3, (m, dim)).astype(float)
                normals[~normals.any(axis=1), 0] = 1.0
            try:
                body = lg.HPolytope(normals, rng.uniform(-0.3 if trial % 3 == 0 else 0.5, 2.0, m))
            except InvalidBodyError:  # an empty interior
                continue
            unbounded = positive_span_unbounded(body)
            radius = body.circumradius()
            assert math.isinf(radius) == unbounded, (normals, body.offsets)
            counts[unbounded] += 1
            if not unbounded:
                ref = polygon_radius(body) if dim == 2 else vertex_enumeration_radius(body)
                assert radius == pytest.approx(ref, rel=1e-12), (normals, body.offsets)
        assert min(counts.values()) > 300

    def test_oracle_body_returns_its_hint(self):
        disk = lg.OracleBody(2, lambda pts: np.linalg.norm(pts, axis=1) <= 1.0,
                             bounding_radius_hint=1.25, symmetric_flag=True)
        assert disk.circumradius() == 1.25


class TestSymmetryFlag:
    def test_flags(self):
        assert lg.AxisBox([1.0]).symmetric
        assert lg.Ball(1.0, dim=2).symmetric
        assert not lg.Ball(1.0, center=[0.1, 0.0]).symmetric
        assert not lg.Halfspace([1.0], 1.0).symmetric
        assert lg.HPolytope([[1, 0], [-1, 0]], [1, 1]).symmetric
        assert not lg.HPolytope([[1, 0], [-1, 0]], [1, 2]).symmetric

    def test_polytope_symmetry_computed_once(self):
        body = symmetric_polytope(3, 0)
        assert "symmetric" not in body.__dict__
        body.gauge_many(np.zeros((9, 3)))
        assert body.__dict__["symmetric"] is True

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
        assert square.gauge([0.5, 0.25]) == pytest.approx(0.5, abs=1e-9)
        assert square.gauge([0.0, 0.0]) == 0.0

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
        # the oracle calibrates at the 3000th smallest gauge of its draw; the
        # ellipsoid itself calibrates by its closed form
        draw = gaussian.normal_draw(3, 5000, 3)
        quantile = np.sort(lg.Ellipsoid(semiaxes).gauge_many(draw))[2999]
        assert lg.calibrate_scale(oracle, 0.6, samples=5000, seed=3) == pytest.approx(
            quantile, rel=1e-11)

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

    @pytest.mark.parametrize("normals, offsets, interior", [
        ([[1.0, math.nan], [-1.0, 0.0]], [1.0, 1.0], None),
        ([[math.inf, 0.0], [-1.0, 0.0]], [1.0, 1.0], None),
        ([[1.0, 0.0], [-1.0, 0.0]], [math.nan, 1.0], None),
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, -math.inf], None),
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0], [math.nan, 0.0]),
        ([[1.0, 0.0]], [1.0], [-math.inf, 0.0]),  # unbounded: N @ p is -inf
    ], ids=["nan-normal", "inf-normal", "nan-offset", "inf-offset", "nan-interior",
            "inf-interior"])
    def test_non_finite_polytope(self, normals, offsets, interior):
        with pytest.raises(InvalidBodyError):
            lg.HPolytope(normals, offsets, interior_point=interior)

    @pytest.mark.parametrize("make", [
        lambda: lg.AxisBox([]), lambda: lg.Ellipsoid([]), lambda: lg.Ball(1.0, center=[]),
        lambda: lg.Ball(1.0, dim=0), lambda: lg.Ball(1.0, dim=True), lambda: lg.FullSpace(0),
        lambda: lg.FullSpace(2.5), lambda: lg.FullSpace(True),
        lambda: lg.OracleBody(np.int64(0), lambda pts: np.ones(len(pts), dtype=bool), 1.0),
    ], ids=["box", "ellipsoid", "ball-center", "ball-dim-0", "ball-dim-bool", "space-0",
            "space-float", "space-bool", "oracle-0"])
    def test_dimension_is_a_positive_integer(self, make):
        with pytest.raises(InvalidBodyError, match="dimension must be an integer >= 1"):
            make()


README_BODY_DOCUMENTS = """\
{"kind": "axis_box",  "dim": 2, "semiwidths": [0.674489750196082, Infinity]}
{"kind": "ball",      "dim": 2, "radius": 1.2, "center": [0.0, 0.0]}
{"kind": "halfspace", "dim": 2, "normal": [1.0, 0.0], "offset": 0.5}
{"kind": "ellipsoid", "dim": 2, "semiaxes": [2.0, 0.5]}
{"kind": "hpolytope", "dim": 2, "normals": [[1,0],[-1,0],[0,1],[0,-1]], "offsets": [1,1,1,1]}
{"kind": "space",     "dim": 2}"""


class TestDocuments:
    def test_round_trip(self):
        # the README's documents: each body's fields give its document back
        for line in README_BODY_DOCUMENTS.splitlines():
            doc = json.loads(line)
            assert body_document(lg.body_from_document(doc)) == doc

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
