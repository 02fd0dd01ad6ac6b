"""Standard normal CDF/quantile and Gaussian measure of convex bodies.

The measure gamma_n is the standard Gaussian probability measure on R^n
with density (2*pi)^(-n/2) * exp(-|x|^2 / 2). Closed forms exist for axis
boxes (product of interval measures), halfspaces, centered balls
(chi-square CDF), off-center balls (noncentral chi-square CDF), centered
ellipsoids (Ruben's mixture of chi-square CDFs, up to SERIES_TERM_CAP
terms), bounded polygons (a signed sum of triangles, each by Owen's T
function), the full space and every 1-d body, which is an interval; each
is written once, in ``measure_slices``, for a family of bodies (a body
alone is a one-row family). A 3-d H-polytope has no closed form, but its
polygon sections do, and Ehrhard's inequality makes Phi^{-1} of their
measures concave along any axis: ``measure_bracket`` turns chords of that
function into certified lower and upper ends, each a sum of bivariate
normal rectangles by Owen's T. A symmetric H-polytope in any dimension is
the intersection of slabs, and the Gaussian correlation inequality makes
the product of the measures of any grouping of them a lower bound:
``correlation_bracket`` pairs them, each pair a bivariate normal rectangle
by Owen's T, and takes the least pair as its upper end. Everything else
is seeded Monte Carlo.

Owen's T is accurate in absolute terms, so a polygon's measure is exact to
about 1e-16, not relative to its size: ``minkowski.w_profile`` leaves
slices below 1e-7 out of its concavity check, and adds a term for every
polygon vertex inside its grid to its identity tolerance, since the slice
measure changes slope there.

Scale calibration rests on one fact: for a body K with the origin inside
and gauge g, the dilate sK is the sublevel set {g <= s}, so
gamma_n(sK) = P(g(X) <= s) is the distribution function of g(X). A
target measure is therefore a quantile of the gauge, and the caller picks
how to take it: ``calibrate_scale``, the root of the closed form, where the
scale must hit its target exactly; ``correlation_scale``, the root of a
symmetric H-polytope's pair bound, where a certified lower bound must hit
it; or ``gauge_quantile``, an order statistic of a seeded draw, where a
later certificate checks the measure. Only the last draws points.

All confidence half-widths use the two-sided 99% convention, z = 2.576,
and every certificate reads the interval ``MeasureEstimate.lower``/``upper``,
which for a bracket are its certified ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .convex import (BOUNDARY_ATOL, BallSlices, BoxSlices, ConvexBody, EllipsoidSlices,
                     HalfspaceSlices, HPolytope, PolytopeSlices, SliceFamily, SpaceSlices,
                     polygon_edges, tail_radius)
from .errors import CalibrationError, InvalidBodyError, UnsupportedBodyError

Z99 = 2.576  # two-sided 99% normal quantile, one convention everywhere
CERT_HALF_WIDTHS = 3.0  # half-widths a certified interval spans on each side
FLOAT_SLACK = 1e-12  # tolerance against pure float noise in every certificate
MIN_MC_SAMPLES = 1000  # smallest Monte Carlo draw
SERIES_TERM_CAP = 1024  # most terms of an ellipsoid's series; past it, Monte Carlo

_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Monte Carlo shard size: each shard draws an independent substream from
# (seed, shard index), so any shard schedule aggregates to the same count.
MC_SHARD_SIZE = 1 << 15


@dataclass(frozen=True)
class MeasureEstimate:
    """A probability with provenance: exact closed form, certified bracket
    (Ehrhard or correlation) or Monte Carlo.

    A Monte Carlo ``half_width`` is the 99% binomial half-width, and the
    certified interval spans CERT_HALF_WIDTHS of them on each side. A
    bracket's ``value`` is the midpoint of its certified ends and its
    ``half_width`` half their distance, so its interval is value +- half_width.
    """

    value: float
    method: str  # "exact" | "bracket" | "monte-carlo"
    half_width: float = 0.0
    samples: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"measure must lie in [0, 1], got {self.value}")
        if self.half_width < 0.0:
            raise ValueError("half_width must be nonnegative")
        if self.method not in ("exact", "bracket", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "exact" and self.half_width != 0.0:
            raise ValueError("exact estimates carry zero half_width")

    @property
    def _reach(self) -> float:
        return self.half_width * (CERT_HALF_WIDTHS if self.method == "monte-carlo" else 1.0)

    @property
    def lower(self) -> float:
        """Certified lower end: value - CERT_HALF_WIDTHS * half_width for
        Monte Carlo, value - half_width for a bracket."""
        return self.value - self._reach

    @property
    def upper(self) -> float:
        """Certified upper end: value + CERT_HALF_WIDTHS * half_width for
        Monte Carlo, value + half_width for a bracket."""
        return self.value + self._reach


# ---------------------------------------------------------------------------
# One-dimensional machinery
# ---------------------------------------------------------------------------

def std_normal_cdf(x):
    """Phi(x); accepts scalars or arrays, absolute error well below 1e-12."""
    from scipy import special  # deferred: lattice and balancing commands never need it

    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError("cdf input must not be NaN")
    if np.ndim(x) == 0 and not np.all(np.isfinite(arr)):
        raise ValueError("cdf input must be finite")
    out = 0.5 * special.erfc(-arr / _SQRT2)
    return float(out) if np.ndim(x) == 0 else out


def std_normal_pdf(x):
    arr = np.asarray(x, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if np.ndim(x) == 0 else out


def std_normal_quantile(p):
    """Phi^{-1}(p) for p in (0, 1); scalars or arrays, via scipy's ndtri."""
    from scipy import special  # deferred: lattice and balancing commands never need it

    arr = np.asarray(p, dtype=float)
    if np.any(~((arr > 0.0) & (arr < 1.0))):
        raise ValueError("quantile input must lie strictly in (0, 1)")
    out = special.ndtri(arr)
    return float(out) if np.ndim(p) == 0 else out


# Width of the origin-centered interval carrying standard normal mass 1/2.
_THETA = 1.3489795003921634  # bitwise 2.0 * ndtri(0.75), and correctly rounded


def theta() -> float:
    """Width of the origin-centered interval carrying standard normal mass 1/2.

    Equals 2 * Phi^{-1}(3/4), about 1.3489795.
    """
    return _THETA


def measure_interval(lo, hi):
    """gamma_1([lo, hi]); scalars or arrays, endpoints may be -inf / +inf.

    An interval in the upper tail (lo >= 0) is a difference of upper tails,
    the mirror image of a lower-tail interval, so neither side subtracts two
    values near 1. The tail is chosen element by element.
    """
    from scipy import special  # deferred: lattice and balancing commands never need it

    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(np.isnan(a) | np.isnan(b) | (a > b)):
        raise ValueError(f"interval endpoints must be ordered and not NaN: {lo}, {hi}")
    upper = a >= 0.0
    near, far = np.where(upper, a, -b), np.where(upper, b, -a)
    out = 0.5 * special.erfc(near / _SQRT2) - 0.5 * special.erfc(far / _SQRT2)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Measures of bodies
# ---------------------------------------------------------------------------

def measure_exact(body: ConvexBody) -> MeasureEstimate:
    """Closed-form gamma_n of a body: ``measure_slices`` of its one-row
    ``as_family()``. Raises UnsupportedBodyError where none exists."""
    return MeasureEstimate(float(measure_slices(body.as_family())[0]), "exact")


def measure_slices(family: SliceFamily) -> np.ndarray:
    """Closed-form gamma_dim of every body of a family, 0 where absent.

    The one home of every closed form: the full space, an axis box (product
    of interval measures), a halfspace, a centered ball (chi-square CDF),
    1-d balls, ellipsoids and H-polytopes as the intervals they are, a 2-d
    H-polytope as its signed sum of triangles by Owen's T
    (``_polygon_measures``), an off-center ball (noncentral chi-square CDF)
    and a centered ellipsoid (``_ellipsoid_series``). H-polytopes keep the
    membership rule: their offsets are moved out by BOUNDARY_ATOL. A
    polygon's value is exact to absolute rounding, about 1e-16, so a tiny
    one is not exact relative to its size. The family is a body's
    ``sections`` (its ``slices`` over a grid among them), or its one-row
    ``as_family``; a ball's centre is read row by row. Raises
    UnsupportedBodyError for any other family, for a polygon family with an
    unbounded row, and for ellipsoids whose series needs more than
    SERIES_TERM_CAP terms.
    """
    from scipy import special  # deferred: lattice and balancing commands never need it

    rows = family.present
    values = np.zeros(len(rows))
    if isinstance(family, SpaceSlices):
        values[rows] = 1.0
    elif isinstance(family, BoxSlices):
        values[rows] = np.prod(2.0 * std_normal_cdf(family.semiwidths) - 1.0)
    elif isinstance(family, HalfspaceSlices):
        values[rows] = std_normal_cdf(family.offsets[rows]
                                      / float(np.linalg.norm(family.normal)))
    elif isinstance(family, BallSlices) and np.all(np.abs(family.center[rows]) <= BOUNDARY_ATOL):
        values[rows] = special.gammainc(family.dim / 2.0,
                                        np.float_power(family.radii[rows], 2) / 2.0)
    elif family.dim == 1 and isinstance(family, BallSlices):
        r = family.radii[rows]
        values[rows] = measure_interval(family.center[rows, 0] - r, family.center[rows, 0] + r)
    elif family.dim == 1 and isinstance(family, EllipsoidSlices):
        a = family.semiaxes[rows, 0]
        values[rows] = measure_interval(-a, a)
    elif family.dim == 1 and isinstance(family, PolytopeSlices):
        n = family.normals[:, 0]  # ends: facet ratios under n * x <= c + BOUNDARY_ATOL
        ends = (family.offsets[rows] + BOUNDARY_ATOL) / n
        values[rows] = measure_interval(np.max(ends[:, n < 0.0], axis=1, initial=-math.inf),
                                        np.min(ends[:, n > 0.0], axis=1, initial=math.inf))
    elif family.dim == 2 and isinstance(family, PolytopeSlices):
        polygons = _polygon_measures(family.normals, family.offsets[rows] + BOUNDARY_ATOL)
        if polygons is None:
            raise UnsupportedBodyError(f"no closed form for {_named(family)} with an "
                                       f"unbounded side")
        values[rows] = polygons
    elif isinstance(family, BallSlices):
        values[rows] = special.chndtr(np.float_power(family.radii[rows], 2), family.dim,
                                      np.vecdot(family.center[rows], family.center[rows]))
    elif isinstance(family, EllipsoidSlices):
        series = _ellipsoid_series(family.semiaxes[rows])
        if series is None:
            raise UnsupportedBodyError(f"no closed form for {_named(family)} within "
                                       f"{SERIES_TERM_CAP} series terms")
        values[rows] = series
    else:
        raise UnsupportedBodyError(f"no closed form for {_named(family)}")
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _named(family: SliceFamily) -> str:
    """'a 2-d ellipsoid' for a one-row family, 'the slices of a 3-d ellipsoid' for a grid."""
    if len(family.present) == 1:
        return f"a {family.dim}-d {family.kind}"
    return f"the slices of a {family.dim + 1}-d {family.kind}"


def _polygon_measures(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray | None:
    """gamma_2 of the polygon {x : N x <= c} of each row of a (rows, m) array
    of offsets, by Owen's T function (Owen 1956; Patefield and Tandy 2000);
    None if a polygon is unbounded.

    With the origin as apex, a polygon is the signed sum of the triangles
    (0, edge), signed +1 where the origin is on the inner side of the edge's
    line. Let h be the distance from the origin to that line and a_p, a_q
    the tangential coordinates of the edge's ends over h; the triangle
    measures (atan a_q - atan a_p) / 2 pi - (T(h, a_q) - T(h, a_p)). Edges
    come from ``convex.polygon_edges``, so there is no vertex sort and no
    LP, and an empty polygon has no live edge and measures 0. Every sum
    runs along one row, so a row's value is bitwise the one it gets alone.
    """
    from scipy import special  # deferred: lattice and balancing commands never need it

    _, d, start, stop, live, _ = polygon_edges(normals, offsets)
    if np.any(live & (np.isinf(start) | np.isinf(stop))):
        return None
    h = np.abs(d)
    reach = np.where(h > 0.0, h, 1.0)  # a line through the origin spans no triangle
    a_p, a_q = np.where(live, start, 0.0) / reach, np.where(live, stop, 0.0) / reach
    triangles = ((np.arctan(a_q) - np.arctan(a_p)) / (2.0 * math.pi)
                 - (special.owens_t(h, a_q) - special.owens_t(h, a_p)))
    return np.add.reduce(np.sign(d) * triangles, axis=1)


def _ellipsoid_series(semiaxes: np.ndarray) -> np.ndarray | None:
    """gamma_n of the centered ellipsoid of each row of a (rows, n) array of
    semiaxes, by Ruben's mixture of chi-square CDFs (Ruben 1962; Sheil and
    O'Muircheartaigh 1977, AS 106); None if a row needs more than
    SERIES_TERM_CAP terms.

    With lambda_i = 1 / a_i^2 and beta = min lambda, the measure
    P(sum lambda_i X_i^2 <= 1) is sum_k c_k F_{n+2k}(1 / beta), where F_d is
    the chi-square CDF with d degrees of freedom, c_0 = prod sqrt(beta /
    lambda_i), g_m = sum_i (1 - beta / lambda_i)^m and c_k = sum_{j<k}
    g_{k-j} c_j / 2k. The weights are nonnegative and sum to 1, and F_d falls
    with d, so after K terms the rest is at most (1 - sum_{k<K} c_k) *
    F_{n+2K}(1 / beta). Each row stops at the first K where that bound is
    within one ulp of its partial sum: a relative stop, which keeps tiny
    measures (the end slices of a profile) accurate too.

    The terms come in blocks of doubling length: the weights one by one,
    then one ``gammainc`` call and running sums for the whole block. Every
    sum runs along one row, so a row's value is bitwise the one it gets
    alone.
    """
    from scipy import special  # deferred: lattice and balancing commands never need it

    rows, n = semiaxes.shape
    top = semiaxes.max(axis=1)
    ratio = semiaxes / top[:, None]  # sqrt(beta / lambda_i)
    shrink = 1.0 - ratio * ratio  # 1 - beta / lambda_i
    half = np.float_power(top, 2)[:, None] / 2.0  # 1 / (2 beta), as for a centered ball
    power = np.ones((rows, n))  # (1 - beta / lambda_i)^k
    c = np.prod(ratio, axis=1)[:, None]  # c_k in column k
    g = np.empty((rows, 1))  # g_k in column k, from k = 1
    weight, value = np.zeros((rows, 1)), np.zeros((rows, 1))  # sums of c_k, c_k F_{n+2k}
    out, open_rows = np.empty(rows), np.ones(rows, dtype=bool)
    start = 0
    while start <= SERIES_TERM_CAP:  # a block checks the stop at K = start, ..., stop - 1
        stop = min(max(2 * start, 16), SERIES_TERM_CAP + 1)
        g, c = (np.concatenate([a, np.empty((rows, stop - a.shape[1]))], axis=1) for a in (g, c))
        for k in range(max(start, 1), stop):
            power *= shrink
            g[:, k] = np.add.reduce(power, axis=1)
            c[:, k] = np.add.reduce(g[:, k:0:-1] * c[:, :k], axis=1) / (2 * k)
        cdf = special.gammainc(n / 2.0 + np.arange(start, stop), half)  # F_{n+2k}(1 / beta)
        weights = np.cumsum(np.concatenate([weight, c[:, start:stop]], axis=1), axis=1)
        values = np.cumsum(np.concatenate([value, c[:, start:stop] * cdf], axis=1), axis=1)
        done = (1.0 - weights[:, :-1]) * cdf <= _EPS * values[:, :-1]
        settled = open_rows & done.any(axis=1)
        first = np.argmax(done[settled], axis=1)  # the first K that meets the stop
        out[settled] = values[settled, first]
        open_rows &= ~settled
        if not open_rows.any():
            return out
        weight, value = weights[:, -1:], values[:, -1:]
        start = stop
    return None


# ---------------------------------------------------------------------------
# Ehrhard brackets
# ---------------------------------------------------------------------------

BRACKET_NODES = 201  # section nodes of a body's bracket, the default w_profile grid
_SECTION_ERR = 1e-14  # absolute error of an Owen's T polygon measure, per facet
_PIECE_ERR = 1e-13  # absolute rounding of one closed-form piece of a bracket


def measure_bracket(body: ConvexBody) -> MeasureEstimate:
    """Certified bracket of gamma_3 of a 3-d H-polytope, with no draw.

    Its sections along e_1 at BRACKET_NODES points over [-R, R],
    R = ``tail_radius(3)``, are one ``sections`` family of polygons,
    measured exactly by Owen's T in one ``measure_slices`` call, and
    ``ehrhard_bracket`` turns those measures into certified ends. Like
    every closed form it measures the membership body, offsets moved out
    by BOUNDARY_ATOL. Raises UnsupportedBodyError for any other body, for
    an unbounded section and for too few nonempty sections.
    """
    if not (isinstance(body, HPolytope) and body.dim == 3):
        raise UnsupportedBodyError(f"no Ehrhard bracket for a {body.dim}-d {body.kind}")
    r = tail_radius(3)
    ts = np.linspace(-r, r, BRACKET_NODES)
    axes = np.eye(3)
    measures = measure_slices(body.sections(np.outer(ts, axes[0]), axes[1:]))
    lower, upper = ehrhard_bracket(ts, measures, len(body.normals))
    return MeasureEstimate((lower + upper) / 2.0, "bracket", half_width=(upper - lower) / 2.0)


def ehrhard_bracket(ts: np.ndarray, measures: np.ndarray, facets: int) -> tuple[float, float]:
    """Certified (lower, upper) of the integral of phi(t) * m(t) over the
    line, where m(t) is the measure of the section at t of a convex body
    and ``measures`` are its Owen's T measures at the ascending nodes ts.

    By Ehrhard's inequality (Ehrhard 1983; Borell 2003), g = Phi^{-1}(m) is
    concave where m > 0, and m vanishes off an interval. So on each
    interval between nodes the chord of g lies below g, and the two
    neighbouring chords, extended, lie above it. Each piece
    int_a^b phi(t) Phi(alpha + beta t) dt is a bivariate normal rectangle
    in closed form (``_wedge``), with no quadrature.

    - **Node error.** A polygon of ``facets`` facets measures within
      eps = facets * _SECTION_ERR of its true value (against 30-digit
      mpmath, a hexagon's worst error is 3.3e-16). A chord below g
      reads Phi^{-1}(m - eps) at both nodes. An extended chord grows with
      its near node and falls with its far one, so it reads
      Phi^{-1}(m + eps) at the near node and Phi^{-1}(m - eps) at the far
      one. Where m - eps <= 0 that far value is -inf: the extended chord
      bounds nothing and the other neighbour, or 1, takes its place, and
      a chord from such a node adds nothing below. So a section of
      measure near the float noise is sound at both ends.
    - **Upper bound.** On each interval it is the smaller of the two
      extended neighbours, split where they cross. Each end piece extends
      its adjacent chord out to the nearest node that reads at most eps
      (an empty polygon may read float noise), or to +-inf. Such a node e
      has true measure at most 2 eps, and some node k reads above 3 eps,
      so has more: concavity then keeps m below 2 eps everywhere past e,
      and the mass there, at most 2 eps, is added.
    - **Rounding.** A piece is four Owen's T and normal CDF terms of at
      most 1, each within a few ulps, at line coefficients rounded to
      about 1e-16 * |beta t|, which moves it by about 1e-14 at most; each
      end moves out by _PIECE_ERR per piece summed.

    Raises UnsupportedBodyError unless two adjacent nodes read above
    3 eps, with a finite chord between them.
    """
    from scipy import special  # deferred: lattice and balancing commands never need it

    err = facets * _SECTION_ERR
    solid = measures > 3.0 * err
    if not np.any(solid[:-1] & solid[1:]):
        raise UnsupportedBodyError("too few nonempty sections for an Ehrhard bracket")
    low = special.ndtri(np.maximum(measures - err, 0.0))  # -inf at 0
    high = special.ndtri(np.minimum(measures + err, 1.0))  # +inf at 1
    a, b = ts[:-1], ts[1:]
    c = np.isfinite(low[:-1]) & np.isfinite(low[1:])  # the chords that bound g from below
    below = _pieces(a[c], b[c], *_line(a[c], low[:-1][c], b[c], low[1:][c]))
    # chord c extended rightwards past node c + 1, and leftwards past node c
    right = _line(b, high[1:], a, low[:-1])
    left = _line(a, high[:-1], b, low[1:])
    read = np.flatnonzero(measures > err)
    # intervals from the last node before the first that reads above eps to
    # the first node after the last; on interval i, the candidates are chord
    # i - 1 extended rightwards and chord i + 1 extended leftwards
    i = np.arange(max(read[0] - 1, 0), min(read[-1], len(a) - 1) + 1)
    unbounded = (np.array([math.inf]), np.zeros(1))  # no candidate: the line +inf
    from_left = [np.concatenate([x0, x])[i] for x0, x in zip(unbounded, right)]
    from_right = [np.concatenate([x[1:], x0])[i] for x0, x in zip(unbounded, left)]
    # the smaller candidate at each end, split where they cross; either one
    # bounds g, so rounding the split costs no soundness
    t0, t1 = ts[i], ts[i + 1]
    near, far = ((from_left[0] + from_left[1] * t <= from_right[0] + from_right[1] * t)
                 for t in (t0, t1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (from_right[0] - from_left[0]) / (from_left[1] - from_right[1])
    split = np.where(near == far, t1, np.clip(np.nan_to_num(cross, nan=t1), t0, t1))
    pieces = [(start, stop, *(np.where(pick, x, y) for x, y in zip(from_left, from_right)))
              for start, stop, pick in ((t0, split, near), (split, t1, far))]
    tails = 0.0
    if read[0] == 0:  # the support may run past the grid: chord 0 out to -inf
        pieces.append(([-math.inf], ts[:1], left[0][:1], left[1][:1]))
    else:
        tails += 2.0 * err
    if read[-1] == len(a):  # and the last chord out to +inf
        pieces.append((ts[-1:], [math.inf], right[0][-1:], right[1][-1:]))
    else:
        tails += 2.0 * err
    above = _pieces(*(np.concatenate(column) for column in zip(*pieces)))
    lower = math.fsum(below) - _PIECE_ERR * below.size
    upper = math.fsum(above) + tails + _PIECE_ERR * above.size
    return max(lower, 0.0), min(upper, 1.0)


def _line(t0, y0, t1, y1) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of the lines alpha + beta t through (t0, y0) and (t1, y1);
    (+inf, 0) where y0 is +inf or y1 is -inf, a line of +inf past t0."""
    with np.errstate(invalid="ignore"):
        beta = (y1 - y0) / (t1 - t0)
        alpha = y0 - beta * t0
    infinite = ~np.isfinite(beta)
    return np.where(infinite, math.inf, alpha), np.where(infinite, 0.0, beta)


def _pieces(a, b, alpha, beta) -> np.ndarray:
    """int_a^b phi(t) Phi(alpha + beta t) dt row by row, Phi read as 1 where
    alpha is +inf: one ``_wedge`` call for both ends of every row."""
    from scipy import special  # deferred: lattice and balancing commands never need it

    one = np.isinf(alpha)
    alpha, beta = (np.tile(np.where(one, 0.0, x), 2) for x in (alpha, beta))
    ends = _wedge(np.concatenate([b, a]), alpha, beta)
    n = len(a)
    return np.where(one, special.ndtr(b) - special.ndtr(a), ends[:n] - ends[n:])


def _wedge(x, alpha, beta) -> np.ndarray:
    """int_{-inf}^x phi(t) Phi(alpha + beta t) dt = P(X <= x, Y <= alpha + beta X)
    for independent standard normals, elementwise; x may be infinite.

    It is the bivariate normal CDF at (h, k) = (x, alpha / s), s^2 = 1 +
    beta^2, with correlation -beta / s, by Owen's T (Owen 1956):
    Phi(h) / 2 + Phi(k) / 2 - T(h, a_h) - T(k, a_k) - c, with
    a_h = (alpha + beta h) / h, a_k = (s^2 h + alpha beta) / alpha, and
    c = 1/2 where h and k have opposite signs, or one is 0 and the other
    negative. h = 0 (or k = 0) is the limit from above, T(0, +-inf) = +-1/4,
    so signed zeros are cleared first; at h = k = 0 it is
    1/4 - atan(beta) / 2 pi.
    """
    from scipy import special  # deferred: lattice and balancing commands never need it

    s2 = 1.0 + beta * beta
    h = np.where(np.isfinite(x), x, 1.0) + 0.0
    alpha = alpha + 0.0
    k = alpha / np.sqrt(s2)
    origin = (h == 0.0) & (alpha == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_h = np.where(origin, 0.0, (alpha + beta * h) / h)
        a_k = np.where(origin, 0.0, (s2 * h + alpha * beta) / alpha)
    c = np.where((np.sign(h) * np.sign(k) < 0.0) | ((h * k == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    inner = (0.5 * special.ndtr(h) + 0.5 * special.ndtr(k)
             - special.owens_t(h, a_h) - special.owens_t(k, a_k) - c)
    inner = np.where(origin, 0.25 - np.arctan(beta) / (2.0 * math.pi), inner)
    return np.where(np.isposinf(x), special.ndtr(k), np.where(np.isneginf(x), 0.0, inner))


# ---------------------------------------------------------------------------
# Gaussian correlation brackets
# ---------------------------------------------------------------------------

MATCHING_CAP = 8  # most slabs whose best pairing is searched whole; past it, greedily
_BLOCK_ERR = 1e-15  # absolute rounding of one block measure
_TINY = float(np.finfo(float).tiny)
_AIM = 1e-13  # correlation_scale aims this far above log(target), and stops within it


def correlation_bracket(body: ConvexBody) -> MeasureEstimate:
    """Certified bracket of gamma_n of a symmetric H-polytope, n >= 2, with no draw.

    Such a body is the intersection of the slabs {|u . x| <= h}, one for a
    facet and its mirror (``HPolytope.slabs``). For symmetric convex A and B,
    gamma(A & B) >= gamma(A) * gamma(B): the Gaussian correlation
    inequality, due to Sidak (1967) for slabs and to Royen (2014) in
    general (Latala and Matlak 2017 give a short account). So the slabs,
    grouped into blocks of one or two, give the lower end: the product of
    the block measures, over the pairing of largest product
    (``_best_matching``). A one-slab block measures erf(h / sqrt 2) and a
    two-slab block is a bivariate normal rectangle by Owen's T
    (``_rectangles``). The body lies inside every block, so the least one
    is the upper end. Each block is exact to about 1e-16, and each end
    moves out by _BLOCK_ERR per block. Like every closed form it measures
    the membership body, offsets moved out by BOUNDARY_ATOL. A mirror that
    the symmetry test accepts within its 1e-9 leaves the lower end sound,
    and may move the upper one by about that much. Raises
    UnsupportedBodyError for any other body.
    """
    if body.dim < 2:
        raise UnsupportedBodyError(f"no correlation bracket for a 1-d {body.kind}")
    widths, singles, rects, _, _, chosen, alone = _pairing(body, BOUNDARY_ATOL)
    product = np.prod(rects[chosen]) * np.prod(singles[alone])
    blocks = np.count_nonzero(chosen) + np.count_nonzero(alone)
    lower = max(float(product) - _BLOCK_ERR * blocks, 0.0)
    upper = min(float(min(rects.min(initial=1.0), singles.min())) + _BLOCK_ERR, 1.0)
    return MeasureEstimate((lower + upper) / 2.0, "bracket", half_width=(upper - lower) / 2.0)


def _pairing(body: ConvexBody, atol: float):
    """(widths, singles, rects, heights, lines, chosen, alone) of the slabs
    of a symmetric H-polytope (``HPolytope.slabs``): their widths and one-slab
    measures, the rectangles and ``_pair_lines`` of every pair i < j in
    ``np.triu_indices`` order, and the best matching (``_best_matching``)
    as masks of its pairs and of the slabs it leaves alone. A pair gains
    log rect - log single_i - log single_j, which is >= 0 by the inequality.
    Raises UnsupportedBodyError for a body that is no symmetric H-polytope."""
    from scipy import special  # deferred: lattice and balancing commands never need it

    if not isinstance(body, HPolytope):
        raise UnsupportedBodyError(f"no slabs make up a {body.dim}-d {body.kind}")
    units, widths = body.slabs(atol)
    k = len(widths)
    i, j = _pair_index(k)
    singles = special.erf(widths / _SQRT2)
    heights, lines = _pair_lines(units, widths, i, j)
    rects = _rectangles(heights, lines)
    logs = np.log(np.maximum(np.concatenate([singles, rects]), _TINY))
    chosen = _best_matching(k, logs[k:] - logs[i] - logs[j])
    alone = np.ones(k, dtype=bool)
    alone[i[chosen]] = alone[j[chosen]] = False
    return widths, singles, rects, heights, lines, chosen, alone


@functools.lru_cache(maxsize=MATCHING_CAP + 1)
def _pair_index(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, read-only and kept for the last few k: the
    pairs i < j of k slabs."""
    pairs = np.triu_indices(k, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pair_lines(units: np.ndarray, widths: np.ndarray, i: np.ndarray,
                j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(heights, lines) of the rectangles {|u_i . x| <= a, |u_j . x| <= b}
    of the pairs (i, j): heights (a, a, b, b) and lines (b - rho a, b + rho a,
    a - rho b, a + rho b) / sigma, row by row, where rho = u_i . u_j and
    sigma = sqrt(1 - rho^2). With 1 - rho = |u_i - u_j|^2 / 2 and 1 + rho =
    |u_i + u_j|^2 / 2 nothing cancels near rho = +-1. Distinct slabs are not
    parallel, so sigma > 0. Lines over heights do not change with scale."""
    a, b = widths[i], widths[j]
    minus, plus = (0.5 * np.vecdot(v, v) for v in (units[i] - units[j], units[i] + units[j]))
    sigma = np.sqrt(minus * plus)
    lines = np.stack([b - a + a * minus, b - a + a * plus, a - b + b * minus, a - b + b * plus],
                     axis=1) / sigma[:, None]
    return np.stack([a, a, b, b], axis=1), lines


def _rectangles(heights: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """gamma_2 of each rectangle of ``_pair_lines``: P(|X| <= a, |Y| <= b)
    for standard normals of correlation rho is 1 - 2 * [T(a, (b - rho a) /
    (a sigma)) + T(a, (b + rho a) / (a sigma)) + T(b, (a - rho b) /
    (b sigma)) + T(b, (a + rho b) / (b sigma))] (Owen 1956), one Owen's T
    call for every pair."""
    from scipy import special  # deferred: lattice and balancing commands never need it

    return 1.0 - 2.0 * np.add.reduce(special.owens_t(heights, lines / heights), axis=1)


@functools.lru_cache(maxsize=MATCHING_CAP + 1)
def _matchings(k: int) -> np.ndarray:
    """Every matching of k slabs, empty and partial ones too, as the rows of
    a boolean table over the pairs of ``_pair_index(k)``: 764 rows of 28
    pairs at k = 8. Built on first use."""
    column = {pair: c for c, pair in enumerate(zip(*(x.tolist() for x in _pair_index(k))))}
    rows: list[list[int]] = []

    def extend(free: list[int], taken: list[int]) -> None:
        if len(free) < 2:
            rows.append(taken)
            return
        first, rest = free[0], free[1:]
        extend(rest, taken)
        for n, other in enumerate(rest):
            extend(rest[:n] + rest[n + 1:], taken + [column[first, other]])

    extend(list(range(k)), [])
    table = np.zeros((len(rows), len(column)), dtype=bool)
    for r, taken in enumerate(rows):
        table[r, taken] = True
    table.flags.writeable = False
    return table


def _best_matching(k: int, gains: np.ndarray) -> np.ndarray:
    """The pairs of a matching of k slabs with the largest sum of gains, as
    a mask over ``_pair_index(k)``: searched whole up to MATCHING_CAP slabs,
    and taken greedily past it, where the whole table would outgrow memory
    (140152 matchings of 66 pairs at 12 slabs). Any matching gives a sound
    product; this one only makes it large."""
    if k <= MATCHING_CAP:
        table = _matchings(k)
        return table[np.argmax(table @ gains)]
    i, j = _pair_index(k)
    free = np.ones(k, dtype=bool)
    chosen = np.zeros(len(gains), dtype=bool)
    for c in np.argsort(-gains, kind="stable"):
        if free[i[c]] and free[j[c]]:
            chosen[c] = True
            free[i[c]] = free[j[c]] = False
    return chosen


def substream(seed: int, key: int) -> np.random.Generator:
    """Generator of sub-draw ``key`` of ``seed``: the one derivation behind
    every Monte Carlo shard, seeded suite trial and search restart."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def sub_seed(seed: int, key: int) -> int:
    """Integer seed of sub-draw ``key`` of ``seed``, for calls that take a seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


def _normal_shards(dim: int, samples: int, seed: int):
    """Seeded standard normal draw, one (n, dim) array per shard.

    Each shard of MC_SHARD_SIZE points draws its own substream from
    (seed, shard index), so any shard schedule aggregates to the same draw.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")
    for shard, start in enumerate(range(0, samples, MC_SHARD_SIZE)):
        yield substream(seed, shard).standard_normal((min(MC_SHARD_SIZE, samples - start), dim))


def normal_draw(dim: int, samples: int, seed: int) -> np.ndarray:
    """The whole (samples, dim) draw that ``mc_fraction`` scores shard by
    shard, for callers that score many bodies on one draw."""
    return np.concatenate(list(_normal_shards(dim, samples, seed)))


def hit_estimate(hits: int, samples: int) -> MeasureEstimate:
    """Monte Carlo estimate from ``hits`` of ``samples`` points; half_width
    is the 99% binomial half-width 2.576 * sqrt(p(1-p)/samples)."""
    p = hits / samples
    return MeasureEstimate(value=p, method="monte-carlo",
                           half_width=Z99 * math.sqrt(p * (1.0 - p) / samples),
                           samples=samples)


def mc_fraction(dim: int, membership, samples: int, seed: int) -> MeasureEstimate:
    """Hit fraction of standard normal points under a membership predicate;
    deterministic given (seed, shard layout).

    ``membership`` takes a (k, dim) shard and returns k booleans, the
    contract of ``contains_many`` and of every ``OracleBody`` predicate.
    """
    return hit_estimate(sum(int(np.count_nonzero(membership(pts)))
                            for pts in _normal_shards(dim, samples, seed)), samples)


def measure_mc(body: ConvexBody, samples: int, seed: int) -> MeasureEstimate:
    """Hit fraction of i.i.d. standard normal points; deterministic per seed."""
    return mc_fraction(body.dim, body.contains_many, samples, seed)


def measure_auto(body: ConvexBody, samples: int = 1 << 16, seed: int = 0) -> MeasureEstimate:
    """The exact measure where a closed form exists, else the certified
    Ehrhard bracket of a 3-d H-polytope (``measure_bracket``), else the
    certified correlation bracket of a symmetric H-polytope
    (``correlation_bracket``), else Monte Carlo on ``samples`` points of
    ``seed``."""
    for measure in (measure_exact, measure_bracket, correlation_bracket):
        try:
            return measure(body)
        except UnsupportedBodyError:
            pass
    return measure_mc(body, samples, seed)


def calibrate_scale(body: ConvexBody, target: float) -> float:
    """Scale s with gamma_n(s * body) = target, to machine precision: one
    bracketed root of ``measure_slices(body.as_family(s)) - target`` in s,
    found by halving or doubling from s = 1. Each scale is measured once
    per call, so the bracket search and brentq share their values.

    Raises UnsupportedBodyError for a body with no closed form, and for an
    ellipsoid whose series passes SERIES_TERM_CAP terms at some scale the
    root tries; ``correlation_scale`` aims a symmetric H-polytope, and
    ``gauge_quantile`` any body with a gauge. Raises CalibrationError when
    no scale reaches the target.
    """
    _check_calibration(body, target)
    values: dict[float, float] = {}

    def excess(s: float) -> float:
        if s not in values:
            values[s] = measure_slices(body.as_family(s))[0] - target
        return values[s]

    lo = hi = 1.0
    for _ in range(64):
        if excess(lo) > 0.0:
            lo /= 2.0
        elif excess(hi) < 0.0:
            hi *= 2.0
        else:
            from scipy import optimize  # deferred: its import takes longer than most commands

            return float(optimize.brentq(excess, lo, hi, xtol=1e-300,
                                         rtol=4.0 * np.finfo(float).eps))
    raise CalibrationError(f"target {target} unreachable by scaling a {body.kind}")


def correlation_scale(body: ConvexBody, target: float) -> float:
    """Scale s at which the pair bound of s * body reaches ``target``: the
    product of the block measures of ``correlation_bracket`` with the
    matching fixed at s = 1, at offsets not moved out, with no rounding
    terms.

    Any fixed matching gives a lower bound that rises with s, and the
    bracket of the scaled body picks its own matching, at least as good, so
    it certifies at least the target, less its rounding terms. The root is
    Newton's on log(bound / target) in log s, each block's log measure being
    concave in log s (the B-theorem of Cordero-Erausquin, Fradelizi and
    Maurey 2004, for a symmetric convex set), so after the first step it
    rises to the root from below. It starts where every slab would measure
    target^(1 / slabs), and stops once the bound lies within _AIM of
    target * e^_AIM in log and is at least the target, moving up a few ulps
    at a time where rounding leaves it short. A step is one ``ndtr`` and
    one ``owens_t`` call: a single slab measures 2 Phi(s h) - 1, and
    d/da P(|X| <= a, |Y| <= b) = 2 phi(a) [Phi((b - rho a) / sigma) -
    Phi((-b - rho a) / sigma)]. Every symmetric H-polytope with positive
    offsets qualifies, n = 1 too, where the parallel slabs leave one and the
    bound is the exact measure. Raises UnsupportedBodyError for any other
    body, and CalibrationError when the root does not settle.
    """
    from scipy import special  # deferred: lattice and balancing commands never need it

    _check_calibration(body, target)
    widths, _, _, heights, lines, chosen, alone = _pairing(body, 0.0)
    h, heights, lines = widths[alone], heights[chosen].ravel(), lines[chosen].ravel()
    k = len(h)
    slopes = lines / heights
    reach = np.concatenate([h, lines])  # Phi arguments at s = 1
    bends = -0.5 * np.concatenate([h, heights]) ** 2  # log(phi) at s = 1, up to a constant
    # start where every slab would measure target^(1 / slabs), on average
    s = float(special.ndtri(0.5 + 0.5 * target ** (1.0 / len(widths))) * np.mean(1.0 / widths))
    aim = math.log(target) + _AIM
    for _ in range(64):
        cdf = special.ndtr(s * reach)
        tees = special.owens_t(s * heights, slopes).reshape(-1, 4)
        values = np.concatenate([2.0 * cdf[:k] - 1.0, 1.0 - 2.0 * np.add.reduce(tees, axis=1)])
        excess = float(np.add.reduce(np.log(values))) - aim
        if abs(excess) <= _AIM:  # log(bound / target) in [0, 2 _AIM], unless rounded
            if np.prod(values) >= target:
                return s
            s *= 1.0 + 4.0 * _EPS
            continue
        # d/ds of each block over 2 phi(0): h e^{bend s^2} for a slab, and for
        # a pair the sum over its columns of height e^{bend s^2} (Phi - 1/2)
        rises = np.exp(s * s * bends) * np.concatenate([h, heights * (cdf[k:] - 0.5)])
        rises = np.concatenate([rises[:k], np.add.reduce(rises[k:].reshape(-1, 4), axis=1)])
        step = excess / (2.0 * _INV_SQRT_2PI * s * float(np.add.reduce(rises / values)))
        if not math.isfinite(step):
            break
        s *= math.exp(-step)
    raise CalibrationError(f"no scale brings the pair bound of a {body.kind} to {target}")


def gauge_quantile(body: ConvexBody, target: float, samples: int, seed: int) -> float:
    """The ceil(target * samples)-th smallest gauge of the seeded draw that
    ``mc_fraction`` uses, so ``measure_mc(body.scale(s), samples, seed)``
    hits at least that many points.

    It needs the body's ``gauge_many``, which raises InvalidBodyError on a
    body without a gauge; an OracleBody gauge costs about 40 membership
    passes over the draw. The order statistic certifies nothing beyond its
    own draw: the scaled body's true measure lies within a few binomial
    sigmas sqrt(target(1-target)/samples) of the target, so a caller that
    certifies the measure afterwards can take a small draw. It aims an
    ellipsoid past SERIES_TERM_CAP, or an OracleBody, which have no
    closed-form root.
    """
    _check_calibration(body, target)
    gauges = np.concatenate([body.gauge_many(pts)
                             for pts in _normal_shards(body.dim, samples, seed)])
    k = math.ceil(target * samples)
    return float(np.partition(gauges, k - 1)[k - 1])


def _check_calibration(body: ConvexBody, target: float) -> None:
    """Reject a target outside (0, 1), and a body whose dilates do not nest."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    if not body.contains(np.zeros(body.dim)):
        raise InvalidBodyError("calibration needs the origin inside the body")
