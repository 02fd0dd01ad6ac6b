"""Standard normal CDF/quantile and Gaussian measure of convex bodies.

The measure gamma_n is the standard Gaussian probability measure on R^n
with density (2*pi)^(-n/2) * exp(-|x|^2 / 2). Closed forms exist for axis
boxes (product of interval measures), halfspaces, centered balls
(chi-square CDF), off-center balls (noncentral chi-square CDF), centered
ellipsoids (Ruben's mixture of chi-square CDFs, up to SERIES_TERM_CAP
terms), bounded polygons (a signed sum of triangles, each by Owen's T
function), the full space and every 1-d body, which is an interval; each
is written once, in ``measure_slices``, for a family of bodies (a body
alone is a one-row family). Everything else is seeded Monte Carlo.

Owen's T is accurate in absolute terms, so a polygon's measure is exact to
about 1e-16, not relative to its size: ``minkowski.w_profile`` leaves
slices below 1e-7 out of its concavity check, and adds a term for every
polygon vertex inside its grid to its identity tolerance, since the slice
measure changes slope there.

Scale calibration rests on one fact: for a body K with the origin inside
and gauge g, the dilate sK is the sublevel set {g <= s}, so
gamma_n(sK) = P(g(X) <= s) is the distribution function of g(X). A
target measure is therefore a quantile of the gauge: a root of the closed
form where one exists, an order statistic of the seeded draw otherwise.

All confidence half-widths use the two-sided 99% convention, z = 2.576,
and every certificate reads the interval ``MeasureEstimate.lower``/``upper``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import (BOUNDARY_ATOL, BallSlices, BoxSlices, ConvexBody, EllipsoidSlices,
                     HalfspaceSlices, PolytopeSlices, SliceFamily, SpaceSlices, polygon_edges)
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
    """A probability with provenance: exact closed form or Monte Carlo."""

    value: float
    method: str  # "exact" | "monte-carlo"
    half_width: float = 0.0
    samples: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"measure must lie in [0, 1], got {self.value}")
        if self.half_width < 0.0:
            raise ValueError("half_width must be nonnegative")
        if self.method not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "exact" and self.half_width != 0.0:
            raise ValueError("exact estimates carry zero half_width")

    @property
    def lower(self) -> float:
        """Certified lower end: value - CERT_HALF_WIDTHS * half_width."""
        return self.value - CERT_HALF_WIDTHS * self.half_width

    @property
    def upper(self) -> float:
        """Certified upper end: value + CERT_HALF_WIDTHS * half_width."""
        return self.value + CERT_HALF_WIDTHS * self.half_width


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
    """Exact measure when a closed form exists, Monte Carlo otherwise."""
    try:
        return measure_exact(body)
    except UnsupportedBodyError:
        return measure_mc(body, samples, seed)


def calibrate_scale(body: ConvexBody, target: float, samples: int = 1 << 16,
                    seed: int = 0) -> float:
    """Scale s with gamma_n(s * body) = target: the target-quantile of g(X).

    Bodies with a closed form get one bracketed root of
    ``measure_slices(body.as_family(s)) - target``, to machine precision.
    Every other body, and an ellipsoid whose series passes SERIES_TERM_CAP
    terms at some scale the root tries, gets the ceil(target * samples)-th
    smallest gauge of the seeded draw that ``mc_fraction`` uses, so
    ``measure_mc(body.scale(s), samples, seed)`` hits at least that many
    points. That branch needs the body's ``gauge_many``, which raises
    InvalidBodyError on a body without a gauge. An OracleBody gauge costs
    about 40 membership passes over the draw. Raises CalibrationError when
    no scale reaches the target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    if not body.contains(np.zeros(body.dim)):
        raise InvalidBodyError("calibration needs the origin inside the body")
    try:
        return _closed_form_root(body, target)
    except UnsupportedBodyError:
        gauges = np.concatenate([body.gauge_many(pts)
                                 for pts in _normal_shards(body.dim, samples, seed)])
        k = math.ceil(target * samples)
        return float(np.partition(gauges, k - 1)[k - 1])


def _closed_form_root(body: ConvexBody, target: float) -> float:
    """Root of ``measure_slices(body.as_family(s)) - target`` in s, bracketed
    by halving or doubling from s = 1."""
    def excess(s: float) -> float:
        return measure_slices(body.as_family(s))[0] - target

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
