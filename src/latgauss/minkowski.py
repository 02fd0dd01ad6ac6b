"""Verification harness: coset-meets-body checks, sharpness, slice lemma,
Gaussian interpolation inequality, profile construction, covering ratios.

Every check returns a CheckReport with one of three verdicts:

* ``holds``        -- the claimed property was observed, with a witness or
                      a certified margin;
* ``violated``     -- a concrete counterexample (witness) or a completed
                      enumeration certifies failure;
* ``inconclusive`` -- a precondition could not be certified at the requested
                      confidence, or a search stopped at its node cap or,
                      for an unbounded body, at its largest radius. Never
                      reported as a violation.

Every certificate reads the interval ``MeasureEstimate.lower``/``upper``
and the ``FLOAT_SLACK`` of ``gaussian``, exact and Monte Carlo alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .convex import (TAIL_EPS, AxisBox, Ball, ConvexBody, FullSpace, Halfspace, HPolytope,
                     bounding_radius, minkowski_combination, polygon_edges,
                     polygon_vertices)
from .errors import (DimensionMismatchError, EnumerationCapExceededError, InvalidBodyError,
                     UnsupportedBodyError)
from .gaussian import MeasureEstimate, measure_auto, measure_exact
from .lattice import (COMPARE_ATOL, Coset, Lattice, enumerate_coset_in_ball, nth_minimum,
                      covering_radius)

_EXACT_MARGIN_TOL = 1e-9      # equality tolerance for exact-arithmetic checks
_PROFILE_TOP = 1.0 - 1e-7     # largest slice measure a w-profile maps through Phi^{-1}
_PROFILE_BOTTOM = 1e-7        # smallest one
# w_profile argument caps. Per sample it holds n - 1 draw coordinates, h(z)
# and, for an H-polytope of m facets, m facet products: (n + m) * 8 bytes.
# Per grid point it holds one row of slice parameters.
PROFILE_SAMPLES_CAP = 1 << 20
PROFILE_GRID_CAP = 1 << 16


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification instance."""

    check: str
    verdict: str
    margin: float
    seed: int
    measure: MeasureEstimate | None = None
    witness: np.ndarray | None = None
    note: str = ""
    certificate: str = ""

    def __post_init__(self):
        if self.verdict not in ("holds", "violated", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "violated" and self.witness is None and not self.certificate:
            raise ValueError("a violation needs a witness or an enumeration certificate")

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "margin": self.margin,
            "seed": self.seed,
            "measure": None if self.measure is None else self.measure.value,
            "half_width": None if self.measure is None else self.measure.half_width,
            "witness": None if self.witness is None else [float(w) for w in self.witness],
            "note": self.note,
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class WProfile:
    """Sampled concave profile g(x) = Phi^{-1}(slice measure at x).

    ``xs``/``g`` cover the grid points whose slice measure lies in
    [1e-7, 1 - 1e-7], and ``domain`` the ends of those with a nonempty
    slice; ``concavity_excess <= 0`` means every interior second
    difference stays within its statistical slack, and the quadrature value
    of the 2-d epigraph measure should match the body measure within
    ``identity_tol``.
    """

    xs: np.ndarray
    g: np.ndarray
    g_half_widths: np.ndarray
    domain: tuple[float, float]
    source_dim: int
    concavity_margin: float
    concavity_excess: float
    identity_lhs: float
    identity_rhs: MeasureEstimate
    identity_tol: float

    def identity_residual(self) -> float:
        return abs(self.identity_lhs - self.identity_rhs.value)


@dataclass(frozen=True)
class CosetSearch:
    """Result of hunting for a coset point inside a (truncated) body.

    ``radius`` is the largest radius enumerated around the body's anchor;
    after a node-cap hit it is the radius whose enumeration hit the cap.
    """

    point: np.ndarray | None
    status: str            # "found" | "empty" | "truncated"
    radius: float
    note: str = ""


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------

_BASIS_DRAW_CAP = 500  # rejection cap on nearly dependent basis draws


def random_theta_lattice(n: int, seed: int) -> Lattice:
    """Random lattice whose basis vectors all have norm at most theta().

    Directions are uniform on the sphere, norms uniform in (0.3*theta, theta].
    Nearly dependent draws are rejected (they blow up enumeration without
    adding coverage). The theta-coset criterion nth_minimum <= theta holds by
    construction: the n basis vectors are independent lattice vectors of norm
    at most theta, so lambda_n <= max |b_i| <= theta.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    th = gaussian.theta()
    rng = np.random.default_rng(seed)
    for _ in range(_BASIS_DRAW_CAP):
        dirs = rng.standard_normal((n, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        norms = rng.uniform(0.3 * th, th, size=n)
        basis = dirs * norms[:, None]
        if abs(np.linalg.det(basis)) >= 0.2 * float(np.prod(norms)):
            return Lattice(basis)
    raise RuntimeError(f"rejection cap {_BASIS_DRAW_CAP} exceeded while drawing a basis")


# ---------------------------------------------------------------------------
# Coset-meets-body search
# ---------------------------------------------------------------------------

_COSET_DOUBLINGS = 3  # unbounded bodies: search out to 2**3 times the truncation


def find_coset_point_in_body(coset: Coset, body: ConvexBody) -> CosetSearch:
    """First coset point inside the body, searching outward from its anchor.

    The body is truncated at R = bounding_radius(body): its circumradius when
    that is finite, else the radius outside which at most ``TAIL_EPS`` of
    Gaussian mass lies. Shells around the body's anchor a double in radius
    up to R + |a| for a bounded body, no point of which lies farther from a,
    and up to R * 2**_COSET_DOUBLINGS for an unbounded one. The witness is the
    in-body point nearest the anchor (ties by the coefficient spiral key),
    so it is deterministic. For a bounded body an exhausted search is a
    certificate of empty intersection, and its ``radius`` is R + |a|; for an
    unbounded body it is ``truncated``, since emptiness beyond the truncation
    is not decidable. A search whose enumeration passes the lattice module's
    ``DEFAULT_NODE_CAP`` is ``truncated`` too. ``radius`` is the largest
    radius enumerated.
    """
    r_trunc = bounding_radius(body)
    anchor = body.anchor()
    bounded = math.isfinite(body.circumradius())
    r_max = (r_trunc + float(np.linalg.norm(anchor)) if bounded
             else r_trunc * 2.0 ** _COSET_DOUBLINGS)
    # every point of space is within half a basis-cell diagonal of the lattice
    b = coset.lattice.frame[0]
    shell = min(0.6 * float(np.sum(np.linalg.norm(b, axis=1))) + 1e-9, r_max)
    while True:
        try:
            pts = enumerate_coset_in_ball(coset, anchor, shell)
        except EnumerationCapExceededError as e:
            return CosetSearch(None, "truncated", shell, note=f"enumeration cap hit: {e}")
        hits = pts[body.contains_many(pts)] if len(pts) else pts
        if len(hits):
            # any point nearer than a hit is already enumerated, so the hit
            # of least quantized distance, the first in spiral order on a
            # tie, is the global nearest in-body point
            dist = np.round(np.linalg.norm(hits - anchor, axis=1) / COMPARE_ATOL)
            return CosetSearch(hits[np.argmin(dist)], "found", shell)
        if shell >= r_max:
            break
        shell = min(shell * 2.0, r_max)
    if bounded:
        return CosetSearch(None, "empty", r_max,
                           note="complete enumeration of the coset inside the "
                                "truncated body found no point")
    return CosetSearch(None, "truncated", r_max,
                       note=f"no intersection inside truncation after "
                            f"{_COSET_DOUBLINGS} radius doublings (unbounded body)")


def check_theorem_instance(body: ConvexBody, coset: Coset,
                           mc_samples: int = 1 << 16, seed: int = 0) -> CheckReport:
    """Does the body meet the coset? (It must, on certified inputs.)

    Both preconditions are certified here, and only here: gaussian measure
    >= 1/2 (by its certified ``lower`` end) and lambda_n <= theta
    (within 1e-9). Any basis bounds lambda_n by its longest row, so the given
    basis certifies lambda_n when every row is within the bound, else the
    cached LLL basis ``lattice.frame[0]`` does; only when both miss is
    ``nth_minimum`` enumerated. An unverifiable measure, or that enumeration
    hitting the node cap, yields ``inconclusive``; a non-theta coset is a
    caller error, and so is a body and coset of different dimensions.
    """
    if body.dim != coset.dim:
        raise DimensionMismatchError(
            f"body dimension {body.dim} does not match coset dimension {coset.dim}")
    est = measure_auto(body, samples=mc_samples, seed=seed)
    if est.lower < 0.5 - gaussian.FLOAT_SLACK:
        return CheckReport("theorem", "inconclusive", margin=est.value - 0.5,
                           seed=seed, measure=est,
                           note="measure >= 1/2 not certified at 3 half-widths")
    th = gaussian.theta()
    bound = th + 1e-9
    lattice = coset.lattice
    if (np.max(np.linalg.norm(lattice.basis, axis=1)) > bound
            and np.max(np.linalg.norm(lattice.frame[0], axis=1)) > bound):
        try:
            lam = nth_minimum(lattice, Ball(1.0, dim=coset.dim))
        except EnumerationCapExceededError as e:
            return CheckReport("theorem", "inconclusive", margin=0.0, seed=seed, measure=est,
                               note=f"lambda_n not certified, enumeration cap hit: {e}")
        if lam > bound:
            raise ValueError(f"not a theta-coset: lambda_n = {lam:.9f} > theta = {th:.9f}")
    search = find_coset_point_in_body(coset, body)
    if search.status == "found":
        return CheckReport("theorem", "holds", margin=body.containment_margin(search.point),
                           seed=seed, measure=est, witness=search.point)
    if search.status == "empty":
        return CheckReport("theorem", "violated", margin=0.0, seed=seed, measure=est,
                           certificate=search.note)
    return CheckReport("theorem", "inconclusive", margin=0.0, seed=seed, measure=est,
                       note=search.note)


def sharpness_witness(t: float) -> CheckReport:
    """One-dimensional demonstration that the norm bound theta is tight.

    For a lattice step t > theta, the coset t/2 + tZ misses the interval of
    halfwidth theta/2 (gaussian measure exactly 1/2): its nearest points sit
    at +-t/2, a gap of (t - theta)/2 outside. Certified by the coset
    search's complete enumeration of the interval, reported as the expected
    ``violated``.
    """
    th = gaussian.theta()
    if not t > th:
        raise ValueError(f"no counterexample exists at t = {t} <= theta = {th}")
    body = AxisBox([th / 2.0])
    est = measure_exact(body)
    search = find_coset_point_in_body(Coset(Lattice([[t]]), [t / 2.0]), body)
    gap = (t - th) / 2.0
    if search.status != "empty":
        # neither a hit (t > theta) nor a node-cap hit (one dimension) can
        # happen; report honestly if either ever does
        return CheckReport("sharpness", "holds" if search.status == "found" else "inconclusive",
                           margin=gap, seed=0, measure=est,
                           witness=search.point, note=search.note or "unexpected intersection")
    return CheckReport("sharpness", "violated", margin=gap, seed=0, measure=est,
                       certificate=f"complete enumeration within radius "
                                   f"{search.radius:.9f}: no coset point; "
                                   f"nearest at distance {t / 2.0:.9f}")


# ---------------------------------------------------------------------------
# Slice lemma
# ---------------------------------------------------------------------------

def _exact_subspace_slice(body: ConvexBody, sub: np.ndarray) -> ConvexBody | None:
    """Closed-form body of {y in R^m : y @ sub in body}, when available."""
    m = sub.shape[0]
    if isinstance(body, Halfspace):
        normal = sub @ body.normal
        if np.linalg.norm(normal) <= 1e-12:
            return FullSpace(m) if body.offset >= 0 else None
        return Halfspace(normal, body.offset)
    if isinstance(body, Ball) and body.symmetric:
        return Ball(body.radius, dim=m)
    if isinstance(body, AxisBox):
        # exact only when the subspace rows are standard basis vectors
        cols = []
        for row in sub:
            j = int(np.argmax(np.abs(row)))
            e = np.zeros(len(row))
            e[j] = np.sign(row[j])
            if np.linalg.norm(row - e) > 1e-12:
                return None
            cols.append(j)
        return AxisBox(body.semiwidths[cols])
    return None


def check_lemma_instance(body: ConvexBody, subspace, samples: int = 1 << 16,
                         seed: int = 0) -> CheckReport:
    """Is the slice measure through a linear subspace still at least 1/2?

    ``subspace`` holds orthonormal rows spanning M; the slice measure is the
    m-dimensional gaussian measure of {y : y @ subspace in body}, evaluated
    in closed form where possible and by Monte Carlo otherwise. ``violated``
    requires its certified ``upper`` end below 1/2.
    """
    sub = np.asarray(subspace, dtype=float)
    if sub.ndim != 2 or sub.shape[1] != body.dim or not 1 <= sub.shape[0] < body.dim:
        raise ValueError("subspace must be (m, n) with 1 <= m < n")
    if np.max(np.abs(sub @ sub.T - np.eye(sub.shape[0]))) > 1e-9:
        raise ValueError("subspace rows must be orthonormal")
    est = measure_auto(body, samples=samples, seed=seed)
    if est.lower < 0.5 - gaussian.FLOAT_SLACK:
        return CheckReport("lemma", "inconclusive", margin=est.value - 0.5, seed=seed,
                           measure=est, note="measure >= 1/2 not certified")
    closed = _exact_subspace_slice(body, sub)
    if closed is not None:
        slice_est = measure_exact(closed)
    else:
        slice_est = gaussian.mc_fraction(
            sub.shape[0], lambda pts: body.contains_many(pts @ sub), samples, seed + 1)
    margin = slice_est.upper - 0.5
    verdict = "holds" if margin >= -gaussian.FLOAT_SLACK else "violated"
    return CheckReport("lemma", verdict, margin=margin, seed=seed, measure=slice_est,
                       certificate="" if verdict == "holds" else
                       "slice estimate + 3 half-widths below 1/2")


# ---------------------------------------------------------------------------
# Gaussian interpolation inequality (convex-combination concavity)
# ---------------------------------------------------------------------------

def check_ehrhard(a: ConvexBody, b: ConvexBody, lam: float,
                  samples: int = 1 << 16, seed: int = 0) -> CheckReport:
    """Quantile concavity along the Minkowski interpolation of two bodies.

    Compares Phi^{-1}(measure(lam*A + (1-lam)*B)) against the affine
    combination of the endpoint quantiles. Exact measures give an exact
    margin. Monte Carlo estimates are propagated as (``lower``, ``upper``)
    intervals through the (monotone) quantile: ``holds`` means the certified
    lower side of the left-hand term beats the certified upper side of the right,
    ``violated`` needs the whole intervals separated the wrong way, and
    overlapping intervals are ``inconclusive`` (more samples needed).
    """
    comb = minkowski_combination(a, b, lam)

    def bracket(body: ConvexBody, sub: int) -> tuple[float, float, MeasureEstimate]:
        est = measure_auto(body, samples=samples, seed=gaussian.sub_seed(seed, sub))
        lo, hi = gaussian.std_normal_quantile(np.clip((est.lower, est.upper), 1e-15, 1.0 - 1e-15))
        return lo, hi, est

    lhs_lo, lhs_hi, est_c = bracket(comb, 0)
    a_lo, a_hi, est_a = bracket(a, 1)
    b_lo, b_hi, est_b = bracket(b, 2)
    rhs_lo = lam * a_lo + (1.0 - lam) * b_lo
    rhs_hi = lam * a_hi + (1.0 - lam) * b_hi
    margin = lhs_lo - rhs_hi
    if margin >= -_EXACT_MARGIN_TOL:
        verdict = "holds"
    elif lhs_hi < rhs_lo - _EXACT_MARGIN_TOL:
        verdict = "violated"  # certified: intervals separate the wrong way
    else:
        verdict = "inconclusive"
    exactness = all(e.method == "exact" for e in (est_a, est_b, est_c))
    return CheckReport("ehrhard", verdict, margin=float(margin), seed=seed,
                       measure=est_c,
                       note="exact" if exactness else "monte-carlo intervals",
                       certificate="" if verdict != "violated" else
                       "certified interval gap below tolerance")


# ---------------------------------------------------------------------------
# Concave profile of slice measures and the epigraph identity
# ---------------------------------------------------------------------------

def _slice_measures(body: ConvexBody, xs: np.ndarray, terms: np.ndarray, samples: int,
                    seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(measures, half-widths, h) of the slices of a body at every x in xs.

    The whole family of slices is measured at once where it has a closed
    form (``gaussian.measure_slices``), with h None. Otherwise its present
    slices are scored, in grid order, on one (samples, n-1) draw of
    ``seed``, made only if some slice is present, and
    h(z) = sum_i terms_i * [z in slice i] is summed over that draw.
    """
    family = body.slices(xs)
    hws = np.zeros(len(xs))
    try:
        return gaussian.measure_slices(family), hws, None
    except UnsupportedBodyError:
        pass
    measures = np.zeros(len(xs))
    rows = np.flatnonzero(family.present)
    if not rows.size:
        return measures, hws, None
    score = family.scorer(gaussian.normal_draw(body.dim - 1, samples, seed))
    h = np.zeros(samples)
    for i in rows:
        hits = score(i)
        count = int(np.count_nonzero(hits))
        if count:  # an empty slice keeps measure 0, half-width 0 and adds nothing to h
            h += terms[i] * hits
            est = gaussian.hit_estimate(count, samples)
            measures[i], hws[i] = est.value, est.half_width
    return measures, hws, h


def _simpson(xs: np.ndarray, k: int) -> np.ndarray:
    """Composite Simpson weights of the odd number of points xs[::k] of a uniform grid."""
    w = np.where(np.arange(len(xs[::k])) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    return w * ((xs[k] - xs[0]) / 3.0)


def _kink_error(body: ConvexBody, xs: np.ndarray) -> float:
    """Simpson error a polygon's vertices add to the identity: |J| * h^2 / 3
    for every vertex height strictly inside the grid xs of spacing h.

    A 1-d slice of a polygon is [L(x), R(x)], and its measure
    m = Phi(R) - Phi(L) changes slope where two facets of one side meet.
    There (m * phi)' jumps by J = phi(v_1) * phi(v_2) * (s_k - s_j), with s
    the facets' slopes dR/dx or dL/dx, and a slope jump costs the composite
    Simpson rule up to |J| * h^2 / 6 (the bound doubles it). Vertices where
    the two sides meet are the ends of the polygon's span, where the grid
    ends too. Other bodies add 0.
    """
    if not (isinstance(body, HPolytope) and body.dim == 2):
        return 0.0
    unit, (d,), _, (stop,), (live,), (stopper,) = polygon_edges(body.normals,
                                                                body.offsets[None, :])
    j, vertex = polygon_vertices(unit, d, stop, live)
    k = stopper[j]  # edge j ends at its vertex, where edge k starts
    one_side = unit[j, 0] * unit[k, 0] > 0.0
    j, k, vertex = j[one_side], k[one_side], vertex[one_side]
    inside = (vertex[:, 1] > xs[0]) & (vertex[:, 1] < xs[-1])
    jumps = (np.exp(-0.5 * np.sum(vertex * vertex, axis=1)) / (2.0 * math.pi)
             * np.abs(unit[j, 1] / unit[j, 0] - unit[k, 1] / unit[k, 0]))
    return float(np.sum(jumps[inside])) * (xs[1] - xs[0]) ** 2 / 3.0


def w_profile(body: ConvexBody, grid_size: int = 201, samples: int = 1 << 14,
              seed: int = 0) -> WProfile:
    """Profile of last-coordinate slice measures mapped through the quantile.

    Samples the slice measure on a uniform grid over the body's last-axis
    extent (truncated for unbounded bodies; a 2-d H-polytope's extent runs
    between its lowest and highest vertex, from its edges, while higher
    dimensions take the truncation), forms g = Phi^{-1}(measure)
    where the measure is nondegenerate, and reports (i) the worst discrete
    second difference of g against its statistical slack and (ii) the
    quadrature identity: integrating the slice measures against the 1-d
    gaussian weight must recover the body's full measure. ``grid_size`` is
    rounded up to 8k+1 points, so the composite Simpson sums S_h, S_2h and
    S_4h of that identity each run over an odd number of points.

    The body's ``slices`` gives every slice of the grid as one family of
    arrays, with no body built per slice and, for an H-polytope, no LP.
    Families with a closed form
    (``gaussian.measure_slices``: every box, ball and halfspace slice, every
    slice of an ellipsoid whose series converges within
    ``gaussian.SERIES_TERM_CAP`` terms, every bounded polygon slice of a 3-d
    H-polytope, by Owen's T, and every slice of a 2-d body) are measured
    exactly in one array pass. The rest are all scored on one
    seeded (samples, n-1) draw, sub-draw ``grid_size`` of ``seed``, made
    only when some slice is present; an H-polytope's facet products with
    that draw are computed once for all its slices. The body itself is
    measured exactly where it has a closed form, and otherwise on sub-draw
    ``grid_size + 1`` with 4 * samples points. Slice estimates from one
    draw are correlated, so the quadrature's half-width is that of the mean
    of h(z) = sum_i w_i * phi(x_i) * [z in slice i] over the draw (Simpson
    weights w_i, Monte Carlo slices only), 2.576 * std(h) / sqrt(samples).
    The concavity slack sums the half-widths of each triple, which holds
    under any correlation. A slice of measure above 1 - 1e-7 is left out of
    the profile like a measure-1 slice: there one rounding of the measure
    moves g by more than the 1e-9 * (1 + max|g|) float slack. So is a
    slice below 1e-7: Owen's T is exact in absolute terms only, and a tip
    polygon of measure about 1e-23 carries noise that Phi^{-1} turns into a
    false violation. Both stay in the identity. The quadrature error of the
    identity is max(|S_h - S_2h|, |S_2h - S_4h| / 16), plus, for a 2-d
    H-polytope, |J| * h^2 / 3 at every vertex height inside the grid
    (``_kink_error``): the slice measure changes slope there, which the
    Richardson differences can miss. The rounded ``grid_size`` and
    ``samples`` are capped by PROFILE_GRID_CAP and PROFILE_SAMPLES_CAP.
    """
    if body.dim < 2:
        raise InvalidBodyError("profile construction needs dimension >= 2")
    _at_least("grid_size", grid_size, 9)
    points = grid_size + -(grid_size - 1) % 8  # 8k+1 points: odd counts at h, 2h and 4h
    if points > PROFILE_GRID_CAP:
        raise ValueError(f"grid_size must be at most {PROFILE_GRID_CAP}, got {grid_size}"
                         + (f", which rounds up to {points}" if points > grid_size else ""))
    _at_most("samples", samples, PROFILE_SAMPLES_CAP)
    grid_size = points
    r_trunc = bounding_radius(body)
    lo, hi = body.last_axis_extent()
    lo, hi = max(lo, -r_trunc), min(hi, r_trunc)
    if not lo < hi:
        raise InvalidBodyError("degenerate profile domain (empty or single point)")
    # the body's own draw is made and freed before the slice draw is made
    rhs = measure_auto(body, samples=4 * samples, seed=gaussian.sub_seed(seed, grid_size + 1))
    xs = np.linspace(lo, hi, grid_size)
    weights = gaussian.std_normal_pdf(xs)
    measures, hws, lhs_terms = _slice_measures(body, xs, _simpson(xs, 1) * weights, samples,
                                               gaussian.sub_seed(seed, grid_size))

    support = measures > 0.0
    if np.count_nonzero(support) < 2:
        raise InvalidBodyError("degenerate profile domain (empty or single point)")
    mask = support & (measures >= _PROFILE_BOTTOM) & (measures <= _PROFILE_TOP)
    gx = xs[mask]
    g = gaussian.std_normal_quantile(measures[mask])
    g_hw = hws[mask] / gaussian.std_normal_pdf(g)

    # second differences over consecutive grid triples with finite g;
    # slices outside the mask sit outside the profile (g = -inf/+inf or
    # too near +inf to resolve) and are skipped, matching the restriction
    # to the nondegenerate interval
    full_g = np.full(grid_size, np.nan)
    full_g[mask] = g
    full_hw = np.zeros(grid_size)
    full_hw[mask] = g_hw
    d2 = full_g[:-2] + full_g[2:] - 2.0 * full_g[1:-1]
    valid = ~np.isnan(d2)
    stat = gaussian.CERT_HALF_WIDTHS * (full_hw[:-2] + 2.0 * full_hw[1:-1] + full_hw[2:])[valid]
    d2v = d2[valid]
    if d2v.size:
        curvature_floor = float(np.median(np.abs(d2v)))
        slack = stat + curvature_floor + 1e-9 * (1.0 + np.max(np.abs(g)))
        margin = float(np.max(d2v))
        excess = float(np.max(d2v - slack))
    else:
        margin = excess = -math.inf  # no triples: concavity is vacuous

    # epigraph measure by quadrature vs the direct body measure
    # error estimate from two Richardson differences, since either one
    # alone can nearly cancel: |S_h - S_2h| and |S_2h - S_4h| / 16
    lhs, coarse, coarser = (float(_simpson(xs, k) @ (measures * weights)[::k])
                            for k in (1, 2, 4))
    quad_err = (max(abs(lhs - coarse), abs(coarse - coarser) / 16.0) + _kink_error(body, xs)
                + 2.0 * TAIL_EPS + 1e-9)
    hw_lhs = (0.0 if lhs_terms is None
              else gaussian.Z99 * float(np.std(lhs_terms)) / math.sqrt(samples))
    tol = gaussian.CERT_HALF_WIDTHS * math.hypot(hw_lhs, rhs.half_width) + quad_err
    return WProfile(xs=gx, g=g, g_half_widths=g_hw,
                    domain=(float(xs[support][0]), float(xs[support][-1])),
                    source_dim=body.dim,
                    concavity_margin=margin, concavity_excess=excess,
                    identity_lhs=lhs, identity_rhs=rhs, identity_tol=tol)


# ---------------------------------------------------------------------------
# Covering-to-minimum ratio and the cube scaling curve
# ---------------------------------------------------------------------------

def corollary_ratio(lattice: Lattice, body: ConvexBody, resolution: int = 9,
                    samples: int = 1 << 16, seed: int = 0) -> float:
    """Certified upper bracket of the covering radius over the nth minimum.

    On bodies with certified measure >= 1/2 this never exceeds 1/theta plus
    the covering bracket slack divided by the minimum.
    """
    if measure_auto(body, samples=samples, seed=seed).lower < 0.5 - gaussian.FLOAT_SLACK:
        raise ValueError("body measure >= 1/2 could not be certified")
    lower, upper = covering_radius(lattice, body, resolution)
    lam = nth_minimum(lattice, Ball(1.0, dim=lattice.dim))
    return upper / lam


def cube_scale(n) -> np.ndarray:
    """Scale s(n) making the centered unit cube carry gaussian measure 1/2.

    With the cube convention [-1/2, 1/2]^n, the product closed form gives
    s(n) = 2 * Phi^{-1}((1 + 2^(-1/n)) / 2); s(1) equals theta().
    """
    arr = np.asarray(n, dtype=float)
    if np.any(arr < 1):
        raise ValueError("dimensions must be >= 1")
    p = (1.0 + np.power(2.0, -1.0 / arr)) / 2.0
    return 2.0 * gaussian.std_normal_quantile(p)


def cube_scaling_curve(n_values) -> list[tuple[int, float]]:
    """[(n, s(n))] for the requested dimensions."""
    ns = np.asarray(list(n_values), dtype=np.int64)
    scales = cube_scale(ns)
    return [(int(n), float(s)) for n, s in zip(ns, np.atleast_1d(scales))]


# ---------------------------------------------------------------------------
# Seeded instance generators and suites
# ---------------------------------------------------------------------------

THEOREM_BODY_KINDS = ("halfspace", "box", "ball", "slab", "hpolytope")


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# Headroom of a calibrated hpolytope with n >= 3, measured by Monte Carlo,
# against the checker's certificate, in binomial sigmas sqrt(p(1-p)/samples):
# CERT_HALF_WIDTHS * Z99 for the certificate itself plus six sigmas of the
# noise in (calibrated measure - the checker's estimate), which is the
# difference of two independent draws.
_RECERT_SIGMAS = gaussian.CERT_HALF_WIDTHS * gaussian.Z99 + 6.0 * math.sqrt(2.0)


def _recertifiable_target(samples: int) -> float:
    """Smallest target t with t - _RECERT_SIGMAS * sigma(t) >= 1/2, or 0.57.

    Solving (t - 1/2)^2 = c * t * (1 - t), c = _RECERT_SIGMAS^2 / samples,
    gives t = 1/2 + sqrt(c / (1 + c)) / 2 < 1; the default 2^16 samples
    need only 0.532, so the fixed 0.57 governs there. The headroom matters
    for n >= 3 only, where an hpolytope is calibrated and certified by
    Monte Carlo; a polygon meets its target exactly.
    """
    c = _RECERT_SIGMAS ** 2 / samples
    return max(0.57, 0.5 + 0.5 * math.sqrt(c / (1.0 + c)))


def generate_certified_body(n: int, kind: str, rng: np.random.Generator,
                            mc_samples: int = 1 << 16) -> ConvexBody:
    """Body of the requested kind with gaussian measure >= 1/2.

    Closed-form kinds, and at n <= 2 every kind, meet the bound exactly:
    a bounded polygon calibrates by the root of its Owen's T measure. An
    hpolytope with n >= 3 is calibrated on an ``mc_samples`` draw to clear
    the checker's certificate (estimate - 3 half-widths >= 1/2 on its own
    draw); certification is left to ``check_theorem_instance``, which
    reports a miss as ``inconclusive``.
    """
    if kind == "halfspace":
        return Halfspace(_random_unit(rng, n), abs(rng.normal(0.0, 0.7)))
    if kind == "box":
        base = AxisBox(rng.uniform(0.5, 1.5, size=n))
        target = rng.uniform(0.505, 0.8)
        return base.scale(gaussian.calibrate_scale(base, target))
    if kind == "ball":
        target = rng.uniform(0.505, 0.8)
        return Ball(gaussian.calibrate_scale(Ball(1.0, dim=n), target), dim=n)
    if kind == "slab":
        axis = int(rng.integers(n))
        target = 0.5 if rng.random() < 0.5 else rng.uniform(0.505, 0.8)
        halfwidth = gaussian.std_normal_quantile((1.0 + target) / 2.0)
        widths = np.full(n, math.inf)
        widths[axis] = halfwidth
        return AxisBox(widths)
    if kind == "hpolytope":
        pairs = n + int(rng.integers(1, 3))
        normals = np.stack([_random_unit(rng, n) for _ in range(pairs)])
        normals = np.vstack([normals, -normals])
        base = HPolytope(normals, np.ones(2 * pairs) * rng.uniform(0.8, 1.4))
        target = _recertifiable_target(mc_samples)
        return base.scale(gaussian.calibrate_scale(base, target, samples=mc_samples,
                                                   seed=int(rng.integers(2**62))))
    raise ValueError(f"unknown body kind {kind!r}")


def generate_theorem_instance(n: int, seed: int, trial: int,
                              mc_samples: int = 1 << 16):
    """(kind, body, coset, instance_seed) for one seeded theorem trial."""
    rng = gaussian.substream(seed, trial)
    kind = THEOREM_BODY_KINDS[trial % len(THEOREM_BODY_KINDS)]
    body = generate_certified_body(n, kind, rng, mc_samples=mc_samples)
    lattice = random_theta_lattice(n, int(rng.integers(2**62)))
    coset = Coset(lattice, rng.normal(0.0, 1.5, size=n))
    return kind, body, coset, int(rng.integers(2**62))


def _at_least(name: str, value: int, low: int) -> None:
    """Reject an argument below its range before anything is drawn."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _at_most(name: str, value: int, high: int) -> None:
    """Reject an argument above its cap before anything is drawn."""
    if value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


def theorem_suite(n: int, trials: int, seed: int, mc_samples: int = 1 << 16):
    """Yield (trial, kind, CheckReport) over seeded theorem instances."""
    _at_least("n", n, 1)
    _at_least("trials", trials, 0)
    _at_least("samples", mc_samples, gaussian.MIN_MC_SAMPLES)
    for trial in range(trials):
        kind, body, coset, inst_seed = generate_theorem_instance(
            n, seed, trial, mc_samples=mc_samples)
        report = check_theorem_instance(body, coset, mc_samples=mc_samples, seed=inst_seed)
        yield trial, kind, report


LEMMA_BODY_KINDS = ("halfspace", "ball", "cylinder", "box")


def generate_lemma_instance(seed: int, trial: int, max_dim: int = 4):
    """(kind, body, subspace, instance_seed) for one seeded slice-lemma trial."""
    rng = gaussian.substream(seed, trial)
    n = int(rng.integers(2, max_dim + 1))
    m = int(rng.integers(1, n))
    kind = LEMMA_BODY_KINDS[trial % len(LEMMA_BODY_KINDS)]
    if kind == "cylinder":
        # slab with its normal inside the subspace: the equality case
        axes = rng.permutation(n)[:m]
        widths = np.full(n, math.inf)
        widths[axes[0]] = gaussian.theta() / 2.0
        body = AxisBox(widths)
        sub = np.zeros((m, n))
        sub[np.arange(m), axes] = 1.0
    else:
        body = generate_certified_body(n, kind, rng)
        q, _ = np.linalg.qr(rng.standard_normal((n, m)))
        sub = q.T[:m]
    return kind, body, sub, int(rng.integers(2**62))


def lemma_suite(trials: int, seed: int, samples: int = 1 << 16, max_dim: int = 4):
    _at_least("max_dim", max_dim, 2)
    _at_least("trials", trials, 0)
    _at_least("samples", samples, gaussian.MIN_MC_SAMPLES)
    for trial in range(trials):
        kind, body, sub, inst_seed = generate_lemma_instance(seed, trial, max_dim=max_dim)
        report = check_lemma_instance(body, sub, samples=samples, seed=inst_seed)
        yield trial, kind, report


EHRHARD_PAIR_KINDS = ("boxes", "balls", "parallel-halfspaces", "identical")


def generate_ehrhard_instance(seed: int, trial: int, max_dim: int = 4):
    rng = gaussian.substream(seed, trial)
    n = int(rng.integers(1, max_dim + 1))
    kind = EHRHARD_PAIR_KINDS[trial % len(EHRHARD_PAIR_KINDS)]
    lam = float(rng.uniform()) if trial % 8 else float(rng.choice([0.0, 0.5, 1.0]))
    if kind == "boxes":
        a = AxisBox(rng.uniform(0.3, 2.0, size=n))
        b = AxisBox(rng.uniform(0.3, 2.0, size=n))
    elif kind == "balls":
        a = Ball(float(rng.uniform(0.3, 2.0)), dim=n)
        b = Ball(float(rng.uniform(0.3, 2.0)), dim=n)
    elif kind == "parallel-halfspaces":
        u = _random_unit(rng, n)
        a = Halfspace(u, float(rng.normal(0.0, 1.0)))
        b = Halfspace(u * float(rng.uniform(0.5, 2.0)),
                      float(rng.normal(0.0, 1.0)))
    else:
        a = b = AxisBox(rng.uniform(0.3, 2.0, size=n))
    return kind, a, b, lam, int(rng.integers(2**62))


def ehrhard_suite(trials: int, seed: int, max_dim: int = 4):
    _at_least("max_dim", max_dim, 1)
    _at_least("trials", trials, 0)
    for trial in range(trials):
        kind, a, b, lam, inst_seed = generate_ehrhard_instance(seed, trial, max_dim=max_dim)
        report = check_ehrhard(a, b, lam, seed=inst_seed)
        yield trial, kind, report


def generate_ratio_instance(n: int, seed: int, trial: int):
    """(body, lattice) pair for the covering-ratio bound, n <= 3."""
    rng = gaussian.substream(seed, trial)
    kind = ("box", "ball")[trial % 2]
    body = generate_certified_body(n, kind, rng)
    lattice = random_theta_lattice(n, int(rng.integers(2**62)))
    return kind, body, lattice, int(rng.integers(2**62))
