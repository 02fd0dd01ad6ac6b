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

Statistical acceptance follows one convention: an estimate certifies
``x >= b`` only when ``estimate - 3 * half_width >= b`` (99% half-widths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import gaussian
from .convex import (AxisBox, Ball, ConvexBody, FullSpace, Halfspace, HPolytope,
                     bounding_radius, minkowski_combination)
from .errors import EnumerationCapExceededError, InvalidBodyError, UnsupportedBodyError
from .gaussian import MeasureEstimate, measure_auto, measure_exact
from .lattice import Coset, Lattice, enumerate_coset_in_ball, nth_minimum, covering_radius

DEFAULT_TAIL_EPS = 1e-9
_FLOAT_SLACK = 1e-12          # tolerance against pure float noise in exact paths
_EXACT_MARGIN_TOL = 1e-9      # equality tolerance for exact-arithmetic checks


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

    ``xs``/``g`` cover exactly the domain where the slice measure is strictly
    between 0 and 1; ``concavity_excess <= 0`` means every interior second
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

    The body is truncated at R = bounding_radius(body, DEFAULT_TAIL_EPS). Shells
    around the anchor double in radius up to R for a bounded body and up to
    R * 2**_COSET_DOUBLINGS for an unbounded one. Candidate points are
    visited in order of distance from the anchor (ties by the coefficient
    spiral key), so the returned witness is deterministic. For a bounded body
    an exhausted search is a certificate of empty intersection; for an
    unbounded body it is ``truncated``, since emptiness beyond the truncation
    is not decidable. A search whose enumeration passes the lattice module's
    ``DEFAULT_NODE_CAP`` is ``truncated`` too. ``radius`` is the largest
    radius enumerated.
    """
    r_trunc = bounding_radius(body, DEFAULT_TAIL_EPS)
    anchor = body.anchor()
    bounded = math.isfinite(body.circumradius())
    r_max = r_trunc if bounded else r_trunc * 2.0 ** _COSET_DOUBLINGS
    # every point of space is within half a basis-cell diagonal of the lattice
    b = coset.lattice.frame[0]
    shell = min(0.6 * float(np.sum(np.linalg.norm(b, axis=1))) + 1e-9, r_max)
    while True:
        try:
            pts = enumerate_coset_in_ball(coset, anchor, shell)
        except EnumerationCapExceededError as e:
            return CosetSearch(None, "truncated", shell, note=f"enumeration cap hit: {e}")
        if len(pts):
            # stable sort on quantized distance keeps the spiral key as
            # tie-break; any point nearer than a hit is already enumerated,
            # so the first hit is the global nearest in-body point
            dist = np.linalg.norm(pts - anchor, axis=1)
            order = np.argsort(np.round(dist / 1e-9).astype(np.int64), kind="stable")
            hits = body.contains_many(pts[order])
            idx = np.flatnonzero(hits)
            if idx.size:
                return CosetSearch(pts[order][idx[0]], "found", shell)
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


def _certify_at_least_half(body: ConvexBody, samples: int, seed: int) -> tuple[bool, MeasureEstimate]:
    est = measure_auto(body, samples=samples, seed=seed)
    if est.method == "exact":
        return est.value >= 0.5 - _FLOAT_SLACK, est
    return est.value - 3.0 * est.half_width >= 0.5, est


def check_theorem_instance(body: ConvexBody, coset: Coset,
                           mc_samples: int = 1 << 16, seed: int = 0) -> CheckReport:
    """Does the body meet the coset? (It must, on certified inputs.)

    Both preconditions are certified here, and only here: gaussian measure
    >= 1/2 (exactly, or by estimate - 3*half_width >= 1/2) and
    nth_minimum(lattice) <= theta. An unverifiable measure yields
    ``inconclusive``; a non-theta coset is a caller error.
    """
    ok, est = _certify_at_least_half(body, mc_samples, seed)
    if not ok:
        return CheckReport("theorem", "inconclusive", margin=est.value - 0.5,
                           seed=seed, measure=est,
                           note="measure >= 1/2 not certified at 3 half-widths")
    lam = nth_minimum(coset.lattice, Ball(1.0, dim=coset.dim))
    th = gaussian.theta()
    if lam > th + 1e-9:
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
    at +-t/2, a gap of (t - theta)/2 outside. Certified by complete
    enumeration, reported as the expected ``violated``.
    """
    th = gaussian.theta()
    if not t > th:
        raise ValueError(f"no counterexample exists at t = {t} <= theta = {th}")
    body = AxisBox([th / 2.0])
    coset = Coset(Lattice([[t]]), [t / 2.0])
    pts = enumerate_coset_in_ball(coset, np.zeros(1), body.circumradius())
    inside = [p for p in pts if body.contains(p)]
    gap = (t - th) / 2.0
    if inside:
        # cannot happen for t > theta; report honestly if it ever does
        return CheckReport("sharpness", "holds", margin=gap, seed=0,
                           measure=measure_exact(body), witness=np.asarray(inside[0]),
                           note="unexpected intersection")
    return CheckReport("sharpness", "violated", margin=gap, seed=0,
                       measure=measure_exact(body),
                       certificate=f"complete enumeration within radius "
                                   f"{body.circumradius():.9f}: no coset point; "
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
    requires estimate + 3*half_width < 1/2.
    """
    sub = np.asarray(subspace, dtype=float)
    if sub.ndim != 2 or sub.shape[1] != body.dim or not 1 <= sub.shape[0] < body.dim:
        raise ValueError("subspace must be (m, n) with 1 <= m < n")
    if np.max(np.abs(sub @ sub.T - np.eye(sub.shape[0]))) > 1e-9:
        raise ValueError("subspace rows must be orthonormal")
    ok, est = _certify_at_least_half(body, samples, seed)
    if not ok:
        return CheckReport("lemma", "inconclusive", margin=est.value - 0.5, seed=seed,
                           measure=est, note="measure >= 1/2 not certified")
    closed = _exact_subspace_slice(body, sub)
    if closed is not None:
        try:
            slice_est = measure_exact(closed)
        except UnsupportedBodyError:
            closed = None
    if closed is None:
        value, hw = gaussian.mc_fraction(
            sub.shape[0],
            lambda pts: body.contains_many(pts @ sub),
            samples, seed + 1)
        slice_est = MeasureEstimate(value, "monte-carlo", hw, samples)
    margin = slice_est.value + 3.0 * slice_est.half_width - 0.5
    verdict = "holds" if margin >= -_FLOAT_SLACK else "violated"
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
    margin. Monte Carlo estimates are propagated as [-3hw, +3hw] intervals
    through the (monotone) quantile: ``holds`` means the certified lower
    side of the left-hand term beats the certified upper side of the right,
    ``violated`` needs the whole intervals separated the wrong way, and
    overlapping intervals are ``inconclusive`` (more samples needed).
    """
    comb = minkowski_combination(a, b, lam)

    def bracket(body: ConvexBody, sub: int) -> tuple[float, float, MeasureEstimate]:
        est = measure_auto(body, samples=samples, seed=_sub_seed(seed, sub))
        lo = np.clip(est.value - 3.0 * est.half_width, 1e-15, 1.0 - 1e-15)
        hi = np.clip(est.value + 3.0 * est.half_width, 1e-15, 1.0 - 1e-15)
        return (gaussian.std_normal_quantile(lo),
                gaussian.std_normal_quantile(hi), est)

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

def w_profile(body: ConvexBody, grid_size: int = 201, samples: int = 1 << 14,
              seed: int = 0) -> WProfile:
    """Profile of last-coordinate slice measures mapped through the quantile.

    Samples the slice measure on a uniform grid over the body's last-axis
    extent (truncated for unbounded bodies), forms g = Phi^{-1}(measure)
    where the measure is nondegenerate, and reports (i) the worst discrete
    second difference of g against its statistical slack and (ii) the
    quadrature identity: integrating the slice measures against the 1-d
    gaussian weight must recover the body's full measure.
    """
    if body.dim < 2:
        raise InvalidBodyError("profile construction needs dimension >= 2")
    if grid_size < 9:
        raise ValueError("grid_size must be at least 9")
    grid_size += -(grid_size - 1) % 4  # 4k+1 points: Simpson at h, 2h and 4h
    r_trunc = bounding_radius(body, DEFAULT_TAIL_EPS)
    lo, hi = body.last_axis_extent()
    lo, hi = max(lo, -r_trunc), min(hi, r_trunc)
    if not lo < hi:
        raise InvalidBodyError("degenerate profile domain (empty or single point)")
    xs = np.linspace(lo, hi, grid_size)
    measures = np.empty(grid_size)
    hws = np.empty(grid_size)
    for i, x in enumerate(xs):
        sl = body.slice_at(float(x))
        if sl is None:
            measures[i], hws[i] = 0.0, 0.0
            continue
        est = measure_auto(sl, samples=samples, seed=_sub_seed(seed, i))
        measures[i], hws[i] = est.value, est.half_width

    support = measures > 0.0
    if np.count_nonzero(support) < 2:
        raise InvalidBodyError("degenerate profile domain (empty or single point)")
    mask = support & (measures < 1.0)
    gx = xs[mask]
    g = gaussian.std_normal_quantile(measures[mask]) if gx.size else np.empty(0)
    g_hw = (hws[mask] / gaussian.std_normal_pdf(g)) if gx.size else np.empty(0)

    # second differences over consecutive grid triples with finite g;
    # measure-0/1 slices sit outside the profile (g = -inf/+inf) and are
    # skipped, matching the restriction to the nondegenerate interval
    full_g = np.full(grid_size, np.nan)
    full_g[mask] = g
    full_hw = np.zeros(grid_size)
    full_hw[mask] = g_hw
    d2 = full_g[:-2] + full_g[2:] - 2.0 * full_g[1:-1]
    valid = ~np.isnan(d2)
    stat = 3.0 * (full_hw[:-2] + 2.0 * full_hw[1:-1] + full_hw[2:])[valid]
    d2v = d2[valid]
    if d2v.size:
        curvature_floor = float(np.median(np.abs(d2v)))
        slack = stat + curvature_floor + 1e-9 * (1.0 + np.max(np.abs(g)))
        margin = float(np.max(d2v))
        excess = float(np.max(d2v - slack))
    else:
        margin = excess = -math.inf  # no triples: concavity is vacuous

    # epigraph measure by quadrature vs the direct body measure
    weights = gaussian.std_normal_pdf(xs)
    # error estimate from two Richardson differences, since either one
    # alone can nearly cancel: |S_h - S_2h| and |S_2h - S_4h| / 16
    lhs, coarse, coarser = (float(integrate.simpson((measures * weights)[::k], x=xs[::k]))
                            for k in (1, 2, 4))
    quad_err = (max(abs(lhs - coarse), abs(coarse - coarser) / 16.0)
                + 2.0 * DEFAULT_TAIL_EPS + 1e-9)
    # Simpson weight vector for uncertainty propagation
    h = xs[1] - xs[0]
    wsimp = np.ones(grid_size)
    wsimp[1:-1:2] = 4.0
    wsimp[2:-1:2] = 2.0
    wsimp *= h / 3.0
    hw_lhs = float(np.sqrt(np.sum((wsimp * weights * hws) ** 2)))
    rhs = measure_auto(body, samples=4 * samples, seed=_sub_seed(seed, grid_size + 1))
    tol = 3.0 * math.hypot(hw_lhs, rhs.half_width) + quad_err
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
    ok, est = _certify_at_least_half(body, samples, seed)
    if not ok:
        raise ValueError("body measure >= 1/2 could not be certified")
    if not body.symmetric:
        raise ValueError("ratio needs a symmetric body")
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


def _instance_seed(seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(trial,))


def _sub_seed(seed: int, key: int) -> int:
    """Independent integer seed for sub-draw ``key`` of a seeded check."""
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# Headroom of a calibrated hpolytope against the checker's certificate, in
# binomial standard deviations sigma = sqrt(p(1-p)/samples): the 3 * Z99 of
# the certificate itself plus six sigmas of the noise in (calibrated measure
# - the checker's estimate), which is the difference of two independent draws.
_RECERT_SIGMAS = 3.0 * gaussian.Z99 + 6.0 * math.sqrt(2.0)


def _recertifiable_target(samples: int) -> float:
    """Smallest target t with t - _RECERT_SIGMAS * sigma(t) >= 1/2, or 0.57.

    Solving (t - 1/2)^2 = c * t * (1 - t), c = _RECERT_SIGMAS^2 / samples,
    gives t = 1/2 + sqrt(c / (1 + c)) / 2 < 1; the default 2^16 samples
    need only 0.532, so the fixed 0.57 governs there.
    """
    c = _RECERT_SIGMAS ** 2 / samples
    return max(0.57, 0.5 + 0.5 * math.sqrt(c / (1.0 + c)))


def generate_certified_body(n: int, kind: str, rng: np.random.Generator,
                            mc_samples: int = 1 << 16) -> ConvexBody:
    """Body of the requested kind with gaussian measure >= 1/2.

    Closed-form kinds meet the bound exactly. An hpolytope is calibrated on
    an ``mc_samples`` draw to clear the checker's certificate (estimate - 3
    half-widths >= 1/2 on its own draw); certification is left to
    ``check_theorem_instance``, which reports a miss as ``inconclusive``.
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
    ss = _instance_seed(seed, trial)
    rng = np.random.default_rng(ss)
    kind = THEOREM_BODY_KINDS[trial % len(THEOREM_BODY_KINDS)]
    body = generate_certified_body(n, kind, rng, mc_samples=mc_samples)
    lattice = random_theta_lattice(n, int(rng.integers(2**62)))
    coset = Coset(lattice, rng.normal(0.0, 1.5, size=n))
    return kind, body, coset, int(rng.integers(2**62))


def theorem_suite(n: int, trials: int, seed: int, mc_samples: int = 1 << 16):
    """Yield (trial, kind, CheckReport) over seeded theorem instances."""
    for trial in range(trials):
        kind, body, coset, inst_seed = generate_theorem_instance(
            n, seed, trial, mc_samples=mc_samples)
        report = check_theorem_instance(body, coset, mc_samples=mc_samples, seed=inst_seed)
        yield trial, kind, report


LEMMA_BODY_KINDS = ("halfspace", "ball", "cylinder", "box")


def generate_lemma_instance(seed: int, trial: int, max_dim: int = 4):
    """(kind, body, subspace, instance_seed) for one seeded slice-lemma trial."""
    ss = _instance_seed(seed, trial)
    rng = np.random.default_rng(ss)
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
    for trial in range(trials):
        kind, body, sub, inst_seed = generate_lemma_instance(seed, trial, max_dim=max_dim)
        report = check_lemma_instance(body, sub, samples=samples, seed=inst_seed)
        yield trial, kind, report


EHRHARD_PAIR_KINDS = ("boxes", "balls", "parallel-halfspaces", "identical")


def generate_ehrhard_instance(seed: int, trial: int, max_dim: int = 4):
    ss = _instance_seed(seed, trial)
    rng = np.random.default_rng(ss)
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


def ehrhard_suite(trials: int, seed: int, samples: int = 1 << 16, max_dim: int = 4):
    for trial in range(trials):
        kind, a, b, lam, inst_seed = generate_ehrhard_instance(seed, trial, max_dim=max_dim)
        report = check_ehrhard(a, b, lam, samples=samples, seed=inst_seed)
        yield trial, kind, report


def generate_ratio_instance(n: int, seed: int, trial: int):
    """(body, lattice) pair for the covering-ratio bound, n <= 3."""
    ss = _instance_seed(seed, trial)
    rng = np.random.default_rng(ss)
    kind = ("box", "ball")[trial % 2]
    body = generate_certified_body(n, kind, rng)
    lattice = random_theta_lattice(n, int(rng.integers(2**62)))
    return kind, body, lattice, int(rng.integers(2**62))
